package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/fabric"
	"xingtian/internal/message"
	"xingtian/internal/objectstore"
	"xingtian/internal/serialize"
)

// replayBudget is how long each layer replay keeps repeating its call.
const replayBudget = 200 * time.Millisecond

// replayResult holds the layer replay's timings of single public calls.
type replayResult struct {
	marshalRollout, unmarshalRollout float64 // µs per MB
	marshalWeights, unmarshalWeights float64 // µs per MB
	storeOpNs, storeOpNsParallel     float64
	brokerRoundtripUS                float64
	fabricRoundtripUS                float64
	fabricStreamMBps                 float64
}

// replayLayers pushes payloads captured in the traced run through each
// layer's public calls, one layer at a time.
func replayLayers(c *capture) (replayResult, error) {
	var r replayResult
	if len(c.batches) == 0 {
		return r, fmt.Errorf("layer replay: no rollout batch was captured")
	}
	rollouts := make([]any, len(c.batches))
	for i, b := range c.batches {
		rollouts[i] = b
	}
	var weights []any
	for _, w := range c.weights {
		weights = append(weights, w)
	}
	for _, d := range c.deltas {
		weights = append(weights, d)
	}
	var err error
	if r.marshalRollout, r.unmarshalRollout, err = replaySerialize(rollouts); err != nil {
		return r, err
	}
	if len(weights) > 0 {
		if r.marshalWeights, r.unmarshalWeights, err = replaySerialize(weights); err != nil {
			return r, err
		}
	}
	raw, err := serialize.Marshal(c.batches[0])
	if err != nil {
		return r, err
	}
	if r.storeOpNs, err = replayStore(raw, 1); err != nil {
		return r, err
	}
	if r.storeOpNsParallel, err = replayStore(raw, runtime.NumCPU()); err != nil {
		return r, err
	}
	if r.brokerRoundtripUS, err = replayBroker(c.batches[0]); err != nil {
		return r, err
	}
	if r.fabricRoundtripUS, r.fabricStreamMBps, err = replayFabric(c.batches[0], len(raw)); err != nil {
		return r, err
	}
	return r, nil
}

// replaySerialize round-trips the payloads through MarshalPooled and
// Unmarshal, returning µs per MB for each direction.
func replaySerialize(payloads []any) (marshal, unmarshal float64, err error) {
	var mNs, uNs, bytes int64
	start := time.Now()
	for i := 0; time.Since(start) < replayBudget; i++ {
		t0 := time.Now()
		raw, err := serialize.MarshalPooled(payloads[i%len(payloads)])
		if err != nil {
			return 0, 0, fmt.Errorf("replay marshal: %w", err)
		}
		t1 := time.Now()
		if _, err := serialize.Unmarshal(raw); err != nil {
			return 0, 0, fmt.Errorf("replay unmarshal: %w", err)
		}
		t2 := time.Now()
		mNs += int64(t1.Sub(t0))
		uNs += int64(t2.Sub(t1))
		bytes += int64(len(raw))
		serialize.FreeBuf(raw)
	}
	mb := float64(bytes) / 1e6
	return float64(mNs) / 1e3 / mb, float64(uNs) / 1e3 / mb, nil
}

// replayStore runs Put/Get/Release cycles from p goroutines on one store
// and returns the wall ns per operation seen by each goroutine.
func replayStore(data []byte, p int) (float64, error) {
	const cycles = 20000
	st := objectstore.New()
	errs := make([]error, p)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cycles && errs[g] == nil; i++ {
				id := st.Put(data, 1)
				if _, err := st.Get(id); err != nil {
					errs[g] = err
				}
				if err := st.Release(id); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("replay objectstore: %w", err)
	}
	return float64(elapsed) / (3 * cycles), nil
}

// replayBroker times Send→Recv between two ports of one broker and
// returns the median µs.
func replayBroker(body any) (float64, error) {
	b := broker.New(broker.Config{})
	defer b.Stop()
	src, err := b.Register("replay-src")
	if err != nil {
		return 0, err
	}
	dst, err := b.Register("replay-dst")
	if err != nil {
		return 0, err
	}
	var us []float64
	start := time.Now()
	for time.Since(start) < replayBudget {
		t0 := time.Now()
		if err := src.Send(message.New(message.TypeRollout, "replay-src", []string{"replay-dst"}, body)); err != nil {
			return 0, fmt.Errorf("replay broker send: %w", err)
		}
		if _, err := dst.Recv(); err != nil {
			return 0, fmt.Errorf("replay broker recv: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// replayFabric times a round trip between two machines of a loopback
// fabric.Grid (median µs) and streams one way with four messages in
// flight (MB/s of encoded body).
func replayFabric(body any, size int) (roundtripUS, streamMBps float64, err error) {
	g, err := fabric.NewGrid(2, fabric.GridOptions{})
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	defer func() {
		g.Stop() // closes the queues, so the stream receiver returns
		wg.Wait()
	}()
	a, err := g.Register(0, "replay-a")
	if err != nil {
		return 0, 0, err
	}
	b, err := g.Register(1, "replay-b")
	if err != nil {
		return 0, 0, err
	}
	send := func(p *broker.Port, from, to string) error {
		return p.Send(message.New(message.TypeRollout, from, []string{to}, body))
	}
	var us []float64
	start := time.Now()
	for time.Since(start) < replayBudget {
		t0 := time.Now()
		if err := send(a, "replay-a", "replay-b"); err != nil {
			return 0, 0, err
		}
		if _, err := b.Recv(); err != nil {
			return 0, 0, err
		}
		if err := send(b, "replay-b", "replay-a"); err != nil {
			return 0, 0, err
		}
		if _, err := a.Recv(); err != nil {
			return 0, 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}

	const inFlight = 4
	// One slot per message in flight plus the receiver's closing error.
	got := make(chan error, inFlight+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, err := b.Recv()
			got <- err
			if err != nil {
				return
			}
		}
	}()
	sent, received := 0, 0
	start = time.Now()
	for time.Since(start) < replayBudget || received < sent {
		if sent-received >= inFlight || time.Since(start) >= replayBudget {
			if err := <-got; err != nil {
				return 0, 0, err
			}
			received++
			continue
		}
		if err := send(a, "replay-a", "replay-b"); err != nil {
			return 0, 0, err
		}
		sent++
	}
	elapsed := time.Since(start).Seconds()
	return median(us), float64(sent) * float64(size) / 1e6 / elapsed, nil
}
