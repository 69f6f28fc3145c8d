package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// spanKind names a traced boundary.
type spanKind uint8

const (
	spanEnvStep spanKind = iota
	spanRollout
	spanSetWeights
	spanApplyDelta
	spanPrepare
	spanTrain
	spanTrainMiss
	spanWeights
	spanRestore
	spanTransport
	spanNewSession
	spanStart
	spanFirstTrain
	spanWait
	spanStop
	spanKill
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"env.Step", "Agent.Rollout", "Agent.SetWeights", "Agent.ApplyWeightsDelta",
	"Algorithm.PrepareData", "Algorithm.TryTrain", "Algorithm.TryTrain.miss",
	"Algorithm.Weights", "Algorithm.RestoreWeights",
	"session.transport", "session.NewSession", "session.Start", "session.first_train",
	"session.Wait", "session.Stop", "Grid.Kill",
}

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 1 << 18

// span is one traced call. parent is the enclosing span (env.Step inside
// Agent.Rollout); link ties Algorithm.PrepareData to the Agent.Rollout
// span that produced its batch.
type span struct {
	kind   spanKind
	id     uint64
	parent uint64
	link   uint64
	start  int64 // ns on the recorder's clock
	end    int64
}

// kindTotal accumulates one span kind inside the measured window.
type kindTotal struct {
	n  atomic.Int64
	ns atomic.Int64
}

// tracer keeps spans in memory and per-kind totals for the measured
// window; write dumps the spans when the run ends.
type tracer struct {
	ids atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64

	totals [numSpanKinds]kindTotal
	// rolloutEnvNs is the env.Step time inside measured Agent.Rollout
	// spans, so the rollout's self time is its total minus this.
	rolloutEnvNs atomic.Int64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<14)} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record keeps s, and adds it to its kind's totals when counted is set.
func (t *tracer) record(s span, counted bool) {
	if counted {
		t.totals[s.kind].n.Add(1)
		t.totals[s.kind].ns.Add(s.end - s.start)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// total returns the count and summed ns of a kind in the measured window.
func (t *tracer) total(k spanKind) (int64, int64) {
	return t.totals[k].n.Load(), t.totals[k].ns.Load()
}

// write dumps the kept spans as JSON lines to path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	type line struct {
		Name    string  `json:"name"`
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent,omitempty"`
		Link    uint64  `json:"link,omitempty"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{spanNames[s.kind], s.id, s.parent, s.link,
			float64(s.start) / 1e3, float64(s.end-s.start) / 1e3}); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped); err != nil {
			return err
		}
	}
	return w.Flush()
}
