package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/fabric"
)

// setupTimeout bounds the wait for a session's first train step.
const setupTimeout = 60 * time.Second

// pollEvery is the polling goroutine's tick; healthEvery spaces the traced
// run's ChannelHealth samples.
const (
	pollEvery   = 5 * time.Millisecond
	healthEvery = 100 * time.Millisecond
)

// sessionRun is everything one session yields to the metrics.
type sessionRun struct {
	rec    *recorder
	setup  time.Duration // transport build to first successful train step
	stop   time.Duration // Session.Stop
	report *core.Report
	err    error // Session.Err after Stop
	// preStop is ChannelHealth at the stop signal, or just before the
	// machine kill on a kill workload: drops it shows are not caused by
	// the injected fault.
	preStop broker.ClusterHealth
	// start and end are ChannelHealth when the measured window opened and
	// at the stop signal.
	start, end broker.ClusterHealth
	poll       *poller
}

// setupSession builds the transport and session, starts it, and waits for
// the first successful train step.
func setupSession(w workload, seed int64, window time.Duration, rec *recorder) (*core.Session, *fabric.Grid, time.Duration, error) {
	t0 := rec.now()
	grid, err := w.transport()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build transport: %w", err)
	}
	cfg := w.config(window)
	if grid != nil {
		cfg.Transport = grid
	}
	rec.span(spanTransport, 0, 0, 0, t0)
	algF, agF, err := w.factories(rec)
	if err != nil {
		if grid != nil {
			grid.Stop()
		}
		return nil, nil, 0, err
	}
	t1 := rec.now()
	s, err := core.NewSession(cfg, algF, agF, seed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("new session: %w", err)
	}
	rec.span(spanNewSession, 0, 0, 0, t1)
	t2 := rec.now()
	s.Start()
	rec.span(spanStart, 0, 0, 0, t2)
	t3 := rec.now()
	deadline := time.Now().Add(setupTimeout)
	for rec.firstTrain.Load() == 0 {
		if err := s.Err(); err != nil || time.Now().After(deadline) {
			s.Stop()
			if err == nil {
				err = errors.New("timed out")
			}
			return nil, nil, 0, fmt.Errorf("waiting for the first train step: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	rec.span(spanFirstTrain, 0, 0, 0, t3)
	return s, grid, time.Duration(rec.firstTrain.Load() - t0), nil
}

// probeSetup measures one set-up and stops the session again.
func probeSetup(w workload, seed int64) (time.Duration, error) {
	rec := newRecorder(false)
	s, _, setup, err := setupSession(w, seed, time.Second, rec)
	if err != nil {
		return 0, err
	}
	rec.stopSignal()
	s.Stop()
	return setup, nil
}

// runSession sets up one session, measures it for window through
// Session.Wait while the polling goroutine injects the kill, and
// stops it.
func runSession(w workload, seed int64, window time.Duration, traced bool) (*sessionRun, error) {
	rec := newRecorder(traced)
	s, grid, setup, err := setupSession(w, seed, window, rec)
	if err != nil {
		return nil, err
	}
	run := &sessionRun{rec: rec, setup: setup, start: s.ChannelHealth()}
	run.poll = startPoller(s, grid, w, rec, window)
	tw := rec.now()
	s.Wait()
	rec.stopSignal()
	rec.span(spanWait, 0, 0, 0, tw)
	run.poll.halt()
	run.end = s.ChannelHealth()
	run.preStop = run.end
	if run.poll.killed {
		run.preStop = run.poll.preKill
	}
	ts := time.Now()
	tsr := rec.now()
	run.report = s.Stop()
	run.stop = time.Since(ts)
	rec.span(spanStop, 0, 0, 0, tsr)
	run.err = s.Err()
	return run, nil
}

// poller is the benchmark's one polling goroutine during the measured
// window: it injects the machine kill, polls Session.TakeoverStats to time
// the recovery, and, traced, samples Session.ChannelHealth.
type poller struct {
	s      *core.Session
	grid   *fabric.Grid
	w      workload
	rec    *recorder
	killAt int64 // ns on the recorder's clock; 0 = no kill

	quit chan struct{}
	wg   sync.WaitGroup

	// Written by the goroutine, read after halt.
	killed         bool
	preKill        broker.ClusterHealth
	killedAt       int64
	verdictAt      int64
	lastTakeoverAt int64
	takeovers      int64
	// Traced gauges: broadcaster ID-queue depth and live store objects
	// over time (seconds into the window), and the deepest header queue.
	sampleT     []float64
	backlog     []float64
	liveObjects []float64
	maxHeaderQ  int
}

func startPoller(s *core.Session, grid *fabric.Grid, w workload, rec *recorder, window time.Duration) *poller {
	p := &poller{s: s, grid: grid, w: w, rec: rec, quit: make(chan struct{})}
	if w.kill > 0 && grid != nil {
		p.killAt = rec.firstTrain.Load() + int64(float64(window)*killAt)
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// halt stops the goroutine and waits for it.
func (p *poller) halt() {
	close(p.quit)
	p.wg.Wait()
}

func (p *poller) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var nextHealth int64
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		now := p.rec.now()
		if p.killAt > 0 && !p.killed && now >= p.killAt {
			p.preKill = p.s.ChannelHealth()
			p.killedAt = p.rec.now()
			p.grid.Kill(p.w.kill)
			p.killed = true
			p.rec.span(spanKill, 0, 0, 0, p.killedAt)
		}
		if p.killed {
			p.observeTakeovers()
		}
		if p.rec.tr != nil && now >= nextHealth {
			nextHealth = now + int64(healthEvery)
			p.sampleHealth(now)
		}
	}
}

// observeTakeovers times the verdict and each takeover, and re-arms the
// recovery probe: recovery is the first train step after the last
// takeover seen.
func (p *poller) observeTakeovers() {
	verdicts, byFrag := p.s.TakeoverStats()
	now := p.rec.now()
	if verdicts > 0 && p.verdictAt == 0 {
		p.verdictAt = now
	}
	var sum int64
	for _, n := range byFrag {
		sum += n
	}
	if sum > p.takeovers {
		p.takeovers = sum
		p.lastTakeoverAt = now
		p.rec.recovered.Store(0)
		p.rec.recoverArm.Store(now)
	}
}

func (p *poller) sampleHealth(now int64) {
	h := p.s.ChannelHealth()
	var live float64
	var backlog int
	for _, b := range h.Brokers {
		live += float64(b.Store.Objects)
		if b.HeaderQueueDepth > p.maxHeaderQ {
			p.maxHeaderQ = b.HeaderQueueDepth
		}
		if d, ok := b.IDQueueDepths[core.BroadcastName]; ok {
			backlog += d
		}
	}
	t := float64(now-p.rec.firstTrain.Load()) / 1e9
	p.sampleT = append(p.sampleT, t)
	p.backlog = append(p.backlog, float64(backlog))
	p.liveObjects = append(p.liveObjects, live)
}
