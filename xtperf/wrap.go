package main

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// recorder is what one session's wrappers report into. Untraced it keeps
// only the timestamps the end-to-end metrics need; with a tracer it also
// records a span per wrapped call.
type recorder struct {
	base  time.Time
	tr    *tracer // nil when untraced
	match *matcher

	// measuring is set by the first successful train step and cleared by
	// the stop signal; window metrics count only while it is set.
	measuring  atomic.Bool
	firstTrain atomic.Int64 // ns on the recorder's clock, 0 until then
	stopAt     atomic.Int64

	steps    atomic.Int64 // rollout steps consumed by successful trains
	trains   atomic.Int64
	badLoss  atomic.Int64 // trains whose loss was NaN or infinite
	lagSum   atomic.Int64
	lagN     atomic.Int64
	rollouts atomic.Int64 // batches returned by agents, whole run
	dense    atomic.Int64 // dense weight snapshots applied by agents
	delta    atomic.Int64 // weight deltas applied by agents

	// recoverArm is set when the poller observes a takeover; the next
	// successful train step at or after it is recorded in recovered.
	recoverArm atomic.Int64
	recovered  atomic.Int64

	agesMu sync.Mutex
	ages   []float64 // rollout ages in ms, measured window only

	captured capture
}

func newRecorder(traced bool) *recorder {
	r := &recorder{base: time.Now(), match: newMatcher()}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// now is the recorder's clock: monotonic ns since the recorder was built.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// stopSignal ends the measured window.
func (r *recorder) stopSignal() {
	r.stopAt.Store(r.now())
	r.measuring.Store(false)
}

// window is the measured interval, from the first train step to the stop
// signal.
func (r *recorder) window() time.Duration {
	return time.Duration(r.stopAt.Load() - r.firstTrain.Load())
}

func (r *recorder) produced(explorer int32, b *rollout.Batch, spanID uint64) {
	r.rollouts.Add(1)
	r.match.produced(keyOf(explorer, b), r.now(), spanID)
}

// span records a traced call of kind from start to now; untraced it does
// nothing.
func (r *recorder) span(kind spanKind, id, parent, link uint64, start int64) {
	if r.tr == nil {
		return
	}
	if id == 0 {
		id = r.tr.newID()
	}
	r.tr.record(span{kind: kind, id: id, parent: parent, link: link, start: start, end: r.now()},
		r.measuring.Load())
}

// capture keeps a few payloads from the traced run for the layer replay.
type capture struct {
	mu      sync.Mutex
	batches []*rollout.Batch
	weights []*message.WeightsPayload
	deltas  []*message.WeightsDeltaPayload
}

const captureKeep = 4

// clone deep-copies a body through the codec, so captured payloads are
// exactly what the channel carries and share no memory with the run.
func clone(body any) any {
	raw, err := serialize.Marshal(body)
	if err != nil {
		return nil
	}
	out, err := serialize.Unmarshal(raw)
	if err != nil {
		return nil
	}
	return out
}

func (c *capture) add(body any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch b := body.(type) {
	case *rollout.Batch:
		if len(c.batches) < captureKeep {
			if cp, ok := clone(b).(*rollout.Batch); ok {
				c.batches = append(c.batches, cp)
			}
		}
	case *message.WeightsPayload:
		if len(c.weights) < captureKeep {
			if cp, ok := clone(b).(*message.WeightsPayload); ok {
				c.weights = append(c.weights, cp)
			}
		}
	case *message.WeightsDeltaPayload:
		if len(c.deltas) < captureKeep {
			if cp, ok := clone(b).(*message.WeightsDeltaPayload); ok {
				c.deltas = append(c.deltas, cp)
			}
		}
	}
}

// rolloutCtx links env.Step spans to the Agent.Rollout span that drives
// them; the agent and its environment share it on the explorer's
// workhorse goroutine.
type rolloutCtx struct {
	span  uint64
	envNs int64
}

// timedEnv wraps the env.Env handed to the agent's runner.
type timedEnv struct {
	env.Env
	rec *recorder
	ctx *rolloutCtx
}

func (e *timedEnv) Step(action int) (env.Obs, float64, bool, error) {
	if e.rec.tr == nil {
		return e.Env.Step(action)
	}
	t0 := e.rec.now()
	obs, r, done, err := e.Env.Step(action)
	e.ctx.envNs += e.rec.now() - t0
	e.rec.span(spanEnvStep, 0, e.ctx.span, 0, t0)
	return obs, r, done, err
}

// agentWrap wraps a zoo agent. It forwards core.DeltaAgent: without it
// the weight plane would fall back to dense snapshots.
type agentWrap struct {
	inner core.Agent
	id    int32
	rec   *recorder
	ctx   *rolloutCtx
}

var (
	_ core.Agent      = (*agentWrap)(nil)
	_ core.DeltaAgent = (*agentWrap)(nil)
)

var errNoDelta = errors.New("xtperf: wrapped agent cannot apply weight deltas")

func (a *agentWrap) Rollout(n int) (*rollout.Batch, error) {
	rec := a.rec
	if rec.tr == nil {
		b, err := a.inner.Rollout(n)
		if err == nil {
			rec.produced(a.id, b, 0)
		}
		return b, err
	}
	*a.ctx = rolloutCtx{span: rec.tr.newID()}
	t0 := rec.now()
	b, err := a.inner.Rollout(n)
	measuring := rec.measuring.Load()
	if measuring {
		rec.tr.rolloutEnvNs.Add(a.ctx.envNs)
	}
	rec.span(spanRollout, a.ctx.span, 0, 0, t0)
	if err == nil {
		rec.produced(a.id, b, a.ctx.span)
		if measuring {
			rec.captured.add(b)
		}
	}
	return b, err
}

func (a *agentWrap) SetWeights(w *message.WeightsPayload) error {
	if a.rec.tr == nil {
		return a.count(&a.rec.dense, a.inner.SetWeights(w))
	}
	t0 := a.rec.now()
	err := a.count(&a.rec.dense, a.inner.SetWeights(w))
	a.rec.span(spanSetWeights, 0, 0, 0, t0)
	if a.rec.measuring.Load() {
		a.rec.captured.add(w)
	}
	return err
}

func (a *agentWrap) ApplyWeightsDelta(d *message.WeightsDeltaPayload) error {
	da, ok := a.inner.(core.DeltaAgent)
	if !ok {
		return errNoDelta
	}
	if a.rec.tr == nil {
		return a.count(&a.rec.delta, da.ApplyWeightsDelta(d))
	}
	t0 := a.rec.now()
	err := a.count(&a.rec.delta, da.ApplyWeightsDelta(d))
	a.rec.span(spanApplyDelta, 0, 0, 0, t0)
	if a.rec.measuring.Load() {
		a.rec.captured.add(d)
	}
	return err
}

// count adds one to n when a weight message was applied.
func (a *agentWrap) count(n *atomic.Int64, err error) error {
	if err == nil {
		n.Add(1)
	}
	return err
}

func (a *agentWrap) WeightsVersion() int64 { return a.inner.WeightsVersion() }
func (a *agentWrap) OnPolicy() bool        { return a.inner.OnPolicy() }

func (a *agentWrap) EpisodeStats() (int64, float64) { return a.inner.EpisodeStats() }

// algWrap wraps a zoo algorithm (one learner or learn replica). It
// forwards core.WeightsRestorer: without it replicas lose version pinning.
type algWrap struct {
	inner   core.Algorithm
	rec     *recorder
	lastVer atomic.Int64 // version last returned by Weights, -1 before
}

var (
	_ core.Algorithm       = (*algWrap)(nil)
	_ core.WeightsRestorer = (*algWrap)(nil)
)

var errNoRestore = errors.New("xtperf: wrapped algorithm cannot restore weights")

func newAlgWrap(inner core.Algorithm, rec *recorder) *algWrap {
	a := &algWrap{inner: inner, rec: rec}
	a.lastVer.Store(-1)
	return a
}

func (a *algWrap) Name() string { return a.inner.Name() }

func (a *algWrap) PrepareData(b *rollout.Batch) {
	rec := a.rec
	t0 := rec.now()
	s, matched := rec.match.received(keyOf(b.ExplorerID, b))
	if rec.measuring.Load() {
		if matched {
			rec.agesMu.Lock()
			rec.ages = append(rec.ages, float64(t0-s.at)/1e6)
			rec.agesMu.Unlock()
		}
		if v := a.lastVer.Load(); v >= 0 {
			rec.lagSum.Add(v - b.WeightsVersion)
			rec.lagN.Add(1)
		}
	}
	a.inner.PrepareData(b)
	if rec.tr != nil {
		rec.span(spanPrepare, 0, 0, s.span, t0)
	}
}

func (a *algWrap) TryTrain() (core.TrainResult, bool, error) {
	rec := a.rec
	var t0 int64
	if rec.tr != nil {
		t0 = rec.now()
	}
	res, ok, err := a.inner.TryTrain()
	if ok && err == nil {
		t := rec.now()
		if rec.firstTrain.Load() == 0 && rec.firstTrain.CompareAndSwap(0, t) {
			rec.measuring.Store(true)
		}
		if rec.measuring.Load() {
			rec.steps.Add(int64(res.StepsConsumed))
			rec.trains.Add(1)
		}
		if l := float64(res.Loss); math.IsNaN(l) || math.IsInf(l, 0) {
			rec.badLoss.Add(1)
		}
		if arm := rec.recoverArm.Load(); arm > 0 && t >= arm {
			rec.recovered.CompareAndSwap(0, t)
		}
	}
	if rec.tr != nil {
		kind := spanTrain
		if !ok {
			kind = spanTrainMiss
		}
		rec.span(kind, 0, 0, 0, t0)
	}
	return res, ok, err
}

func (a *algWrap) Weights() *message.WeightsPayload {
	var t0 int64
	if a.rec.tr != nil {
		t0 = a.rec.now()
	}
	w := a.inner.Weights()
	a.lastVer.Store(w.Version)
	if a.rec.tr != nil {
		a.rec.span(spanWeights, 0, 0, 0, t0)
	}
	return w
}

func (a *algWrap) RestoreWeights(version int64, data []float32) error {
	r, ok := a.inner.(core.WeightsRestorer)
	if !ok {
		return errNoRestore
	}
	var t0 int64
	if a.rec.tr != nil {
		t0 = a.rec.now()
	}
	err := r.RestoreWeights(version, data)
	if a.rec.tr != nil {
		a.rec.span(spanRestore, 0, 0, 0, t0)
	}
	return err
}
