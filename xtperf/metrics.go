package main

import (
	"math"
	"sort"
	"syscall"

	"xingtian/internal/broker"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// dropReasons names each broker.DropCounts field.
var dropReasons = []struct {
	name string
	get  func(broker.DropCounts) int64
}{
	{"unknown_destination", func(d broker.DropCounts) int64 { return d.UnknownDestination }},
	{"queue_closed", func(d broker.DropCounts) int64 { return d.QueueClosed }},
	{"no_remote", func(d broker.DropCounts) int64 { return d.NoRemote }},
	{"forward_error", func(d broker.DropCounts) int64 { return d.ForwardError }},
	{"recv_error", func(d broker.DropCounts) int64 { return d.RecvError }},
	{"store_miss", func(d broker.DropCounts) int64 { return d.StoreMiss }},
	{"shutdown_drained", func(d broker.DropCounts) int64 { return d.ShutdownDrained }},
	{"shed_oldest", func(d broker.DropCounts) int64 { return d.ShedOldest }},
	{"store_budget", func(d broker.DropCounts) int64 { return d.StoreBudget }},
	{"relay_expired", func(d broker.DropCounts) int64 { return d.RelayExpired }},
}

// drops sums one drop reason over brokers, skipping machine skip (-1 for
// none).
func drops(h broker.ClusterHealth, get func(broker.DropCounts) int64, skip int) int64 {
	var n int64
	for _, b := range h.Brokers {
		if b.MachineID != skip {
			n += get(b.Drops)
		}
	}
	return n
}

// brokerSum sums a broker counter over brokers, skipping machine skip.
func brokerSum(h broker.ClusterHealth, get func(broker.MetricsSnapshot) int64, skip int) int64 {
	var n int64
	for _, b := range h.Brokers {
		if b.MachineID != skip {
			n += get(b)
		}
	}
	return n
}

func wireSum(h broker.ClusterHealth, get func(broker.WireMetrics) int64) int64 {
	var n int64
	for _, w := range h.Wire {
		n += get(w)
	}
	return n
}

// privileged counts drops outside backpressure shedding: on a healthy run
// none may happen.
func privileged(d broker.DropCounts) int64 { return d.Total() - d.ShedOldest - d.StoreBudget }

// failedOps itemizes the failed operations of one session. Faults the
// benchmark injects itself (the machine kill) are excluded: drops toward
// the dead machine, its broker's leak audit at Kill, and one verdict,
// quarantine, respawn and takeover per dead fragment.
func failedOps(w workload, run *sessionRun) map[string]int64 {
	rep := run.report
	skip := w.killed()
	out := map[string]int64{
		"live_after_stop": liveAfterStop(rep.Channel, skip),
		"release_errors":  brokerSum(rep.Channel, func(b broker.MetricsSnapshot) int64 { return b.ReleaseErrors }, skip),
		"store_miss":      drops(rep.Channel, func(d broker.DropCounts) int64 { return d.StoreMiss }, skip),
		"recv_error":      drops(rep.Channel, func(d broker.DropCounts) int64 { return d.RecvError }, skip),
		"forward_error":   drops(run.preStop, func(d broker.DropCounts) int64 { return d.ForwardError }, -1),
		"privileged_drops": drops(run.preStop, privileged, -1) -
			drops(run.preStop, func(d broker.DropCounts) int64 { return d.ForwardError + d.RecvError + d.StoreMiss }, -1),
		"nonfinite_loss": run.rec.badLoss.Load(),
	}
	if run.err != nil {
		out["session_error"] = 1
	}
	if fr := rep.Fragments; fr != nil {
		dead := w.deadLearners()
		out["unfaulted_quarantines"] = max(0, fr.Quarantines-dead)
		out["unfaulted_respawns"] = max(0, fr.Respawns-dead)
		var verdicts int64
		if w.kill > 0 {
			verdicts = 1
			// Exactly one takeover per dead fragment, none elsewhere.
			want := map[string]bool{}
			for _, f := range w.deadFragments() {
				want[f] = true
				out["takeover_mismatch"] += abs(fr.TakeoverByFragment[f] - 1)
			}
			for f, n := range fr.TakeoverByFragment {
				if !want[f] {
					out["takeover_mismatch"] += n
				}
			}
		}
		out["verdict_mismatch"] = abs(fr.MachineVerdicts - verdicts)
	}
	if w.kill > 0 && recoverMS(run) == 0 {
		out["no_recovery"] = 1
	}
	if w.replicated && run.rec.delta.Load() == 0 {
		out["no_weight_delta"] = 1
	}
	return out
}

// liveAfterStop counts store objects still live in the final Report, taken
// after Session.Stop has joined every receiver: each one is a reference no
// holder will ever release.
func liveAfterStop(h broker.ClusterHealth, skip int) int64 {
	var n int64
	for _, b := range h.Brokers {
		if b.MachineID != skip {
			n += int64(b.Store.Objects)
		}
	}
	return n
}

// stopAuditLeaks is what Broker.Stop's own audit (LeakedAtStop) counted. It
// runs before Session.Stop joins the receivers, so it can count a reference
// a receiver releases a moment later (ROADMAP item 1).
func stopAuditLeaks(h broker.ClusterHealth, skip int) int64 {
	return brokerSum(h, func(b broker.MetricsSnapshot) int64 { return b.LeakedAtStop }, skip)
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func total(items map[string]int64) int64 {
	var n int64
	for _, v := range items {
		n += v
	}
	return n
}

// attempted counts the operations failures are a share of: rollouts
// generated plus weight messages applied by agents.
func attempted(run *sessionRun) int64 {
	return run.rec.rollouts.Load() + run.rec.dense.Load() + run.rec.delta.Load()
}

// ages returns the measured window's rollout ages and the tail percentile
// they support.
func ages(run *sessionRun) (p50, tail, tailPct float64, n int) {
	run.rec.agesMu.Lock()
	xs := append([]float64(nil), run.rec.ages...)
	run.rec.agesMu.Unlock()
	n = len(xs)
	tailPct = tailPercentile(n, 99)
	return percentile(xs, 50), percentile(xs, tailPct), tailPct, n
}

func stepsPerS(run *sessionRun) float64 {
	return float64(run.rec.steps.Load()) / run.rec.window().Seconds()
}

func lagMean(run *sessionRun) float64 {
	return ratio(float64(run.rec.lagSum.Load()), float64(run.rec.lagN.Load()))
}

// recoverMS is Grid.Kill to the first train step after the last takeover.
func recoverMS(run *sessionRun) float64 {
	r := run.rec.recovered.Load()
	if !run.poll.killed || r == 0 {
		return 0
	}
	return float64(r-run.poll.killedAt) / 1e6
}

// peakRSSMB is the process's resident high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerMetrics computes the --trace 1 metrics, except the tracing
// overhead, from the traced session and the layer replay.
func layerMetrics(w workload, run *sessionRun, rp replayResult) metrics {
	m := metrics{}
	tr := run.rec.tr
	win := run.rec.window().Seconds()
	learners := float64(w.learners())
	rep := run.report
	mean := func(k spanKind, scale float64) float64 {
		n, ns := tr.total(k)
		return ratio(float64(ns), float64(n)) / scale
	}
	nsOf := func(k spanKind) float64 { _, ns := tr.total(k); return float64(ns) }
	count := func(k spanKind) float64 { n, _ := tr.total(k); return float64(n) }

	m.set("env.step_us", "us", mean(spanEnvStep, 1e3))
	m.set("env.busy_share", "cores", nsOf(spanEnvStep)/1e9/win)

	m.set("algorithm.rollout_ms", "ms", mean(spanRollout, 1e6))
	m.set("algorithm.infer_self_share", "share",
		ratio(nsOf(spanRollout)-float64(tr.rolloutEnvNs.Load()), nsOf(spanRollout)))
	m.set("algorithm.train_ms", "ms", mean(spanTrain, 1e6))
	m.set("algorithm.train_busy_share", "share", nsOf(spanTrain)/1e9/(win*learners))
	m.set("algorithm.prepare_us", "us", mean(spanPrepare, 1e3))
	m.set("algorithm.try_miss_count", "count", count(spanTrainMiss))
	m.set("algorithm.snapshot_us", "us", mean(spanWeights, 1e3))
	applies := count(spanSetWeights) + count(spanApplyDelta)
	m.set("algorithm.apply_weights_us", "us", ratio(nsOf(spanSetWeights)+nsOf(spanApplyDelta), applies)/1e3)
	m.set("algorithm.apply_count", "count", applies)

	algNs := nsOf(spanPrepare) + nsOf(spanTrain) + nsOf(spanTrainMiss) + nsOf(spanWeights) + nsOf(spanRestore)
	m.set("core.learner_wait_share", "share", 1-algNs/1e9/(win*learners))
	var dispatched, staleDrops, aggregations, quarantines, respawns, redispatches, leases, resyncs float64
	if fr := rep.Fragments; fr != nil {
		dispatched, staleDrops, aggregations = float64(fr.Dispatched), float64(fr.StaleDrops), float64(fr.Aggregations)
		quarantines, respawns, redispatches = float64(fr.Quarantines), float64(fr.Respawns), float64(fr.Redispatches)
		leases, resyncs = float64(fr.LeaseRenewals), float64(fr.Plane.Resyncs)
	}
	m.set("core.dispatched", "count", dispatched)
	m.set("core.stale_drops", "count", staleDrops)
	m.set("core.aggregations", "count", aggregations)
	m.set("core.broadcaster_backlog_slope", "msgs/s", slope(run.poll.sampleT, run.poll.backlog))
	m.set("core.quarantines", "count", quarantines)
	m.set("core.respawns", "count", respawns)
	m.set("core.redispatches", "count", redispatches)
	var replaceMS, verdictMS float64
	if p := run.poll; p.killed && p.verdictAt > 0 {
		verdictMS = float64(p.verdictAt-p.killedAt) / 1e6
		if p.lastTakeoverAt > 0 {
			replaceMS = float64(p.lastTakeoverAt-p.verdictAt) / 1e6
		}
	}
	m.set("core.replace_ms", "ms", replaceMS)
	m.set("core.stop_ms", "ms", float64(run.stop)/1e6)

	m.set("serialize.marshal_us_per_mb", "us/MB", rp.marshalRollout)
	m.set("serialize.unmarshal_us_per_mb", "us/MB", rp.unmarshalRollout)
	m.set("serialize.weights_marshal_us_per_mb", "us/MB", rp.marshalWeights)
	m.set("serialize.weights_unmarshal_us_per_mb", "us/MB", rp.unmarshalWeights)

	m.set("objectstore.op_ns", "ns", rp.storeOpNs)
	m.set("objectstore.op_ns_nproc", "ns", rp.storeOpNsParallel)
	var peak int64
	for _, b := range rep.Channel.Brokers {
		peak = max(peak, b.Store.PeakLiveBytes)
	}
	m.set("objectstore.peak_bytes", "bytes", float64(peak))
	m.set("objectstore.live_objects_slope", "objects/s", slope(run.poll.sampleT, run.poll.liveObjects))
	m.set("objectstore.leaked_at_stop", "count", float64(rep.Channel.TotalLeaked()))

	rate := func(get func(broker.MetricsSnapshot) int64) float64 {
		return float64(brokerSum(run.end, get, -1)-brokerSum(run.start, get, -1)) / win
	}
	m.set("broker.routed_per_s", "1/s", rate(func(b broker.MetricsSnapshot) int64 { return b.HeadersRouted }))
	m.set("broker.bytes_in_per_s", "B/s", rate(func(b broker.MetricsSnapshot) int64 { return b.BytesIn }))
	m.set("broker.bytes_forwarded_per_s", "B/s", rate(func(b broker.MetricsSnapshot) int64 { return b.BytesForwarded }))
	var p50w, delivered, p99 float64
	for _, b := range run.end.Brokers {
		p50w += float64(b.Delivery.P50) * float64(b.Delivery.Count)
		delivered += float64(b.Delivery.Count)
		p99 = math.Max(p99, float64(b.Delivery.P99))
	}
	m.set("broker.delivery_p50_ms", "ms", ratio(p50w, delivered)/1e6)
	m.set("broker.delivery_p99_ms", "ms", p99/1e6)
	m.set("broker.header_queue_depth", "msgs", float64(run.poll.maxHeaderQ))
	m.set("broker.roundtrip_us", "us", rp.brokerRoundtripUS)
	for _, r := range dropReasons {
		m.set("broker.drops."+r.name, "count", float64(drops(rep.Channel, r.get, -1)))
	}
	m.set("broker.release_errors", "count",
		float64(brokerSum(rep.Channel, func(b broker.MetricsSnapshot) int64 { return b.ReleaseErrors }, -1)))

	wrate := func(get func(broker.WireMetrics) int64) float64 {
		return float64(wireSum(run.end, get)-wireSum(run.start, get)) / win
	}
	m.set("fabric.bytes_per_s", "B/s", wrate(func(w broker.WireMetrics) int64 { return w.BytesSent }))
	m.set("fabric.frames_per_s", "1/s", wrate(func(w broker.WireMetrics) int64 { return w.FramesSent }))
	m.set("fabric.credit_stalls", "count", float64(wireSum(rep.Channel, func(w broker.WireMetrics) int64 { return w.CreditStalls })))
	m.set("fabric.corrupt_frames", "count", float64(wireSum(rep.Channel, func(w broker.WireMetrics) int64 { return w.CorruptFrames })))
	m.set("fabric.reconnects", "count", float64(wireSum(rep.Channel, func(w broker.WireMetrics) int64 { return w.Reconnects })))
	m.set("fabric.roundtrip_us", "us", rp.fabricRoundtripUS)
	m.set("fabric.stream_mb_per_s", "MB/s", rp.fabricStreamMBps)
	m.set("fabric.lease_renewals_per_s", "1/s", leases/rep.Duration.Seconds())
	m.set("fabric.verdict_ms", "ms", verdictMS)

	dense, delta := float64(run.rec.dense.Load()), float64(run.rec.delta.Load())
	m.set("weightplane.dense", "count", dense)
	m.set("weightplane.delta", "count", delta)
	m.set("weightplane.resyncs", "count", resyncs)
	m.set("weightplane.delta_ratio", "share", ratio(delta, dense+delta))

	return m
}

// selfTime is one layer's self time in the traced window.
type selfTime struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
}

// selfTimes reports each layer's self time in the traced window: the part
// of its spans not covered by child spans. The learner's self time is its
// wall time outside algorithm calls, summed over learn replicas.
func selfTimes(run *sessionRun, learners int) []selfTime {
	tr := run.rec.tr
	ns := func(k spanKind) float64 { _, v := tr.total(k); return float64(v) / 1e9 }
	alg := ns(spanPrepare) + ns(spanTrain) + ns(spanTrainMiss) + ns(spanWeights) + ns(spanRestore)
	return []selfTime{
		{"env: Env.Step", ns(spanEnvStep)},
		{"algorithm: inference (Agent.Rollout minus Env.Step)", ns(spanRollout) - float64(tr.rolloutEnvNs.Load())/1e9},
		{"algorithm: SetWeights + ApplyWeightsDelta", ns(spanSetWeights) + ns(spanApplyDelta)},
		{"algorithm: PrepareData", ns(spanPrepare)},
		{"algorithm: TryTrain (trained)", ns(spanTrain)},
		{"algorithm: TryTrain (missed)", ns(spanTrainMiss)},
		{"algorithm: Weights + RestoreWeights", ns(spanWeights) + ns(spanRestore)},
		{"core: learner outside algorithm calls", run.rec.window().Seconds()*float64(learners) - alg},
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
