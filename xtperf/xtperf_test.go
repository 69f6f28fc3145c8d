package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// testFactories builds wrapped factories for a workload with an untraced
// recorder.
func testFactories(t *testing.T, name string) (core.AlgorithmFactory, core.AgentFactory, *recorder) {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(false)
	algF, agF, err := w.factories(rec)
	if err != nil {
		t.Fatal(err)
	}
	return algF, agF, rec
}

// TestWrappersForwardDeltaAndRestore: the wrapped agent still applies
// weight deltas and the wrapped algorithm still restores a pinned version;
// otherwise the session would fall back to dense weights and replicas
// would lose version pinning.
func TestWrappersForwardDeltaAndRestore(t *testing.T) {
	for _, name := range []string{"impala-replicated-grid3", "dqn-cartpole-local"} {
		algF, agF, rec := testFactories(t, name)
		alg, err := algF(3)
		if err != nil {
			t.Fatal(err)
		}
		restorer, ok := alg.(core.WeightsRestorer)
		if !ok {
			t.Fatalf("%s: wrapped algorithm is not a core.WeightsRestorer", name)
		}
		w0 := alg.Weights()
		if err := restorer.RestoreWeights(7, w0.Data); err != nil {
			t.Fatalf("%s: RestoreWeights: %v", name, err)
		}
		if v := alg.Weights().Version; v != 7 {
			t.Fatalf("%s: version after RestoreWeights(7) = %d", name, v)
		}

		ag, err := agF(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		da, ok := ag.(core.DeltaAgent)
		if !ok {
			t.Fatalf("%s: wrapped agent is not a core.DeltaAgent", name)
		}
		if err := ag.SetWeights(&message.WeightsPayload{Version: 7, Data: w0.Data}); err != nil {
			t.Fatal(err)
		}
		next := append([]float32(nil), w0.Data...)
		for i := range next {
			next[i] += 0.01
		}
		d, err := serialize.EncodeDelta(w0.Data, next, 7, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := da.ApplyWeightsDelta(d); err != nil {
			t.Fatalf("%s: ApplyWeightsDelta: %v", name, err)
		}
		if v := ag.WeightsVersion(); v != 8 {
			t.Fatalf("%s: agent version after delta = %d, want 8", name, v)
		}
		if rec.dense.Load() != 1 || rec.delta.Load() != 1 {
			t.Fatalf("%s: counted dense=%d delta=%d, want 1 and 1", name, rec.dense.Load(), rec.delta.Load())
		}
	}
}

// TestMatcherAcrossSerialize: a batch pairs with its decoded copy; a
// second delivery is a duplicate and an altered batch is unmatched.
func TestMatcherAcrossSerialize(t *testing.T) {
	for _, name := range []string{"impala-frames-grid2", "dqn-cartpole-local"} {
		_, agF, rec := testFactories(t, name)
		ag, err := agF(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		var sentBatches []*rollout.Batch
		for i := 0; i < 3; i++ {
			b, err := ag.Rollout(20)
			if err != nil {
				t.Fatal(err)
			}
			sentBatches = append(sentBatches, b)
		}
		decode := func(b *rollout.Batch) *rollout.Batch {
			raw, err := serialize.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			out, err := serialize.Unmarshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			got := out.(*rollout.Batch)
			got.ExplorerID = 2 // stamped by the explorer after Rollout returns
			return got
		}
		for _, b := range sentBatches {
			if _, ok := rec.match.received(keyOf(2, decode(b))); !ok {
				t.Fatalf("%s: decoded batch did not match", name)
			}
		}
		if _, ok := rec.match.received(keyOf(2, decode(sentBatches[0]))); ok {
			t.Fatalf("%s: redelivered batch matched twice", name)
		}
		altered := decode(sentBatches[1])
		altered.Steps[0].Reward += 1
		if _, ok := rec.match.received(keyOf(2, altered)); ok {
			t.Fatalf("%s: altered batch matched", name)
		}
		unmatched, dups, inFlight := rec.match.counts()
		if unmatched != 1 || dups != 1 || inFlight != 0 {
			t.Fatalf("%s: unmatched=%d duplicates=%d inFlight=%d, want 1 1 0", name, unmatched, dups, inFlight)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		max  float64
		want float64
	}{
		{19, 99, 0}, {20, 99, 50}, {40, 99, 75}, {100, 99, 90}, {199, 99, 90},
		{200, 99, 95}, {999, 99, 95}, {1000, 99, 99}, {100000, 99, 99}, {10000, 100, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.max); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// TestBenchmarkJSONListsReportedMetrics: BENCHMARK.json names exactly the
// metrics each trace mode prints.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}

	fake := func(traced bool) *sessionRun {
		rec := newRecorder(traced)
		rec.firstTrain.Store(1)
		rec.stopAt.Store(int64(time.Second))
		return &sessionRun{rec: rec, report: &core.Report{Duration: time.Second}, poll: &poller{}}
	}
	check := func(what string, listed []struct{ Name, Unit string }, got metrics) {
		var ln []string
		for _, m := range listed {
			ln = append(ln, m.Name)
			if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
			}
		}
		sameSet(t, what, ln, sortedKeys(got))
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics([]sessionResult{{SetupsS: []float64{1}}}))
	w, _ := lookup("machine-kill-grid3")
	layers := layerMetrics(w, fake(true), replayResult{})
	for n, m := range sessionMetrics([]sessionResult{{}}, 0) {
		layers[n] = m
	}
	layers.set("trace.overhead_steps_share", "share", 0) // added by the run from two sessions
	layers.set("trace.overhead_age_p50_ms", "ms", 0)
	check("per_layer", spec.PerLayer, layers)
}

// TestLeakFailsOnlyIfLiveAfterStop: an object the stop audit counted but a
// receiver released before Session.Stop returned is no failed operation;
// one still live in the final Report is.
func TestLeakFailsOnlyIfLiveAfterStop(t *testing.T) {
	w, _ := lookup("impala-frames-grid2")
	for _, tc := range []struct{ audit, live, want int64 }{{2, 0, 0}, {2, 1, 1}} {
		b := broker.MetricsSnapshot{LeakedAtStop: tc.audit}
		b.Store.Objects = int(tc.live)
		run := &sessionRun{rec: newRecorder(false), poll: &poller{},
			report: &core.Report{Channel: broker.ClusterHealth{Brokers: []broker.MetricsSnapshot{b}}}}
		if got := failedOps(w, run)["live_after_stop"]; got != tc.want {
			t.Errorf("audit %d, live %d: live_after_stop = %d, want %d", tc.audit, tc.live, got, tc.want)
		}
		if got := stopAuditLeaks(run.report.Channel, w.killed()); got != tc.audit {
			t.Errorf("stop audit = %d, want %d", got, tc.audit)
		}
	}
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Fatalf("%s: %v vs %v", what, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: %v vs %v", what, a, b)
		}
	}
}

func TestComparableRefusesOtherHost(t *testing.T) {
	a := result{Workload: "dqn-cartpole-local", Seconds: 30, Host: hostInfo()}
	if err := comparable(a, a); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b := a
	b.Host.NProc++
	if comparable(a, b) == nil {
		t.Fatal("results from different host fingerprints were compared")
	}
}
