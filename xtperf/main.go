// Command xtperf is the repository's end-to-end benchmark. It runs one
// workload through core.NewSession/Start/Wait/Stop for fixed wall-clock
// windows and observes the program only from outside: wrapped agents,
// algorithms and environments, polled Session.ChannelHealth and
// Session.TakeoverStats, Grid.Kill, and the final Report.
//
//	xtperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//	xtperf compare <result.json> <result.json>
//
// A run splits --seconds into sessionsPerRun windows. With --trace 0 it
// measures that many untraced sessions and reports the median of each
// end-to-end metric. With --trace 1 it measures one untraced and one
// traced session, replays payloads captured in the traced one through each
// layer, and reports the per-layer metrics and the tracing overhead. Each
// session runs in its own process, one at a time, so peak RSS is per
// session. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A full result with the
// host fingerprint is written under --out, and the traced run's spans next
// to it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

const (
	// sessionsPerRun is how many windows --seconds is split into.
	sessionsPerRun = 9
	// setupProbes is how many extra sessions each untraced session process
	// sets up and stops before its measured one, so setup_s is a median over
	// sessionsPerRun*(setupProbes+1) set-ups.
	setupProbes = 2
	// runTimeout bounds a whole run, session processes included.
	runTimeout = 170 * time.Second
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		os.Exit(compare(os.Args[2:], os.Stdout))
	case len(os.Args) > 1 && os.Args[1] == "session":
		err = sessionMain(os.Args[2:], os.Stdout)
	default:
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtperf:", err)
		os.Exit(1)
	}
}

// sessionResult is what one session process reports to its run.
type sessionResult struct {
	Seed       int64            `json:"seed"`
	Traced     bool             `json:"traced"`
	SetupsS    []float64        `json:"setups_s"`
	WindowS    float64          `json:"window_s"`
	StepsPerS  float64          `json:"train_steps_per_s"`
	AgeP50     float64          `json:"rollout_age_p50_ms"`
	AgeTail    float64          `json:"rollout_age_tail_ms"`
	AgeTailPct float64          `json:"rollout_age_tail_pct"`
	AgeN       int              `json:"rollout_age_samples"`
	LagMean    float64          `json:"policy_lag_mean"`
	PeakRSSMB  float64          `json:"peak_rss_mb"`
	RecoverMS  float64          `json:"recover_ms"`
	Unmatched  int64            `json:"unmatched_batches"`
	Duplicates int64            `json:"duplicate_batches"`
	InFlight   int64            `json:"batches_in_flight_at_stop"`
	StopAudit  int64            `json:"stop_audit_leaks"`
	Takeovers  map[string]int64 `json:"takeovers,omitempty"`
	Attempted  int64            `json:"attempted"`
	FailedOps  map[string]int64 `json:"failed_ops"`
	Checks     []string         `json:"failed_checks,omitempty"`
	SessionErr string           `json:"session_error,omitempty"`
	Layers     metrics          `json:"layers,omitempty"`
	SelfTimes  []selfTime       `json:"self_times,omitempty"`
	TraceFile  string           `json:"trace_file,omitempty"`
}

// sessionMain is the session process: it sets up and measures one session
// and prints its sessionResult as one JSON line.
func sessionMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xtperf session", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "session seed")
	window := fs.Duration("window", 8*time.Second, "measured window")
	traced := fs.Bool("traced", false, "record spans and replay layers")
	probes := fs.Int("probes", 0, "set-ups to measure before the session")
	out := fs.String("out", "", "directory for the trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	res := sessionResult{Seed: *seed, Traced: *traced}
	for i := 0; i < *probes; i++ {
		d, err := probeSetup(w, *seed)
		if err != nil {
			return fmt.Errorf("%s setup probe: %w", w.name, err)
		}
		res.SetupsS = append(res.SetupsS, d.Seconds())
	}
	r, err := runSession(w, *seed, *window, *traced)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res.SetupsS = append(res.SetupsS, r.setup.Seconds())
	res.WindowS = r.rec.window().Seconds()
	res.StepsPerS = stepsPerS(r)
	res.AgeP50, res.AgeTail, res.AgeTailPct, res.AgeN = ages(r)
	res.LagMean = lagMean(r)
	res.PeakRSSMB = peakRSSMB()
	res.RecoverMS = recoverMS(r)
	res.Unmatched, res.Duplicates, res.InFlight = r.rec.match.counts()
	if fr := r.report.Fragments; fr != nil {
		res.Takeovers = fr.TakeoverByFragment
	}
	res.Attempted = attempted(r)
	res.FailedOps = failedOps(w, r)
	res.StopAudit = stopAuditLeaks(r.report.Channel, w.killed())
	res.Checks = checkRun(r)
	if r.err != nil {
		res.SessionErr = r.err.Error()
	}
	if *traced {
		rp, err := replayLayers(&r.rec.captured)
		if err != nil {
			return err
		}
		res.Layers = layerMetrics(w, r, rp)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := r.rec.tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		res.SelfTimes = selfTimes(r, w.learners())
		res.TraceFile = path
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkRun verifies one session's outputs: it trained, and every batch an
// algorithm received is one an agent produced, so nothing was corrupted on
// the way, with enough of them for a tail percentile.
func checkRun(r *sessionRun) []string {
	var out []string
	if r.rec.trains.Load() == 0 {
		out = append(out, "no successful train step in the measured window")
	}
	if unmatched, _, _ := r.rec.match.counts(); unmatched > 0 {
		out = append(out, fmt.Sprintf("%d received batches match no produced batch", unmatched))
	}
	if _, _, pct, _ := ages(r); pct == 0 {
		out = append(out, "fewer than 20 rollout ages")
	}
	return out
}

// result is the full record of one run, written to --out.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     int              `json:"trace"`
	Host      host             `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	FailedOps map[string]int64 `json:"failed_ops"`
	Metrics   metrics          `json:"metrics"`
	Sessions  []sessionResult  `json:"sessions"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xtperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed; session seeds derive from it")
	seconds := fs.Int("seconds", 24, "measured time of the whole run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "xtperf"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds < sessionsPerRun || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= %d and --trace 0 or 1", sessionsPerRun)
	}
	window := time.Duration(*seconds) * time.Second / sessionsPerRun
	res := result{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: hostInfo(),
		FailedOps: map[string]int64{}}
	hj, _ := json.Marshal(res.Host) // strings and ints always encode
	fmt.Fprintf(stdout, "host: %s\n", hj)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	type plan struct {
		seed   int64
		traced bool
		probes int
	}
	var plans []plan
	if *trace == 0 {
		for i := 0; i < sessionsPerRun; i++ {
			plans = append(plans, plan{sessionSeed(*seed, i), false, setupProbes})
		}
	} else {
		// The same seed for both, so the overhead compares equal inputs.
		plans = []plan{{sessionSeed(*seed, 0), false, 0}, {sessionSeed(*seed, 0), true, 0}}
	}
	for _, p := range plans {
		sr, err := runSessionProcess(ctx, w, p.seed, window, p.traced, p.probes, *out)
		if err != nil {
			return err
		}
		res.Sessions = append(res.Sessions, sr)
	}

	correct := true
	for i, sr := range res.Sessions {
		for k, v := range sr.FailedOps {
			res.FailedOps[k] += v
		}
		res.Attempted += sr.Attempted
		fmt.Fprintf(stdout, "session %d seed=%d traced=%v window=%.3fs steps/s=%.1f age p50=%.3fms p%g=%.3fms (n=%d) lag=%.4f rss=%.1fMB recover=%.1fms in-flight=%d dup=%d stop-audit-leaks=%d takeovers=%v\n",
			i, sr.Seed, sr.Traced, sr.WindowS, sr.StepsPerS, sr.AgeP50, sr.AgeTailPct, sr.AgeTail, sr.AgeN,
			sr.LagMean, sr.PeakRSSMB, sr.RecoverMS, sr.InFlight, sr.Duplicates, sr.StopAudit, sr.Takeovers)
		if sr.SessionErr != "" {
			fmt.Fprintf(stdout, "session %d error: %s\n", i, sr.SessionErr)
		}
		if sr.TraceFile != "" {
			fmt.Fprintf(stdout, "session %d spans: %s\n", i, sr.TraceFile)
		}
		if len(sr.SelfTimes) > 0 {
			fmt.Fprintf(stdout, "session %d self time per layer over the %.3fs window (s):\n", i, sr.WindowS)
			for _, st := range sr.SelfTimes {
				fmt.Fprintf(stdout, "  %-55s %s\n", st.Layer, fmtF(st.Seconds))
			}
		}
		for _, c := range sr.Checks {
			fmt.Fprintf(stdout, "session %d check failed: %s\n", i, c)
			correct = false
		}
	}
	res.Failed = total(res.FailedOps)
	failedShare := ratio(float64(res.Failed), float64(res.Attempted))
	if *trace == 0 {
		res.Metrics = endToEndMetrics(res.Sessions)
		other := sessionMetrics(res.Sessions, failedShare)
		fmt.Fprintln(stdout, "also measured, unbounded (see xtperf/README.md), median over sessions:")
		for _, n := range sortedKeys(other) {
			fmt.Fprintf(stdout, "  %-38s %s %s\n", n, fmtF(other[n].Value), other[n].Unit)
		}
	} else {
		base, traced := res.Sessions[0], res.Sessions[1]
		res.Metrics = traced.Layers
		for n, m := range sessionMetrics(res.Sessions[:1], failedShare) {
			res.Metrics[n] = m
		}
		res.Metrics.set("trace.overhead_steps_share", "share", ratio(base.StepsPerS-traced.StepsPerS, base.StepsPerS))
		res.Metrics.set("trace.overhead_age_p50_ms", "ms", traced.AgeP50-base.AgeP50)
	}
	for _, n := range sortedKeys(res.Metrics) {
		if v := res.Metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stdout, "check failed: metric %s is not finite\n", n)
			correct = false
		}
	}
	res.Correct = correct
	fmt.Fprintf(stdout, "failed_op_share %s (%d of %d operations)\n", fmtF(failedShare), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.FailedOps) {
		if v := res.FailedOps[k]; v != 0 {
			fmt.Fprintf(stdout, "failed op %-24s %d\n", k, v)
		}
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "metric %-40s %s %s\n", n, fmtF(res.Metrics[n].Value), res.Metrics[n].Unit)
	}
	if err := writeResult(*out, res); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}

// sessionSeed derives the i-th session's seed from the run's seed.
func sessionSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runSessionProcess runs one session in a child process of this binary and
// waits for it to exit.
func runSessionProcess(ctx context.Context, w workload, seed int64, window time.Duration, traced bool, probes int, out string) (sessionResult, error) {
	var sr sessionResult
	exe, err := os.Executable()
	if err != nil {
		return sr, err
	}
	cmd := exec.CommandContext(ctx, exe, "session", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--window", window.String(),
		"--traced="+strconv.FormatBool(traced), "--probes", strconv.Itoa(probes), "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sr, fmt.Errorf("session process (seed %d): %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &sr); err != nil {
		return sr, fmt.Errorf("session process (seed %d) output: %w", seed, err)
	}
	return sr, nil
}

// medianOf takes the median of one value over sessions.
func medianOf(sessions []sessionResult, get func(sessionResult) float64) float64 {
	xs := make([]float64, len(sessions))
	for i, s := range sessions {
		xs[i] = get(s)
	}
	return median(xs)
}

// endToEndMetrics are the bounded metrics: the median training throughput
// and median rollout age over the run's sessions, and the median over
// every set-up of the run.
func endToEndMetrics(sessions []sessionResult) metrics {
	var setups []float64
	for _, s := range sessions {
		setups = append(setups, s.SetupsS...)
	}
	m := metrics{}
	m.set("train_steps_per_s", "1/s", medianOf(sessions, func(s sessionResult) float64 { return s.StepsPerS }))
	m.set("rollout_age_p50_ms", "ms", medianOf(sessions, func(s sessionResult) float64 { return s.AgeP50 }))
	m.set("setup_s", "s", median(setups))
	return m
}

// sessionMetrics are the end-to-end metrics whose run-to-run spread on a
// 2-core host is wider than any bound the benchmark may set (see
// README.md), as medians over the given untraced sessions. A --trace 1 run reports
// them, unbounded, with the per-layer metrics.
func sessionMetrics(sessions []sessionResult, failedShare float64) metrics {
	m := metrics{}
	m.set("rollout_age_p99_ms", "ms", medianOf(sessions, func(s sessionResult) float64 { return s.AgeTail }))
	m.set("rollout_age_samples", "count", medianOf(sessions, func(s sessionResult) float64 { return float64(s.AgeN) }))
	m.set("policy_lag_mean", "versions", medianOf(sessions, func(s sessionResult) float64 { return s.LagMean }))
	m.set("peak_rss_mb", "MB", medianOf(sessions, func(s sessionResult) float64 { return s.PeakRSSMB }))
	m.set("recover_ms", "ms", medianOf(sessions, func(s sessionResult) float64 { return s.RecoverMS }))
	m.set("failed_op_share", "share", failedShare)
	return m
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func writeResult(dir string, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	return os.WriteFile(path, data, 0o644)
}
