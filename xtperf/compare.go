package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare prints, for each metric two result files share, both values and
// their ratio. It refuses results measured under different host
// fingerprints or workloads: a regression is judged on one host only.
func compare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: xtperf compare <base result.json> <new result.json>")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xtperf compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "xtperf compare:", err)
		return 3
	}
	for _, n := range sortedKeys(rs[0].Metrics) {
		b, ok := rs[1].Metrics[n]
		if !ok {
			continue
		}
		a := rs[0].Metrics[n]
		fmt.Fprintf(stdout, "%-40s %12s %12s %8s %s\n", n, fmtF(a.Value), fmtF(b.Value),
			fmtF(ratio(b.Value, a.Value)), a.Unit)
	}
	return 0
}

// comparable reports why two results must not be compared, if they must
// not.
func comparable(a, b result) error {
	if a.Host != b.Host {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ: %s/trace%d/%ds vs %s/trace%d/%ds",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	return nil
}
