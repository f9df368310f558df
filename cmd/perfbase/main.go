// Command perfbase measures and tracks the simulator's performance
// baseline, one benchmark per experiment of the paper.
//
// Each experiment is timed end-to-end in Quick mode (the same workload as
// `go test -bench`), recording ns/op and allocs/op. Alongside the timing,
// one instrumented run (with a metrics registry attached) counts the
// simulation events the experiment dispatches. A registry does not change
// the execution path, so this is the event stream of the timed runs,
// coalescing fast path included, and events_per_sec = dispatched events /
// wall time is the kernel's real dispatch throughput. It is independent
// of host speed but not of optimizations that shrink the dispatched
// stream. BENCH_4.json and BENCH_9.json were recorded when a registry
// selected the fabric's expanded model, so their sim_events count the
// expanded stream and their events_per_sec are not dispatch rates.
//
// Baselines form a trajectory: each optimization PR records a new
// BENCH_<n>.json next to the old ones, and compare mode diffs a fresh
// measurement against the newest file on disk, so the history of the
// simulator's throughput stays in the repo.
//
// Usage:
//
//	go run ./cmd/perfbase -write BENCH_9.json     # record a baseline
//	go run ./cmd/perfbase -compare BENCH_9.json   # exit 1 on >10% regression
//
// `make bench-baseline` and `make bench-compare` wrap the two modes and
// pick the BENCH_<n>.json names automatically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// regressionTolerance is the fractional ns/op slowdown allowed before
// compare mode fails. Quick-mode experiments run tens of milliseconds, so
// run-to-run noise sits well under this on an idle machine.
const regressionTolerance = 0.10

// Entry is one experiment's measured baseline. SimEvents and
// EventsPerSec are zero when the experiment performs no simulation
// (the cost-model tables) or does not thread a metrics registry to its
// machines (some ablations); ns/op and allocs/op are always measured.
// Fields of older baselines that are no longer recorded (BENCH_9's
// sharded_* timings) are ignored on read.
type Entry struct {
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Baseline is the on-disk format (BENCH_<n>.json). MaxProcs records
// GOMAXPROCS at measurement time.
type Baseline struct {
	GoVersion  string           `json:"go_version"`
	GOARCH     string           `json:"goarch"`
	MaxProcs   int              `json:"maxprocs,omitempty"`
	CreatedAt  string           `json:"created_at"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func measure(id string) (Entry, error) {
	e, err := experiments.Get(id)
	if err != nil {
		return Entry{}, err
	}
	// One instrumented run counts the dispatched events; the registry
	// leaves the execution path as in the timed runs below.
	reg := metrics.New()
	if _, err := e.Run(experiments.Options{Quick: true, Metrics: reg}); err != nil {
		return Entry{}, err
	}
	simEvents := reg.Counter("sim.events_dispatched").Value()

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(experiments.Options{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := res.NsPerOp()
	ent := Entry{
		NsPerOp:     ns,
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		SimEvents:   simEvents,
	}
	if ns > 0 {
		ent.EventsPerSec = float64(simEvents) / (float64(ns) / 1e9)
	}
	return ent, nil
}

func main() {
	write := flag.String("write", "", "measure all experiments and write a baseline JSON file")
	compare := flag.String("compare", "", "measure all experiments and compare against a baseline JSON file")
	exps := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	flag.Parse()
	if (*write == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "perfbase: exactly one of -write or -compare is required")
		os.Exit(2)
	}

	ids := experiments.IDs()
	if *exps != "" {
		ids = strings.Split(*exps, ",")
	}
	sort.Strings(ids)

	entries := make(map[string]Entry, len(ids))
	for _, id := range ids {
		ent, err := measure(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbase: %s: %v\n", id, err)
			os.Exit(1)
		}
		entries[id] = ent
		fmt.Printf("%-8s %12d ns/op %10d allocs/op %12d events %14.0f events/sec\n",
			id, ent.NsPerOp, ent.AllocsPerOp, ent.SimEvents, ent.EventsPerSec)
	}

	if *write != "" {
		b := Baseline{
			GoVersion:  runtime.Version(),
			GOARCH:     runtime.GOARCH,
			MaxProcs:   runtime.GOMAXPROCS(0),
			CreatedAt:  time.Now().UTC().Format(time.RFC3339),
			Benchmarks: entries,
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbase:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbase:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *write, len(entries))
		return
	}

	data, err := os.ReadFile(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbase:", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perfbase: %s: %v\n", *compare, err)
		os.Exit(1)
	}
	var regressions []string
	for _, id := range ids {
		old, ok := base.Benchmarks[id]
		if !ok {
			fmt.Printf("%-8s new benchmark (not in baseline)\n", id)
			continue
		}
		now := entries[id]
		delta := float64(now.NsPerOp-old.NsPerOp) / float64(old.NsPerOp)
		mark := ""
		if delta > regressionTolerance {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%)", id, old.NsPerOp, now.NsPerOp, delta*100))
		}
		fmt.Printf("%-8s %12d -> %12d ns/op  %+6.1f%%%s\n",
			id, old.NsPerOp, now.NsPerOp, delta*100, mark)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "perfbase: %d regression(s) beyond %.0f%%:\n",
			len(regressions), regressionTolerance*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Printf("no ns/op regressions beyond %.0f%% against %s\n",
		regressionTolerance*100, *compare)
}
