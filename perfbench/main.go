// Command perfbench is the repository's benchmark: it runs one named
// workload for a given seed, measures host time (how fast the simulator
// and its job server run) while checking that simulated outputs are
// unchanged, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload apps-serial --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones of BENCHMARK.json, measured with no
// tracing at all; with --trace 1 they are the per-layer ones, from a
// separate traced run that also reports its own overhead. Lines before
// it give the run context and the workload-specific detail metrics.
// See perfbench/README.md for every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the declared metrics for the
// final line, plus detail metrics and notes printed before it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	detail            map[string]metric
	notes             []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)       { r.metrics[name] = metric{v, unit} }
func (r *report) setDetail(name string, v float64, unit string) { r.detail[name] = metric{v, unit} }

// config is one invocation.
type config struct {
	workload    string
	seed        uint64
	seconds     int
	trace       bool
	scale       scale
	root        string // checkout root: the benchmark's files live in root/perfbench
	writeGolden bool
}

var workloads = map[string]func(config) (*report, error){
	"apps-serial": runAppsSerial,
	"beff-bulk":   runBeffBulk,
	"simd-open":   runSimdOpen,
}

func main() {
	cfg := config{root: "."}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: apps-serial, beff-bulk or simd-open")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = separate traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.writeGolden, "write-golden", false, "record this run's digests as the golden ones for its seed")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fail("usage: --workload apps-serial|beff-bulk|simd-open --seed N --seconds S --trace 0|1")
	}
	if _, err := os.Stat(goldenPath(cfg)); err != nil {
		fail("run from the checkout root: %v", err)
	}

	rep, err := measure(cfg)
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	// The context is gathered after the run, so reading the sources for
	// the tree digest does not count as set-up.
	ctx := newRunContext(cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.root)
	if b, err := json.Marshal(ctx); err == nil {
		fmt.Printf("context: %s\n", b)
	}
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	printMetrics("detail", rep.detail)
	printMetrics("metric", rep.metrics)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// measure runs the configured workload and adds the process-wide
// figures: peak memory and the error rate.
func measure(cfg config) (*report, error) {
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	if cfg.trace {
		rep.setDetail("peak_rss_mb", rss, "MiB")
	} else {
		rep.set("peak_rss_mb", rss, "MiB")
	}
	if rep.attempted > 0 {
		rep.setDetail("error_rate", float64(rep.failed)/float64(rep.attempted), "fraction")
	}
	return rep, nil
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s: %-36s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupTime is a workload's set-up time: the median of its set-ups, and
// the reference loop's times taken right after each, outside the timing,
// so that it is scaled by the host's speed while it set up.
type setupTime struct {
	s    float64
	refs []float64
}

func (st setupTime) scaled() float64 { return st.s * hostScale(st.refs) }

// timedSetups runs setup n times, the first timed from process start,
// and times ref three times after each.
func timedSetups(n int, ref func() float64, setup func() error) (setupTime, error) {
	var st setupTime
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return st, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		st.refs = append(st.refs, ref(), ref(), ref())
	}
	st.s = median(ds)
	return st, nil
}

// spansPath is where a traced run leaves its spans.
func spansPath(cfg config) string {
	return fmt.Sprintf("%s/.bench_build/perfbench/spans-%s-%d.json", cfg.root, cfg.workload, cfg.seed)
}
