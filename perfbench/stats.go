package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method), or NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every probe reports beside its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goSample is a snapshot of the Go runtime's allocation and GC CPU
// counters, taken before and after a measured stretch.
type goSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[3].Value.Float64()
	}
	return g
}

// goDelta turns two runtime snapshots into per-operation allocation
// figures and the share of CPU time the collector used between them.
func goDelta(a, b goSample, ops float64) (allocsPerOp, bytesPerOp, gcFrac float64) {
	if ops > 0 {
		allocsPerOp = float64(b.allocObjects-a.allocObjects) / ops
		bytesPerOp = float64(b.allocBytes-a.allocBytes) / ops
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return
}

// runContext is what an A/B comparison needs to tell whether two results
// came from the same host and build.
type runContext struct {
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	Finished   string `json:"finished"`
}

func newRunContext(workload string, seed uint64, seconds int, trace bool, root string) runContext {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return runContext{
		Commit:     commit(),
		TreeSHA256: treeDigest(root),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOGC:       gogc,
		Finished:   time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the build: BENCH_COMMIT when the caller knows it, else the
// VCS revision stamped into the binary, else "unknown" (a checkout without
// .git); tree_sha256 identifies the sources in every case.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// treeDigest hashes the Go sources and go.mod files under root, the
// benchmark's own included, so two results can be matched to identical
// code without git.
func treeDigest(root string) string {
	h := sha256.New()
	files, _ := filepath.Glob(root + "/*.go") // the pattern is well formed
	for _, dir := range []string{"internal", "cmd", "perfbench"} {
		files = append(files, goFiles(root+"/"+dir)...)
	}
	files = append(files, root+"/go.mod", root+"/perfbench/go.mod")
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", strings.TrimPrefix(f, root), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		p := dir + "/" + e.Name()
		if e.IsDir() {
			out = append(out, goFiles(p)...)
		} else if strings.HasSuffix(e.Name(), ".go") {
			out = append(out, p)
		}
	}
	return out
}
