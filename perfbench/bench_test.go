package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
)

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 1, trace: trace, scale: tiny, root: ".."}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it emits exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep, err := measure(tinyConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d %v", name, trace, rep.attempted, rep.failed, rep.notes)
			}
			for m, unit := range want {
				got, ok := rep.metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m, got.Unit, unit)
				}
			}
			for m := range rep.metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", name, trace, m)
				}
			}
		}
	}
}

// TestWrongGoldenDigestRaisesErrorRate runs against a root whose golden
// file holds a wrong digest for the seed: every operation must then count
// as failed, and the note must name the counts that moved.
func TestWrongGoldenDigestRaisesErrorRate(t *testing.T) {
	cfg := tinyConfig("apps-serial", false)
	cfg.root = t.TempDir()
	if err := os.Mkdir(filepath.Join(cfg.root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	wrong := golden{"apps-serial.tiny": {"1": {Digest: "wrong", Counts: map[string]uint64{"mpi.msgs": 1}}}}
	if err := saveGolden(cfg, wrong); err != nil {
		t.Fatal(err)
	}
	rep, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != rep.attempted || rep.detail["error_rate"].Value != 1 {
		t.Fatalf("attempted %d failed %d error_rate %v", rep.attempted, rep.failed, rep.detail["error_rate"])
	}
	if !strings.Contains(strings.Join(rep.notes, "\n"), "mpi.msgs") {
		t.Fatalf("notes do not name the moved count: %v", rep.notes)
	}
}

// TestPassMustReproduceFirstPass feeds a closed-loop run a wrong record
// of its first pass: every simulation of the next pass must fail.
func TestPassMustReproduceFirstPass(t *testing.T) {
	pts := appsPoints(1, tiny)
	c := &closedRun{points: pts, first: make([]string, len(pts))}
	if ps := c.pass(nil, 0); ps.Failed != len(pts) {
		t.Fatalf("failed %d of %d", ps.Failed, len(pts))
	}
}

// TestHitChecksumMustMatchPrefill gives a hit a checksum other than the
// pre-fill's and a repeated miss one other than its first completion's.
func TestHitChecksumMustMatchPrefill(t *testing.T) {
	now := time.Now()
	s := &simdServer{hits: map[string]string{"fig1a": "good"}}
	miss := experiments.Spec{Experiment: "fig1b", Quick: true, Faults: "degrade:all:bw=0.9"}
	ph := &phase{start: now, reqs: []*request{
		{hit: true, spec: experiments.Spec{Experiment: "fig1a", Quick: true}, checksum: "good", missSeq: -1},
		{hit: true, spec: experiments.Spec{Experiment: "fig1a", Quick: true}, checksum: "bad", missSeq: -1},
		{spec: miss, checksum: "first", missSeq: 0},
		{spec: miss, checksum: "second", missSeq: -1},
	}}
	for _, r := range ph.reqs {
		r.sent, r.answered, r.done = now, now, now
	}
	if o := s.check([]*phase{ph}, nil, map[string]string{}); o.failed != 2 {
		t.Fatalf("failed %d, want 2: %v", o.failed, o.notes)
	}
}

// TestMissSpecsIgnorePhaseLength checks that the first misses, which
// the golden digest covers, are the same specs in a long run, a short run
// and a traced run's two halves.
func TestMissSpecsIgnorePhaseLength(t *testing.T) {
	catalog := []string{"table1", "fig1a"}
	firstMisses := func(ds ...time.Duration) []string {
		src, misses := rng.New(7), &missSpecs{src: rng.New(8)}
		var specs []string
		for _, d := range ds {
			for _, r := range simdSchedule(src, d, catalog, simdRate, misses) {
				if r.missSeq >= 0 && len(specs) < simdGoldenMiss {
					specs = append(specs, r.spec.Canonical())
				}
			}
		}
		return specs
	}
	long := firstMisses(25 * time.Second)
	for _, ds := range [][]time.Duration{{5 * time.Second}, {12500 * time.Millisecond, 12500 * time.Millisecond}} {
		if got := firstMisses(ds...); strings.Join(got, "|") != strings.Join(long, "|") {
			t.Fatalf("phases %v: first misses %v, want %v", ds, got, long)
		}
	}
}

// TestSegmentsKeepEveryRequest checks that cutting a schedule into
// segments keeps every request once, in order, with each duplicate beside
// its miss and every due time inside its segment.
func TestSegmentsKeepEveryRequest(t *testing.T) {
	reqs := simdSchedule(rng.New(3), 23*time.Second, []string{"table1"}, 4*simdRate, &missSpecs{src: rng.New(4)})
	want := append([]*request(nil), reqs...)
	var got []*request
	for _, seg := range segments(reqs) {
		for i, r := range seg {
			if r.due < 0 || r.due >= simdSegment+simdDupDelay {
				t.Fatalf("due %v outside its segment", r.due)
			}
			if r.dup && (i == 0 || seg[i-1].spec != r.spec) {
				t.Fatalf("duplicate %s cut from its miss", r.spec.Faults)
			}
		}
		got = append(got, seg...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d requests after cutting, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d moved", i)
		}
	}
}

// TestUncontendedFabricProbeCoalesces checks that the uncontended probe
// times the coalesced path: a 64-chunk message costs the same small
// number of events however many are sent, far fewer than its chunks.
func TestUncontendedFabricProbeCoalesces(t *testing.T) {
	_, few, err := fabricProbe(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, many, err := fabricProbe(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if few != many || few > 8 {
		t.Fatalf("events per 64-chunk send: %v with 10 sends, %v with 40", few, many)
	}
}
