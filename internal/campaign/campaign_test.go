package campaign

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/units"
)

// canarySpec is the smuggled breach used by the self-tests: total loss on
// rank 0's injection link for a bounded window, installed on every machine
// but declared to no contract — every loss it causes is a BC-5 violation.
const canarySpec = "loss:link(0):p=1:at=5us:for=50us"

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 20)
	b := Generate(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed (seed, count)")
	}
	if prefix := Generate(7, 8); !reflect.DeepEqual(a[:8], prefix) {
		t.Fatal("Generate(seed, 8) is not a prefix of Generate(seed, 20)")
	}
	if c := Generate(8, 20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenario batches")
	}
}

// TestGenerateValid: every generated scenario is buildable — the topology
// exists and the fault spec compiles against it (and is explicit, never a
// storm shorthand, so it composes and shrinks).
func TestGenerateValid(t *testing.T) {
	for _, sc := range Generate(DefaultSeed, 64) {
		clos, err := sc.Clos()
		if err != nil {
			t.Fatalf("%s: topology: %v", sc.Name, err)
		}
		if strings.HasPrefix(sc.Faults, "storm:") {
			t.Fatalf("%s: generator emitted a storm shorthand: %q", sc.Name, sc.Faults)
		}
		if sc.Faults != "" {
			if _, err := fault.Compile(sc.Faults, clos); err != nil {
				t.Fatalf("%s: fault spec %q: %v", sc.Name, sc.Faults, err)
			}
		}
	}
}

func TestScenarioJSONRoundtrip(t *testing.T) {
	for _, sc := range Generate(3, 10) {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("JSON roundtrip mutated scenario:\n got: %+v\nwant: %+v", back, sc)
		}
		if sc.Canonical() != back.Canonical() {
			t.Fatalf("canonical encoding diverged after roundtrip")
		}
	}
}

// TestCampaignCleanAndJobsInvariance: on a clean tree a fixed-seed campaign
// finds zero violations, and the report digest is identical at any worker
// count (BC-10).
func TestCampaignCleanAndJobsInvariance(t *testing.T) {
	r1, err := Run(Config{Count: 8, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Violations) != 0 {
		t.Fatalf("clean tree produced %d violation(s); first: %s %s",
			len(r1.Violations), r1.Violations[0].Contract, r1.Violations[0].Detail)
	}
	r8, err := Run(Config{Count: 8, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r8.Digest {
		t.Fatalf("BC-10 jobs-invariance: digest at jobs=1 (%.12s) != jobs=8 (%.12s)", r1.Digest, r8.Digest)
	}
}

// TestObsDiff: BC-12's comparator reports every difference it is meant
// to catch between the coalesced and expanded legs, and none between
// equal legs.
func TestObsDiff(t *testing.T) {
	leg := func(edit func(*runOut)) runOut {
		o := runOut{digest: "d", obs: &observation{
			delivered: 3, deliveredBytes: 300, dropped: 1, droppedBytes: 10}}
		if edit != nil {
			edit(&o)
		}
		return o
	}
	a := leg(nil)
	if d := obsDiff(a, leg(nil)); d != "" {
		t.Fatalf("equal legs reported %q", d)
	}
	for _, c := range []struct {
		name string
		edit func(*runOut)
	}{
		{"failed", func(o *runOut) { o.runErr = fmt.Errorf("sim: event limit exceeded") }},
		{"digest", func(o *runOut) { o.digest = "e" }},
		{"delivered", func(o *runOut) { o.obs.deliveredBytes++ }},
		{"dropped", func(o *runOut) { o.obs.dropped++ }},
		{"contain", func(o *runOut) { o.obs.containViol = []string{"chunk lost on link 0"} }},
	} {
		if d := obsDiff(a, leg(c.edit)); d == "" {
			t.Errorf("%s: difference not reported", c.name)
		}
	}
}

// TestCampaignCanary: the end-to-end self-test the issue demands. A
// deliberately smuggled invariant breach (undeclared total loss on link 0)
// must be (1) found within a bounded budget, (2) shrunk to a reproducer
// that still violates, (3) deterministic — its replay reports no BC-8
// breach across the determinism legs — and (4) replayable from the corpus
// file the campaign wrote.
func TestCampaignCanary(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Count:        6,
		Jobs:         4,
		Smuggle:      canarySpec,
		CorpusDir:    dir,
		ShrinkBudget: 24,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("campaign failed to catch the smuggled breach")
	}
	var canary *Reproducer
	for i := range rep.Violations {
		if rep.Violations[i].Contract == "BC-5" {
			canary = &rep.Violations[i]
			break
		}
	}
	if canary == nil {
		t.Fatalf("no BC-5 fault-containment violation among %d caught", len(rep.Violations))
	}

	// (2) the shrunk reproducer still violates...
	replayCfg := Config{Smuggle: canarySpec}
	vs, err := Replay(canary, &replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("shrunk reproducer no longer violates BC-5; got %+v", vs)
	}
	// (3) ...deterministically: the check's own two runs found no
	// divergence.
	if hasContract(vs, "BC-8") {
		t.Fatal("reproducer replay is nondeterministic (BC-8)")
	}

	// (4) and replays from the corpus file with verified integrity.
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fromDisk *Reproducer
	for i := range corpus {
		if corpus[i].Checksum == canary.Checksum {
			fromDisk = &corpus[i]
			break
		}
	}
	if fromDisk == nil {
		t.Fatalf("canary reproducer not found in corpus dir (%d files)", len(corpus))
	}
	vs, err = Replay(fromDisk, &replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatal("corpus copy of the reproducer no longer violates BC-5")
	}
	// Without the smuggled fault the reproducer's scenario is clean — the
	// regression-gate semantics corpus replay relies on.
	vs, err = Replay(fromDisk, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("reproducer violates even without the smuggled fault: %+v", vs)
	}
}

// TestReproducerIntegrity: a tampered reproducer is refused (BC-11).
func TestReproducerIntegrity(t *testing.T) {
	sc := Generate(1, 1)[0]
	r := NewReproducer("BC-5", "detail", sc, []string{"step"})
	if err := r.Verify(); err != nil {
		t.Fatalf("fresh reproducer fails verification: %v", err)
	}
	tampered := r
	tampered.Detail = "rewritten"
	if err := tampered.Verify(); err == nil {
		t.Fatal("tampered reproducer passed verification")
	}
	if _, err := Replay(&tampered, &Config{}); err == nil {
		t.Fatal("Replay accepted a tampered reproducer")
	}
}

// legacyShardsReproducer was sealed by a build that still generated
// sharded-kernel legs: its scenario records "shards": 2, which the
// checksum covers. Scenarios no longer carry the field, so it decodes as
// a different (serial) scenario and must be refused rather than replayed.
const legacyShardsReproducer = `{
  "contract": "BC-8",
  "name": "determinism",
  "detail": "two identical sharded runs (shards=2) diverged",
  "scenario": {
    "name": "legacy",
    "network": "IB",
    "ranks": 4,
    "ppn": 1,
    "radix": 4,
    "workload": "pingpong",
    "size": 512,
    "iters": 3,
    "shards": 2
  },
  "lineage": [
    "ranks 8->4"
  ],
  "checksum": "a426267e1974d267ccfc4baed8604632ce3b7ba4cc41d3864073b478388756f9"
}`

func TestLegacyShardsReproducerRefused(t *testing.T) {
	var r Reproducer
	if err := json.Unmarshal([]byte(legacyShardsReproducer), &r); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Verify on a shards=2 reproducer: err = %v, want checksum mismatch", err)
	}
	if _, err := Replay(&r, &Config{}); err == nil {
		t.Fatal("Replay accepted a shards=2 reproducer")
	}
	// The same reproducer sealed without shards hashes exactly as it did
	// before the field was removed: Canonical is byte-stable.
	sealed := NewReproducer(r.Contract, r.Detail, r.Scenario, r.Lineage)
	if want := "a751da219a87926a273964a1af50fd1c78b5b8a5895db7e65e2a90f34b77b636"; sealed.Checksum != want {
		t.Fatalf("checksum of the shard-free scenario = %s, want the pre-removal %s", sealed.Checksum, want)
	}
}

// TestShrink: greedy minimization strips everything not needed to keep the
// violation alive — here the declared plan and most of the workload, since
// the smuggled loss alone breaks BC-5.
func TestShrink(t *testing.T) {
	cfg := Config{Smuggle: canarySpec, ShrinkBudget: 32}
	sc := Scenario{
		Name: "shrink-seed", Network: "IB", Ranks: 8, PPN: 2, Radix: 4,
		Workload: "stream", Size: 32 * units.KiB, Iters: 8,
		Faults: "degrade:all:bw=0.5",
	}
	vs, _, err := check(sc, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("seed scenario does not violate BC-5: %+v", vs)
	}
	min, lineage := shrink(sc, "BC-5", &cfg)
	if len(lineage) == 0 {
		t.Fatal("shrink accepted no step on an over-specified scenario")
	}
	if min.Faults != "" {
		t.Fatalf("the irrelevant declared plan survived shrinking: %q", min.Faults)
	}
	if min.Ranks > sc.Ranks || min.Iters > sc.Iters || min.Size > sc.Size {
		t.Fatalf("shrink grew the scenario: %+v", min)
	}
	vs, _, err = check(min, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("minimized scenario no longer violates BC-5: %+v", vs)
	}
}

// TestCampaignCorpus replays every checked-in reproducer: integrity
// verified, and zero violations on the current tree (the corpus is the
// permanent regression gate; entries record once-caught breaches whose
// causes are gone — e.g. the canary's smuggled fault, absent here).
func TestCampaignCorpus(t *testing.T) {
	corpus, err := LoadCorpus("../../corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("checked-in corpus is empty")
	}
	for i := range corpus {
		r := &corpus[i]
		t.Run(r.FileName(), func(t *testing.T) {
			vs, err := Replay(r, &Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 0 {
				t.Fatalf("reproducer regressed: %s %s: %s", vs[0].Contract, vs[0].Name, vs[0].Detail)
			}
		})
	}
}
