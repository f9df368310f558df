package fault

// Error-path tests for the hardened spec grammar: positioned diagnostics,
// did-you-mean hints, until= windows, and the canonical Plan.Spec()
// rendering the campaign engine round-trips reproducers through.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

func TestParseErrorPositions(t *testing.T) {
	clos := twoLevel(t)
	cases := []struct {
		spec   string
		clause int
		col    int
		msg    string // substring of Msg
		hint   string // substring of Hint; "" means no hint required
	}{
		{"los:all:p=0.5", 1, 1, "unknown kind", `"loss"`},
		{"down:all;lose:all", 2, 10, "unknown kind", `"loss"`},
		{"down:all; loss:spin(0)", 2, 16, "unknown selector", `"spine"`},
		{"loss:all:p=1.5", 1, 10, "not in [0,1]", ""},
		{"loss:all:p=half", 1, 10, "not a number", ""},
		{"degrade:all:bw=1.5", 1, 13, "not in (0,1]", ""},
		{"down:all:at10us", 1, 10, "not key=value", `"at=10us"`},
		{"down:all:att=10us", 1, 10, "unknown parameter", `"at"`},
		{"down:spine(0):at=10us;down:all:for=-1us", 2, 32, "negative durations", ""},
		{"loss:all:p=NaN", 1, 10, "not in [0,1]", ""},
		{"degrade:all:bw=NaN", 1, 13, "not in (0,1]", ""},
		{"down:all:at=NaNus", 1, 10, "want a finite duration", ""},
		{"down:all:for=1e30s", 1, 10, "want a finite duration", ""},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			_, err := Compile(c.spec, clos)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded", c.spec)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError: %v", err, err)
			}
			if pe.Clause != c.clause || pe.Col != c.col {
				t.Fatalf("error at clause %d col %d, want clause %d col %d (%v)",
					pe.Clause, pe.Col, c.clause, c.col, err)
			}
			if !strings.Contains(pe.Msg, c.msg) {
				t.Fatalf("Msg %q does not mention %q", pe.Msg, c.msg)
			}
			if c.hint != "" && !strings.Contains(pe.Hint, c.hint) {
				t.Fatalf("Hint %q does not suggest %s (err: %v)", pe.Hint, c.hint, err)
			}
		})
	}
}

func TestUntilParam(t *testing.T) {
	clos := twoLevel(t)

	p, err := Compile("down:all:at=10us:until=15us", clos)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.Events[0]; e.At != 10*units.Time(units.Microsecond) || e.For != 5*units.Microsecond {
		t.Fatalf("window = [%v,+%v), want [10us,+5us)", e.At, e.For)
	}

	// until= with the default at=0 is an absolute end.
	p, err = Compile("loss:all:until=5us:p=0.5", clos)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.Events[0]; e.At != 0 || e.For != 5*units.Microsecond {
		t.Fatalf("window = [%v,+%v), want [0,+5us)", e.At, e.For)
	}

	for spec, want := range map[string]string{
		"down:all:until=5us:at=10us": "reversed window",
		"down:all:at=5us:until=5us":  "reversed window",
		"down:all:for=1us:until=5us": "over-determined",
	} {
		if _, err := Compile(spec, clos); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Compile(%q) = %v, want %q", spec, err, want)
		}
	}
}

// TestSpecRoundtrip: every storm plan canonicalizes to an explicit clause
// spec that compiles back to the identical plan — the property that lets
// the campaign engine compose, mutate, and shrink storm scenarios.
func TestSpecRoundtrip(t *testing.T) {
	clos := twoLevel(t)
	for seed := uint64(1); seed <= 16; seed++ {
		p := Random(seed, clos)
		spec := p.Spec()
		p2, err := Compile(spec, clos)
		if err != nil {
			t.Fatalf("seed %d: Compile(Spec()) failed: %v\nspec: %s", seed, err, spec)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("seed %d: roundtrip mismatch\nspec: %s\n got: %+v\nwant: %+v", seed, spec, p2, p)
		}
	}

	// lat= adds latency whatever the clause kind, so the canonical
	// rendering keeps it on loss and down clauses too.
	p, err := Compile("loss:inj(0):p=0.5:lat=1us;down:ej(1):for=2us:lat=3ns", clos)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(p.Spec(), clos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("roundtrip dropped a fault\nspec: %s\n got: %+v\nwant: %+v", p.Spec(), p2, p)
	}
}

func TestPlanIntrospection(t *testing.T) {
	clos := twoLevel(t)

	edge, err := Compile("loss:inj(0):p=0.5:at=10us:for=5us;down:ej(3):for=1us", clos)
	if err != nil {
		t.Fatal(err)
	}
	if !edge.EdgeOnly(clos) {
		t.Fatal("inj/ej plan should be EdgeOnly")
	}
	if !edge.HasLossOrDown() {
		t.Fatal("loss+down plan should report HasLossOrDown")
	}

	spine, err := Compile("degrade:spine(0):bw=0.5", clos)
	if err != nil {
		t.Fatal(err)
	}
	if spine.EdgeOnly(clos) {
		t.Fatal("spine plan is not EdgeOnly")
	}
	if spine.HasLossOrDown() {
		t.Fatal("pure derating cannot lose chunks")
	}

	us := func(n int64) units.Time { return units.Time(n) * units.Time(units.Microsecond) }
	link := clos.Injection(0)
	if !edge.AllowsLossAt(link, us(10)) || !edge.AllowsLossAt(link, us(14)) {
		t.Fatal("loss window [10us,15us) must cover its interior")
	}
	if edge.AllowsLossAt(link, us(15)) || edge.AllowsLossAt(link, us(9)) {
		t.Fatal("loss window [10us,15us) is half-open")
	}
	if edge.AllowsStallAt(link, us(12)) {
		t.Fatal("a loss window is not a down window: stalls not allowed")
	}
	if !edge.AllowsStallAt(clos.Ejection(3), 0) {
		t.Fatal("down window [0,1us) must allow stalls at 0")
	}

	cl := edge.Clone()
	cl.Events[0].At = us(99)
	cl.Seed = 77
	if edge.Events[0].At == us(99) || edge.Seed == 77 {
		t.Fatal("Clone must not share state with the original")
	}
}

// FuzzCompile drives arbitrary strings through the spec grammar. An
// accepted spec must canonicalize to a fixed point: its Spec() compiles
// again and renders the same string. A rejected one must fail with a
// *ParseError, and nothing may panic.
func FuzzCompile(f *testing.F) {
	for _, s := range []string{
		"los:all:p=0.5",
		"down:all;lose:all",
		"down:all; loss:spin(0)",
		"loss:all:p=1.5",
		"loss:all:p=half",
		"degrade:all:bw=1.5",
		"down:all:at10us",
		"down:all:att=10us",
		"down:spine(0):at=10us;down:all:for=-1us",
		"down:all:at=10us:until=15us",
		"loss:all:until=5us:p=0.5",
		"down:all:until=5us:at=10us",
		"down:all:at=5us:until=5us",
		"down:all:for=1us:until=5us",
		"loss:inj(0):p=0.5:at=10us:for=5us;down:ej(3):for=1us",
		"degrade:spine(0):bw=0.5",
		"storm:7",
	} {
		f.Add(s)
	}
	clos, err := topology.NewClos(8, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Compile(spec, clos)
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("Compile(%q) error %T is not a *ParseError: %v", spec, err, err)
			}
			return
		}
		canon := p.Spec()
		p2, err := Compile(canon, clos)
		if err != nil {
			t.Fatalf("Compile(%q) accepted, but its Spec() %q does not compile: %v", spec, canon, err)
		}
		if again := p2.Spec(); again != canon {
			t.Fatalf("Compile(%q): Spec() is not a fixed point\nfirst:  %s\nsecond: %s", spec, canon, again)
		}
	})
}
