package fault

// The -faults spec language. A spec is either a storm seed or a
// semicolon-separated list of clauses:
//
//	spec    := "storm:" seed | seed | clause (";" clause)*
//	clause  := kind ":" selector (":" param)*
//	kind    := "down" | "loss" | "degrade"
//	selector:= "all" | "spine(s)" | "inj(n)" | "ej(n)"
//	         | "up(l,s)" | "down(s,l)" | "link(k)"
//	param   := "at=" dur | "for=" dur | "until=" dur | "p=" float
//	         | "bw=" float | "lat=" dur | "seed=" int
//	dur     := float ("ps"|"ns"|"us"|"ms"|"s")
//
// Examples:
//
//	loss:all:p=0.001                     every link loses 0.1% of chunks
//	down:spine(0):at=10us:for=200us      spine 0 offline for a window
//	degrade:inj(3):bw=0.5:lat=1us        node 3's injection link derated
//	storm:2026                           randomized storm, seed 2026
//
// A bare integer is shorthand for storm:<integer>. Defaults: loss p=0.001,
// degrade bw=0.5, at=0, for=0 (rest of run). "until=" is the absolute-end
// alternative to "for=" (the window is [at, until)); giving both, or an
// until at or before at, is an error. A "seed=" param on any clause sets
// the plan seed feeding the per-link loss streams (default 1).
//
// Parse errors are *ParseError values carrying the clause number and the
// 1-based column of the offending token, plus a did-you-mean hint when a
// near-miss kind, selector, or parameter is recognizable — so a typo'd
// `-faults` flag points at itself rather than at the whole spec.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// ParseError is a positioned fault-spec diagnostic: which clause failed,
// the 1-based column of the offending token within the original spec, the
// token itself, what was wrong (including what the grammar accepts there),
// and — for recognizable typos — a did-you-mean hint.
type ParseError struct {
	Spec   string // the full original spec
	Clause int    // 1-based clause number; 0 for spec-level errors
	Col    int    // 1-based byte column of the offending token; 0 if unknown
	Token  string // the offending token
	Msg    string // the problem, phrased with what would be accepted
	Hint   string // optional near-miss suggestion, e.g. `"loss"`
}

func (e *ParseError) Error() string {
	var b strings.Builder
	b.WriteString("fault: ")
	if e.Clause > 0 {
		fmt.Fprintf(&b, "clause %d", e.Clause)
		if e.Col > 0 {
			fmt.Fprintf(&b, " (col %d)", e.Col)
		}
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	if e.Hint != "" {
		fmt.Fprintf(&b, " (did you mean %s?)", e.Hint)
	}
	return b.String()
}

// Compile parses a fault spec against a concrete topology and returns the
// plan it denotes. Selectors are resolved immediately, so an out-of-range
// selector (e.g. spine(3) on a 2-spine Clos) is a compile error. Errors
// are *ParseError values positioned at the offending token.
func Compile(spec string, clos *topology.Clos) (*Plan, error) {
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return nil, &ParseError{Spec: spec, Msg: "empty spec: want clauses like loss:all:p=0.001 or storm:<seed>"}
	}
	if seedStr, ok := strings.CutPrefix(trimmed, "storm:"); ok {
		seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
		if err != nil {
			return nil, &ParseError{Spec: spec, Token: seedStr,
				Msg: fmt.Sprintf("bad storm seed %q: want an unsigned integer", seedStr)}
		}
		return Random(seed, clos), nil
	}
	if seed, err := strconv.ParseUint(trimmed, 10, 64); err == nil {
		return Random(seed, clos), nil
	}
	p := &Plan{Seed: 1}
	ps := &parser{spec: spec, plan: p, clos: clos}
	off, num := 0, 0
	for _, raw := range strings.Split(spec, ";") {
		base := off + leadingSpace(raw)
		off += len(raw) + 1
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		num++
		if err := ps.parseClause(clause, num, base); err != nil {
			return nil, err
		}
	}
	if len(p.Events) == 0 {
		return nil, &ParseError{Spec: spec, Msg: fmt.Sprintf("spec %q selects no links", spec)}
	}
	return p, nil
}

func leadingSpace(s string) int {
	return len(s) - len(strings.TrimLeft(s, " \t"))
}

// parser carries the spec-wide parse state so every diagnostic can be
// positioned against the original string.
type parser struct {
	spec string
	plan *Plan
	clos *topology.Clos
}

// errf builds a positioned error. base is the 0-based byte offset of the
// offending token in the spec; hint is the optional did-you-mean text.
func (ps *parser) errf(clause, base int, token, hint, format string, args ...interface{}) *ParseError {
	return &ParseError{
		Spec:   ps.spec,
		Clause: clause,
		Col:    base + 1,
		Token:  token,
		Msg:    fmt.Sprintf(format, args...),
		Hint:   hint,
	}
}

var (
	kindNames  = []string{"down", "loss", "degrade"}
	selNames   = []string{"all", "spine", "inj", "ej", "up", "down", "link"}
	paramNames = []string{"at", "for", "until", "p", "bw", "lat", "seed"}
)

// parseClause parses one kind:selector(:param)* clause. num is the 1-based
// clause number, base the 0-based offset of its first byte in the spec.
func (ps *parser) parseClause(clause string, num, base int) error {
	parts := strings.Split(clause, ":")
	if len(parts) < 2 {
		return ps.errf(num, base, clause, "",
			"clause %q needs kind:selector (e.g. down:spine(0):at=10us:for=200us)", clause)
	}
	// Per-part offsets within the spec, so params point at themselves.
	offs := make([]int, len(parts))
	o := base
	for i, part := range parts {
		offs[i] = o + leadingSpace(part)
		o += len(part) + 1
	}

	kind := strings.TrimSpace(parts[0])
	var lf fabric.LinkFault
	switch kind {
	case "down":
		lf.Down = true
	case "loss":
		lf.LossProb = 0.001
	case "degrade":
		lf.BandwidthScale = 0.5
	default:
		return ps.errf(num, offs[0], kind, suggest(kind, kindNames),
			"unknown kind %q (want down|loss|degrade)", kind)
	}

	links, serr := ps.parseSelector(strings.TrimSpace(parts[1]), num, offs[1])
	if serr != nil {
		return serr
	}

	var (
		at                        units.Time
		dur                       units.Duration
		until                     units.Time
		pSet, bwSet               bool
		forSet, untilSet          bool
		forCol, untilCol, atToken = 0, 0, ""
	)
	for pi, param := range parts[2:] {
		pOff := offs[2+pi]
		param = strings.TrimSpace(param)
		key, val, ok := strings.Cut(param, "=")
		if !ok {
			hint := ""
			if k := suggestPrefix(param, paramNames); k != "" {
				hint = fmt.Sprintf("%q", k+"="+strings.TrimPrefix(param, k))
			}
			return ps.errf(num, pOff, param, hint,
				"parameter %q is not key=value (want at=|for=|until=|p=|bw=|lat=|seed=)", param)
		}
		switch key {
		case "at":
			t, err := parseDur(val)
			if err != nil {
				return ps.errf(num, pOff, val, "", "at=: %v", err)
			}
			at, atToken = units.Time(t), param
		case "for":
			d, err := parseDur(val)
			if err != nil {
				return ps.errf(num, pOff, val, "", "for=: %v", err)
			}
			dur, forSet, forCol = d, true, pOff
		case "until":
			t, err := parseDur(val)
			if err != nil {
				return ps.errf(num, pOff, val, "", "until=: %v", err)
			}
			until, untilSet, untilCol = units.Time(t), true, pOff
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ps.errf(num, pOff, val, "",
					"loss probability %q is not a number: want p in [0,1]", val)
			}
			if !(f >= 0 && f <= 1) { // NaN fails too
				return ps.errf(num, pOff, val, "",
					"loss probability %q not in [0,1]", val)
			}
			lf.LossProb, pSet = f, true
		case "bw":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ps.errf(num, pOff, val, "",
					"bandwidth scale %q is not a number: want bw in (0,1]", val)
			}
			if !(f > 0 && f <= 1) { // NaN fails too
				return ps.errf(num, pOff, val, "",
					"bandwidth scale %q not in (0,1]", val)
			}
			lf.BandwidthScale, bwSet = f, true
		case "lat":
			d, err := parseDur(val)
			if err != nil {
				return ps.errf(num, pOff, val, "", "lat=: %v", err)
			}
			lf.ExtraLatency = d
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return ps.errf(num, pOff, val, "",
					"bad seed %q: want an unsigned integer", val)
			}
			ps.plan.Seed = s
		default:
			return ps.errf(num, pOff, key, suggest(key, paramNames),
				"unknown parameter %q (want at=|for=|until=|p=|bw=|lat=|seed=)", key)
		}
	}
	if pSet && kind != "loss" {
		return ps.errf(num, offs[0], kind, "", "p= only applies to loss, not %s", kind)
	}
	if bwSet && kind != "degrade" {
		return ps.errf(num, offs[0], kind, "", "bw= only applies to degrade, not %s", kind)
	}
	if untilSet {
		if forSet {
			return ps.errf(num, max(forCol, untilCol), "until", "",
				"for= and until= both given: the window end is over-determined")
		}
		if until <= at {
			atDesc := "the default at=0"
			if atToken != "" {
				atDesc = atToken
			}
			return ps.errf(num, untilCol, "until", "",
				"reversed window: until=%v is not after its start (%s) — the window [at, until) would be empty",
				until, atDesc)
		}
		dur = until.Sub(at)
	}
	for _, l := range links {
		ps.plan.Events = append(ps.plan.Events, Event{Link: l, At: at, For: dur, Fault: lf})
	}
	return nil
}

// parseSelector resolves one selector to concrete link ids. base is the
// selector token's 0-based offset in the spec.
func (ps *parser) parseSelector(sel string, num, base int) ([]topology.LinkID, *ParseError) {
	clos := ps.clos
	if sel == "all" {
		out := make([]topology.LinkID, clos.NumLinks())
		for i := range out {
			out[i] = topology.LinkID(i)
		}
		return out, nil
	}
	fail := func(hint, format string, args ...interface{}) ([]topology.LinkID, *ParseError) {
		return nil, ps.errf(num, base, sel, hint, format, args...)
	}
	name, rest, ok := strings.Cut(sel, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return fail(suggest(sel, selNames),
			"unknown selector %q (want all|spine(s)|inj(n)|ej(n)|up(l,s)|down(s,l)|link(k))", sel)
	}
	var args []int
	for _, a := range strings.Split(strings.TrimSuffix(rest, ")"), ",") {
		v, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return fail("", "selector %q: bad index %q: want an integer", sel, a)
		}
		args = append(args, v)
	}
	want := func(n int) *ParseError {
		if len(args) != n {
			return ps.errf(num, base, sel, "",
				"selector %q: want %d index(es), got %d", sel, n, len(args))
		}
		return nil
	}
	switch name {
	case "inj":
		if err := want(1); err != nil {
			return nil, err
		}
		if args[0] < 0 || args[0] >= clos.Nodes {
			return fail("", "selector %q: node out of range [0,%d)", sel, clos.Nodes)
		}
		return []topology.LinkID{clos.Injection(args[0])}, nil
	case "ej":
		if err := want(1); err != nil {
			return nil, err
		}
		if args[0] < 0 || args[0] >= clos.Nodes {
			return fail("", "selector %q: node out of range [0,%d)", sel, clos.Nodes)
		}
		return []topology.LinkID{clos.Ejection(args[0])}, nil
	case "spine":
		if err := want(1); err != nil {
			return nil, err
		}
		if clos.Levels != 2 || args[0] < 0 || args[0] >= clos.Spines {
			return fail("", "selector %q: spine out of range (topology has %d)", sel, clos.Spines)
		}
		return clos.SpineLinks(args[0]), nil
	case "up":
		if err := want(2); err != nil {
			return nil, err
		}
		if clos.Levels != 2 || args[0] < 0 || args[0] >= clos.Leaves || args[1] < 0 || args[1] >= clos.Spines {
			return fail("", "selector %q: leaf/spine out of range (%d leaves, %d spines)",
				sel, clos.Leaves, clos.Spines)
		}
		return []topology.LinkID{clos.Up(args[0], args[1])}, nil
	case "down":
		if err := want(2); err != nil {
			return nil, err
		}
		if clos.Levels != 2 || args[0] < 0 || args[0] >= clos.Spines || args[1] < 0 || args[1] >= clos.Leaves {
			return fail("", "selector %q: spine/leaf out of range (%d spines, %d leaves)",
				sel, clos.Spines, clos.Leaves)
		}
		return []topology.LinkID{clos.Down(args[0], args[1])}, nil
	case "link":
		if err := want(1); err != nil {
			return nil, err
		}
		if args[0] < 0 || args[0] >= clos.NumLinks() {
			return fail("", "selector %q: link out of range [0,%d)", sel, clos.NumLinks())
		}
		return []topology.LinkID{topology.LinkID(args[0])}, nil
	default:
		return fail(suggest(name, selNames),
			"unknown selector %q (want all|spine(s)|inj(n)|ej(n)|up(l,s)|down(s,l)|link(k))", sel)
	}
}

// suggest returns a quoted near-miss candidate within edit distance 2 of
// got, or "" when nothing is close enough to be worth proposing.
func suggest(got string, cands []string) string {
	best, bestD := "", 3
	for _, c := range cands {
		if d := editDistance(got, c); d < bestD {
			best, bestD = c, d
		}
	}
	if best == "" || best == got {
		return ""
	}
	return fmt.Sprintf("%q", best)
}

// suggestPrefix returns the candidate got starts with (longest first), for
// diagnosing a missing "=" as in "at10us".
func suggestPrefix(got string, cands []string) string {
	best := ""
	for _, c := range cands {
		if strings.HasPrefix(got, c) && len(c) > len(best) {
			best = c
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short ASCII tokens.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parseDur parses "200us"-style durations (ps, ns, us, ms, s).
func parseDur(s string) (units.Duration, error) {
	unitOf := []struct {
		suffix string
		unit   units.Duration
	}{
		// Longest suffixes first so "ns" wins over "s".
		{"ps", units.Picosecond},
		{"ns", units.Nanosecond},
		{"us", units.Microsecond},
		{"ms", units.Millisecond},
		{"s", units.Second},
	}
	for _, u := range unitOf {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: want <number><unit> like 200us", s)
		}
		if f < 0 {
			return 0, fmt.Errorf("bad duration %q: negative durations are not allowed", s)
		}
		// NaN, infinities and anything past the int64 picosecond range
		// would convert to a garbage Duration.
		ps := f * float64(u.unit)
		if !(ps < math.MaxInt64) {
			return 0, fmt.Errorf("bad duration %q: want a finite duration below %v", s, units.Duration(math.MaxInt64))
		}
		return units.Duration(ps), nil
	}
	return 0, fmt.Errorf("duration %q needs a unit (ps|ns|us|ms|s)", s)
}

// Random generates the fixed-seed storm plan behind `-faults storm:N`: a
// deterministic function of (seed, topology) mixing bandwidth deratings,
// loss windows, and link-down windows across link classes. Severity is
// deliberately moderate — loss probabilities and down windows are sized so
// IB's RC recovery visibly retransmits but does not exhaust its retry
// budget — because `make chaos` runs storms across every experiment and
// asserts the suite still completes.
func Random(seed uint64, clos *topology.Clos) *Plan {
	r := rng.New(seed)
	p := &Plan{Seed: seed}
	nEvents := 6 + r.Intn(6)
	ms := func(lo, hi float64) units.Duration {
		return units.Duration((lo + (hi-lo)*r.Float64()) * float64(units.Millisecond))
	}
	for i := 0; i < nEvents; i++ {
		var link topology.LinkID
		// Bias toward spine links when the topology has them: that is
		// where route-around behaviour lives.
		if clos.Levels == 2 && r.Intn(2) == 0 {
			s := r.Intn(clos.Spines)
			l := r.Intn(clos.Leaves)
			if r.Intn(2) == 0 {
				link = clos.Up(l, s)
			} else {
				link = clos.Down(s, l)
			}
		} else {
			link = topology.LinkID(r.Intn(clos.NumLinks()))
		}
		ev := Event{Link: link, At: units.Time(ms(0, 40))}
		switch r.Intn(5) {
		case 0, 1: // derate
			ev.For = ms(1, 50)
			ev.Fault.BandwidthScale = 0.4 + 0.5*r.Float64()
			ev.Fault.ExtraLatency = units.Duration(r.Intn(2000)) * units.Nanosecond
		case 2, 3: // loss
			// Loss windows stay well inside the IB backoff ladder
			// (~10ms to the last retry): a window that outlasts the
			// ladder guarantees QP exhaustion for any message big enough
			// that one attempt rarely survives the window, since every
			// retry re-enters the same loss regime.
			ev.For = ms(0.5, 2.5)
			ev.Fault.LossProb = 0.0005 + 0.0015*r.Float64()
		default: // down window
			ev.For = ms(0.02, 0.2)
			ev.Fault.Down = true
		}
		p.Events = append(p.Events, ev)
	}
	return p
}
