package fault

// Plan introspection and canonical rendering: the campaign engine
// (internal/campaign) generates, mutates, and shrinks plans, and needs to
// (a) serialize any plan — including storm plans — to a spec string that
// Compile parses back into an equivalent plan, so reproducers are
// self-contained `-faults` flags; (b) query a plan structurally, e.g. "does
// a declared loss/down window on this link cover this instant?" for the
// fault-window-containment contract, or "does this plan only touch edge
// links?" to scope the monotonicity contract away from adaptive
// route-around effects.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/topology"
	"repro/internal/units"
)

// Kind reports the event's clause kind under the spec grammar: "down" for a
// down window, "loss" for a loss draw, "degrade" otherwise. Events mixing
// kinds (hand-constructed only — the parser and Random never do) report the
// most severe.
func (e *Event) Kind() string {
	switch {
	case e.Fault.Down:
		return "down"
	case e.Fault.LossProb > 0:
		return "loss"
	default:
		return "degrade"
	}
}

// Spec renders the plan as a canonical spec string Compile parses back into
// an equivalent plan: one link(k) clause per event in event order, exact
// picosecond durations, and seed= on the first clause when the seed is not
// the default 1. Storm plans therefore canonicalize to explicit clause
// lists, which — unlike "storm:N" — can be composed with further clauses
// and shrunk event by event.
func (p *Plan) Spec() string {
	var b strings.Builder
	for i := range p.Events {
		e := &p.Events[i]
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:link(%d)", e.Kind(), e.Link)
		if i == 0 && p.Seed != 1 {
			fmt.Fprintf(&b, ":seed=%d", p.Seed)
		}
		if e.At != 0 {
			fmt.Fprintf(&b, ":at=%dps", int64(e.At))
		}
		if e.For != 0 {
			fmt.Fprintf(&b, ":for=%dps", int64(e.For))
		}
		switch e.Kind() {
		case "loss":
			fmt.Fprintf(&b, ":p=%s", strconv.FormatFloat(e.Fault.LossProb, 'g', -1, 64))
		case "degrade":
			bw := e.Fault.BandwidthScale
			if bw == 0 {
				bw = 1 // unset scale is a no-op; bw= is mandatory on degrade
			}
			fmt.Fprintf(&b, ":bw=%s", strconv.FormatFloat(bw, 'g', -1, 64))
		}
		if e.Fault.ExtraLatency != 0 {
			fmt.Fprintf(&b, ":lat=%dps", int64(e.Fault.ExtraLatency))
		}
	}
	return b.String()
}

// Clone returns a deep copy of the plan, safe to mutate independently.
func (p *Plan) Clone() *Plan {
	out := &Plan{Seed: p.Seed}
	out.Events = append([]Event(nil), p.Events...)
	return out
}

// EdgeOnly reports whether every event touches only injection or ejection
// links — plans for which adaptive spine choice never sees a fault, so
// route-around cannot reorder relative completion times.
func (p *Plan) EdgeOnly(clos *topology.Clos) bool {
	edge := make([]bool, clos.NumLinks())
	for n := 0; n < clos.Nodes; n++ {
		edge[clos.Injection(n)] = true
		edge[clos.Ejection(n)] = true
	}
	for i := range p.Events {
		l := p.Events[i].Link
		if l < 0 || int(l) >= len(edge) || !edge[l] {
			return false
		}
	}
	return true
}

// HasLossOrDown reports whether any event can corrupt or kill chunks (a
// loss draw or a down window); pure deratings cannot.
func (p *Plan) HasLossOrDown() bool {
	for i := range p.Events {
		if p.Events[i].Fault.Down || p.Events[i].Fault.LossProb > 0 {
			return true
		}
	}
	return false
}

// AllowsLossAt reports whether a declared loss or down window on the link
// covers time t — the fault-window-containment check: every chunk the
// fabric reports lost must be attributable to such a window.
func (p *Plan) AllowsLossAt(link topology.LinkID, t units.Time) bool {
	for i := range p.Events {
		e := &p.Events[i]
		if e.Link == link && (e.Fault.Down || e.Fault.LossProb > 0) && e.activeAt(t) {
			return true
		}
	}
	return false
}

// AllowsStallAt reports whether a declared down window on the link covers
// time t — hardware-retry stall polls must be attributable to one.
func (p *Plan) AllowsStallAt(link topology.LinkID, t units.Time) bool {
	for i := range p.Events {
		e := &p.Events[i]
		if e.Link == link && e.Fault.Down && e.activeAt(t) {
			return true
		}
	}
	return false
}
