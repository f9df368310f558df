// Package fault is the deterministic fault-plan engine: it turns a
// declarative plan — which links degrade, lose chunks, or go down, and
// when — into ordinary simulation events driving the fabric's fault state
// (fabric.SetLinkFault).
//
// Everything is a pure function of the plan and its seed: fault windows
// are simulated-time events (never wall clock), loss draws come from
// per-link internal/rng streams seeded from the plan seed, and random
// storm plans (Random) are derived from (seed, topology) alone. The same
// plan on the same machine therefore produces bit-identical runs at any
// worker count — the property `make chaos` asserts suite-wide.
//
// Plans come from three places:
//
//   - literal construction (tests, experiments building targeted
//     scenarios such as "take spine 0 down for 200us");
//   - the spec language parsed by Compile (the `repro -faults` flag);
//   - Random, the fixed-seed storm generator behind `-faults storm:N`.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Event is one fault window: Fault is active on Link during [At, At+For),
// or from At to the end of the run when For is zero.
type Event struct {
	Link  topology.LinkID
	At    units.Time
	For   units.Duration
	Fault fabric.LinkFault
}

// activeAt reports whether the window covers time t.
func (e *Event) activeAt(t units.Time) bool {
	if t < e.At {
		return false
	}
	return e.For == 0 || t < e.At.Add(e.For)
}

// Plan is a complete fault schedule for one machine.
type Plan struct {
	// Seed feeds the fabric's per-link loss RNG streams.
	Seed uint64
	// Events holds the fault windows, in any order.
	Events []Event
}

// compose folds every window of evs active at time t into one LinkFault:
// Down windows OR, bandwidth deratings multiply, extra latencies add, and
// independent loss probabilities combine as 1-(1-a)(1-b).
func compose(evs []*Event, t units.Time) fabric.LinkFault {
	var out fabric.LinkFault
	scale := 1.0
	pass := 1.0
	for _, e := range evs {
		if !e.activeAt(t) {
			continue
		}
		lf := &e.Fault
		out.Down = out.Down || lf.Down
		if lf.BandwidthScale > 0 {
			scale *= lf.BandwidthScale
		}
		out.ExtraLatency += lf.ExtraLatency
		pass *= 1 - lf.LossProb
	}
	if scale != 1 {
		out.BandwidthScale = scale
	}
	if p := 1 - pass; p > 0 {
		out.LossProb = p
	}
	return out
}

// Install arms the plan on the fabric: fault injection is enabled with the
// plan's seed, and one recompute event is scheduled at every window
// boundary (start and end) of every link, each applying the composition of
// the link's windows active at that instant. Must be called before the
// engine runs (windows starting at time zero are applied by an event at
// t=0). Returns an error if any event references a link outside the
// fabric's topology.
func (p *Plan) Install(eng *sim.Engine, fab *fabric.Fabric) error {
	nLinks := fab.Topology().NumLinks()
	for i := range p.Events {
		e := &p.Events[i]
		if e.Link < 0 || int(e.Link) >= nLinks {
			return fmt.Errorf("fault: event %d references link %d outside topology [0,%d)",
				i, e.Link, nLinks)
		}
		if e.At < 0 || e.For < 0 {
			return fmt.Errorf("fault: event %d has a negative time", i)
		}
	}

	// Group windows per link (slice-indexed: no map iteration anywhere
	// near scheduling order).
	byLink := make([][]*Event, nLinks)
	for i := range p.Events {
		e := &p.Events[i]
		byLink[e.Link] = append(byLink[e.Link], e)
	}

	fab.EnableFaults(p.Seed)
	for link := 0; link < nLinks; link++ {
		evs := byLink[link]
		id := topology.LinkID(link)
		for _, b := range linkBounds(evs) {
			at := b
			eng.At(at, func() {
				fab.SetLinkFault(id, compose(evs, at))
			})
		}
	}
	return nil
}

// linkBounds returns the sorted, deduplicated window boundaries (starts
// and ends) of one link's fault windows.
func linkBounds(evs []*Event) []units.Time {
	if len(evs) == 0 {
		return nil
	}
	var bounds []units.Time
	for _, e := range evs {
		bounds = append(bounds, e.At)
		if e.For > 0 {
			bounds = append(bounds, e.At.Add(e.For))
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := bounds[:0]
	prev := units.Time(-1)
	for _, b := range bounds {
		if b != prev {
			out = append(out, b)
			prev = b
		}
	}
	return out
}

// InstallSpec compiles the spec against the fabric's topology and installs
// the resulting plan: the one-call form platforms use. A blank spec is a
// no-op (fault injection stays disabled).
func InstallSpec(spec string, eng *sim.Engine, fab *fabric.Fabric) error {
	if spec == "" {
		return nil
	}
	p, err := Compile(spec, fab.Topology())
	if err != nil {
		return err
	}
	return p.Install(eng, fab)
}
