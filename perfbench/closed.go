package main

import (
	"fmt"
	"time"
)

// passStat is one pass of a closed-loop workload: every point once, one
// simulation at a time.
type passStat struct {
	WallNS  float64
	RefMS   []float64 // refLoop's host times just before and after the pass
	Msgs    uint64
	Events  uint64
	Digest  string
	Points  []simOutcome
	Failed  int
	GoDelta [3]float64 // allocs/msg, bytes/msg, gc CPU share
}

// closedRun is the measured part of a closed-loop workload.
type closedRun struct {
	points   []simPoint
	want     map[string]string // results the points must reproduce (cross-check)
	first    []string          // point digests of the run's first pass
	failures int
	errs     []string
}

// pass runs every point once and checks each against the cross-check
// results and the run's first pass.
func (c *closedRun) pass(tr *tracer, opBase int) passStat {
	var ps passStat
	ref0 := refLoop()
	g0 := readGo()
	t0 := time.Now()
	digests := make([]string, 0, len(c.points))
	for i, p := range c.points {
		o, err := runPoint(p, tr, opBase+i)
		if err != nil {
			ps.Failed++
			c.note(err.Error())
			digests = append(digests, "error")
			continue
		}
		ps.Msgs += o.Msgs
		ps.Events += o.Events
		ps.Points = append(ps.Points, o)
		digests = append(digests, o.Digest)
		switch {
		case c.want[p.Label] != "" && c.want[p.Label] != o.Result:
			ps.Failed++
			c.note(fmt.Sprintf("%s: result %s differs from the microbench entry point's %s", p.Label, o.Result, c.want[p.Label]))
		case c.first != nil && c.first[i] != o.Digest:
			ps.Failed++
			c.note(fmt.Sprintf("%s: digest %s differs from the first pass's %s", p.Label, o.Digest, c.first[i]))
		}
	}
	ps.WallNS = float64(time.Since(t0).Nanoseconds())
	g1 := readGo()
	ps.RefMS = []float64{ref0, refLoop()}
	ps.GoDelta[0], ps.GoDelta[1], ps.GoDelta[2] = goDelta(g0, g1, float64(ps.Msgs))
	if c.first == nil {
		c.first = digests
	}
	ps.Digest = digestOf(digests)
	c.failures += ps.Failed
	return ps
}

func (c *closedRun) note(msg string) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, msg)
	}
}

// run makes passes until the deadline, and at least one.
func (c *closedRun) run(d time.Duration, tr *tracer) []passStat {
	var out []passStat
	deadline := time.Now().Add(d)
	for len(out) == 0 || time.Now().Before(deadline) {
		out = append(out, c.pass(tr, len(out)*len(c.points)))
	}
	return out
}

// refsOf collects the reference loop's times beside the passes.
func refsOf(passes []passStat) []float64 {
	var refs []float64
	for _, p := range passes {
		refs = append(refs, p.RefMS...)
	}
	return refs
}

// perMsgMS is each pass's host milliseconds per simulated MPI message.
func perMsgMS(passes []passStat) []float64 {
	var xs []float64
	for _, p := range passes {
		if p.Msgs > 0 {
			xs = append(xs, p.WallNS/1e6/float64(p.Msgs))
		}
	}
	return xs
}
