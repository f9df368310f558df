package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/apps/lammps"
	"repro/internal/apps/nascg"
	"repro/internal/apps/sweep3d"
	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/units"
)

// simPoint is one simulation of a closed-loop workload: a machine shape
// and a fresh app per run (the app may keep per-run state, as b_eff's
// rank 0 does).
type simPoint struct {
	Label string
	Net   platform.Network
	Ranks int
	PPN   int
	// app returns the rank body and a function rendering the point's
	// own results (b_eff, bandwidths) once the run has finished.
	app func() (body func(*mpi.Rank), result func() string)
}

// simOutcome is everything one simulation reports, exact counts first.
type simOutcome struct {
	Label              string
	Msgs, Bytes, Intra uint64
	FabMsgs, FabBytes  uint64
	Events             uint64
	Compute, Wait      units.Duration
	RegCacheLen        int
	MaxUnexpected      int
	Result             string // the point's own rendered result
	Digest             string
}

// runPoint builds the point's machine with platform.New and runs it, on
// the shipping path: no registry, probe, fault plan, shards or
// coalescing override.
func runPoint(p simPoint, tr *tracer, op int) (simOutcome, error) {
	root := tr.begin("point", op, 0)
	defer tr.end(root)
	body, result := p.app()

	sp := tr.begin("platform.New", op, root)
	m, err := platform.New(platform.Options{Network: p.Net, Ranks: p.Ranks, PPN: p.PPN})
	tr.end(sp)
	if err != nil {
		return simOutcome{}, fmt.Errorf("%s: %w", p.Label, err)
	}
	sp = tr.begin("platform.Run", op, root)
	res, err := m.Run(body)
	tr.end(sp)
	if err != nil {
		return simOutcome{}, fmt.Errorf("%s: %w", p.Label, err)
	}

	prof := m.World.Profile()
	fm, fb := m.Fab.Stats()
	o := simOutcome{
		Label: p.Label,
		Msgs:  prof.Messages, Bytes: uint64(prof.Bytes), Intra: prof.IntraNode,
		FabMsgs: fm, FabBytes: uint64(fb), Events: res.Events,
		Compute: prof.ComputeTime, Wait: prof.MPIWaitTime,
		Result: result(),
	}
	nodes := m.Fab.Nodes()
	for n := 0; n < nodes; n++ {
		if m.IB != nil {
			o.RegCacheLen += m.IB.Network().HCA(n).RegCache().Len()
		}
		if m.Elan != nil {
			if _, u := m.Elan.Network().NIC(n).QueueStats(); u > o.MaxUnexpected {
				o.MaxUnexpected = u
			}
		}
	}
	// The digest covers simulated outputs only: event counts and host
	// times may change with the implementation, these may not.
	o.Digest = digestOf(p.Label, res.Elapsed, res.RankElapsed, prof.String(), fm, fb, o.Result)
	return o, nil
}

func digestOf(parts ...interface{}) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scale selects the problem sizes: "full" for measurement, "tiny" for the
// self-tests' smoke runs.
type scale int

const (
	full scale = iota
	tiny
)

// appsPoints draws the apps-serial pass: every (app × network × PPN)
// combination once, in a seeded order. The seed draws each pair's rank
// counts in 8..32 as complements summing to 40 (PPN 2 gets an even
// count; NAS CG, needing powers of two, gets 8 and 32), so every seed
// simulates the same number of ranks and the same mix of intra- and
// inter-node traffic, and a seed moves how the work is split, not how
// much there is.
func appsPoints(seed uint64, sc scale) []simPoint {
	src := rng.New(seed ^ 0xa995)
	sw := sweep3d.Default(48)
	sw.Iterations = 1
	cg := nascg.Default(nascg.ClassS)
	cg.Class.OuterIt = 2
	lj := lammps.LJS(8)
	if sc == tiny {
		sw = sweep3d.Default(12)
		sw.Iterations = 1
		cg.Class.OuterIt = 1
		lj = lammps.LJS(1)
	}
	type app struct {
		name string
		pow2 bool // NAS CG needs a power-of-two process grid
		body func(*mpi.Rank)
	}
	apps := []app{
		{"sweep3d", false, func(r *mpi.Rank) { sweep3d.Run(r, sw) }},
		{"nascg", true, func(r *mpi.Rank) { nascg.Run(r, cg) }},
		{"lammps-ljs", false, func(r *mpi.Rank) { lammps.Run(r, lj) }},
	}
	var pts []simPoint
	for _, a := range apps {
		for _, net := range []platform.Network{platform.InfiniBand4X, platform.QuadricsElan4} {
			two := 8 + 2*src.Intn(13) // ranks at PPN 2
			if a.pow2 {
				two = 8 << (2 * src.Intn(2))
			}
			for ppn, ranks := range [3]int{0, 40 - two, two} {
				if ppn == 0 {
					continue
				}
				if sc == tiny {
					ranks = 4
				}
				body := a.body
				pts = append(pts, simPoint{
					Label: fmt.Sprintf("%s %s ranks=%d ppn=%d", a.name, net.Short(), ranks, ppn),
					Net:   net, Ranks: ranks, PPN: ppn,
					app: func() (func(*mpi.Rank), func() string) { return body, func() string { return "" } },
				})
			}
		}
	}
	src.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// appsWarmup is apps-serial's untimed warm-up point, the same for every
// seed: Sweep3D on a 16-rank InfiniBand machine.
func appsWarmup(sc scale) simPoint {
	sw := sweep3d.Default(48)
	sw.Iterations = 1
	ranks := 16
	if sc == tiny {
		sw = sweep3d.Default(12)
		ranks = 4
	}
	return simPoint{Label: "warm-up sweep3d", Net: platform.InfiniBand4X, Ranks: ranks, PPN: 1,
		app: func() (func(*mpi.Rank), func() string) {
			return func(r *mpi.Rank) { sweep3d.Run(r, sw) }, func() string { return "" }
		}}
}

// beffConfig is the beff-bulk pass: b_eff on both networks at 16 and 32
// ranks with the run seed as the permutation seed, plus streaming on both
// networks from 64 KiB to 4 MiB.
type beffConfig struct {
	Ranks  []int
	Iters  int
	Seed   uint64
	Sizes  []units.Bytes
	Window int
	SIters int
}

var beffNets = []platform.Network{platform.InfiniBand4X, platform.QuadricsElan4}

func newBeffConfig(seed uint64, sc scale) beffConfig {
	c := beffConfig{Ranks: []int{16, 32}, Iters: 1, Seed: seed, Window: 16, SIters: 2,
		Sizes: []units.Bytes{64 * units.KiB, 256 * units.KiB, 1 * units.MiB, 4 * units.MiB}}
	if sc == tiny {
		c.Ranks = []int{4}
		c.Sizes = []units.Bytes{64 * units.KiB}
		c.Window, c.SIters = 4, 1
	}
	return c
}

func beffLabel(net platform.Network, ranks int) string {
	return fmt.Sprintf("beff %s ranks=%d", net.Short(), ranks)
}

func streamingLabel(net platform.Network) string { return "streaming " + net.Short() }

// points orders the pass so the two networks alternate.
func (c beffConfig) points() []simPoint {
	var pts []simPoint
	for _, ranks := range c.Ranks {
		for _, net := range beffNets {
			net, ranks := net, ranks
			pts = append(pts, simPoint{Label: beffLabel(net, ranks), Net: net, Ranks: ranks, PPN: 1,
				app: func() (func(*mpi.Rank), func() string) { return beffApp(ranks, c.Iters, c.Seed) }})
		}
	}
	for _, net := range beffNets {
		pts = append(pts, simPoint{Label: streamingLabel(net), Net: net, Ranks: 2, PPN: 1,
			app: func() (func(*mpi.Rank), func() string) { return streamingApp(c.Sizes, c.Window, c.SIters) }})
	}
	return pts
}

// crossCheck runs the public microbench entry points at the smallest
// b_eff size and for streaming (the untimed warm-up) and returns the
// results the timed pass must reproduce, keyed by point label.
func (c beffConfig) crossCheck() (map[string]string, error) {
	want := map[string]string{}
	for _, net := range beffNets {
		r, err := microbench.BEff(net, c.Ranks[0], c.Iters, c.Seed)
		if err != nil {
			return nil, err
		}
		want[beffLabel(net, c.Ranks[0])] = formatBEff(float64(r.BEff))
		s, err := microbench.Streaming(net, c.Sizes, c.Window, c.SIters)
		if err != nil {
			return nil, err
		}
		bw := make([]float64, len(s))
		for k, p := range s {
			bw[k] = float64(p.Bandwidth)
		}
		want[streamingLabel(net)] = formatBandwidths(bw)
	}
	return want, nil
}

func formatBEff(b float64) string { return fmt.Sprintf("beff=%x", math.Float64bits(b)) }

func formatBandwidths(bw []float64) string {
	s := "bw="
	for _, b := range bw {
		s += fmt.Sprintf("%x,", math.Float64bits(b))
	}
	return s
}

// beffApp is microbench.BEff's schedule written against the public MPI
// API, so the run's machine — and with it Result.Events, the profile and
// the fabric counters — is in the benchmark's hands. crossCheck proves
// it computes the same b_eff as microbench.BEff, bit for bit.
func beffApp(ranks, iters int, seed uint64) (func(*mpi.Rank), func() string) {
	sizes := microbench.BEffSizes()
	patterns := beffPatterns(ranks, seed)
	var spans []units.Duration
	body := func(r *mpi.Rank) {
		for _, pat := range patterns {
			sendTo := pat[r.ID()]
			recvFrom := inverse(pat)[r.ID()]
			for si, size := range sizes {
				r.Barrier()
				start := r.Now()
				for it := 0; it < iters; it++ {
					r.Sendrecv(sendTo, si, size, recvFrom, si)
				}
				r.Barrier()
				if r.ID() == 0 {
					spans = append(spans, r.Now().Sub(start))
				}
			}
		}
	}
	result := func() string {
		perSize := make([]float64, len(sizes))
		k := 0
		for range patterns {
			for si, size := range sizes {
				span := spans[k]
				k++
				if span <= 0 {
					continue
				}
				bytes := units.Bytes(ranks*iters) * size
				perSize[si] += float64(units.RateOver(bytes, span)) / float64(len(patterns))
			}
		}
		logSum, n := 0.0, 0
		for _, b := range perSize {
			if b > 0 {
				logSum += math.Log(b)
				n++
			}
		}
		return formatBEff(float64(units.Rate(math.Exp(logSum / float64(n)))))
	}
	return body, result
}

func beffPatterns(ranks int, seed uint64) [][]int {
	ring := make([]int, ranks)
	for i := range ring {
		ring[i] = (i + 1) % ranks
	}
	pats := [][]int{ring}
	if ranks > 3 {
		stride := make([]int, ranks)
		for i := range stride {
			stride[i] = (i + ranks/2) % ranks
		}
		pats = append(pats, stride)
	}
	src := rng.New(seed)
	for k := 0; k < 3; k++ {
		for {
			p := src.Perm(ranks)
			ok := true
			for i, v := range p {
				if i == v {
					ok = false
					break
				}
			}
			if ok {
				pats = append(pats, p)
				break
			}
		}
	}
	return pats
}

func inverse(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// streamingApp is microbench.Streaming's schedule, as beffApp is b_eff's.
func streamingApp(sizes []units.Bytes, window, iters int) (func(*mpi.Rank), func() string) {
	bw := make([]float64, len(sizes))
	body := func(r *mpi.Rank) {
		for i, size := range sizes {
			r.Barrier()
			start := r.Now()
			for it := 0; it < iters; it++ {
				reqs := make([]*mpi.Request, window)
				if r.ID() == 1 {
					for k := range reqs {
						reqs[k] = r.Irecv(0, i)
					}
					r.Waitall(reqs...)
					r.Send(0, 1000+i, 0)
				} else {
					for k := range reqs {
						reqs[k] = r.Isend(1, i, size)
					}
					r.Waitall(reqs...)
					r.Recv(1, 1000+i)
				}
			}
			if r.ID() == 0 {
				bytes := units.Bytes(window*iters) * size
				bw[i] = float64(units.RateOver(bytes, r.Now().Sub(start)))
			}
		}
	}
	return body, func() string { return formatBandwidths(bw) }
}
