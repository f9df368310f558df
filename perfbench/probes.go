package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/elan"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/units"
)

// The probes time small loops around single layers' public functions.
// Each reports the median of probeReps repetitions, and its spread (IQR
// over median) as a detail metric.
const probeReps = 5

// sizing is what the probes take from their workload: the largest
// machine it builds, and eager/rendezvous message sizes near its own.
type sizing struct {
	Ranks int
	Eager units.Bytes
	Rndv  units.Bytes
	Depth int // pending events for the queue probe
}

// chunk64 is a 64-chunk message at the platforms' 2 KiB MTU.
const chunk64 = 64 * 2 * units.KiB

func probeSizing(ranks int, meanSize units.Bytes) sizing {
	if ranks < 4 {
		ranks = 4
	}
	eager := units.Bytes(64)
	for eager*2 <= meanSize && eager < 4*units.KiB {
		eager *= 2
	}
	rndv := units.Bytes(chunk64)
	for rndv*2 <= meanSize && rndv < 1*units.MiB {
		rndv *= 2
	}
	return sizing{Ranks: ranks, Eager: eager, Rndv: rndv, Depth: 64 * ranks}
}

func runProbes(rep *report, sz sizing, cfg config, art *runner.Artifact) error {
	n := 2000
	if cfg.scale == tiny {
		n = 50
	}
	probe := func(name, unit string, fn func() (float64, error)) error {
		var xs []float64
		for i := 0; i < probeReps; i++ {
			x, err := fn()
			if err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			xs = append(xs, x)
		}
		rep.set(name, median(xs), unit)
		rep.setDetail(name+".spread", spread(xs), "fraction")
		return nil
	}
	perOp := func(t0 time.Time, ops int) float64 {
		return float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}

	var evU, evC []float64
	steps := []struct {
		name, unit string
		fn         func() (float64, error)
	}{
		{"sim.switch_ns", "ns", func() (float64, error) { return switchProbe(10 * n) }},
		{"sim.queue_ns", "ns", func() (float64, error) { return queueProbe(sz.Depth) }},
		{"fabric.send_ns.uncontended", "ns", func() (float64, error) {
			ns, ev, err := fabricProbe(2, n/4)
			evU = append(evU, ev)
			return ns, err
		}},
		{"fabric.send_ns.contended", "ns", func() (float64, error) {
			ns, ev, err := fabricProbe(sz.Ranks, 1+n/(4*sz.Ranks))
			evC = append(evC, ev)
			return ns, err
		}},
		{"ib.rdma_write_ns.eager", "ns", func() (float64, error) { return ibProbe(sz.Eager, n) }},
		{"ib.rdma_write_ns.rndv", "ns", func() (float64, error) { return ibProbe(sz.Rndv, n/4) }},
		{"elan.txpost_ns", "ns", func() (float64, error) { return elanProbe(sz.Eager, n) }},
		{"mpi.pair_ns.ib.eager", "ns", func() (float64, error) { return pairProbe(platform.InfiniBand4X, sz.Eager, n) }},
		{"mpi.pair_ns.ib.rndv", "ns", func() (float64, error) { return pairProbe(platform.InfiniBand4X, sz.Rndv, n/4) }},
		{"mpi.pair_ns.elan.eager", "ns", func() (float64, error) { return pairProbe(platform.QuadricsElan4, sz.Eager, n) }},
		{"mpi.pair_ns.elan.rndv", "ns", func() (float64, error) { return pairProbe(platform.QuadricsElan4, sz.Rndv, n/4) }},
		{"platform.new_ms", "ms", func() (float64, error) {
			t0 := time.Now()
			for _, net := range platform.Networks {
				if _, err := platform.New(platform.Options{Network: net, Ranks: sz.Ranks, PPN: 1}); err != nil {
					return 0, err
				}
			}
			return perOp(t0, len(platform.Networks)) / 1e6, nil
		}},
		{"runner.job_overhead_us", "us", func() (float64, error) {
			jobs := make([]runner.Job, n)
			for i := range jobs {
				jobs[i] = runner.Job{ID: "noop", Run: func(context.Context) (interface{}, error) { return nil, nil }}
			}
			t0 := time.Now()
			res := (&runner.Pool{Workers: runtime.NumCPU()}).Run(context.Background(), jobs)
			return perOp(t0, n) / 1e3, runner.FirstError(res)
		}},
	}
	for _, s := range steps {
		if err := probe(s.name, s.unit, s.fn); err != nil {
			return err
		}
	}
	rep.set("fabric.events_per_send.uncontended", median(evU), "count")
	rep.set("fabric.events_per_send.contended", median(evC), "count")

	if err := sweepSpeedup(rep, cfg); err != nil {
		return err
	}
	return cacheProbe(rep, cfg, art, n/10)
}

// switchProbe alternates two spawned processes through Fire/Wait and
// returns host ns per process switch.
func switchProbe(rounds int) (float64, error) {
	eng := sim.NewEngine()
	ping := make([]*sim.Signal, rounds)
	pong := make([]*sim.Signal, rounds)
	for i := range ping {
		ping[i] = eng.NewSignal("ping")
		pong[i] = eng.NewSignal("pong")
	}
	eng.Spawn("a", func(p *sim.Proc) {
		for i := range ping {
			ping[i].Fire()
			p.Wait(pong[i])
		}
	})
	eng.Spawn("b", func(p *sim.Proc) {
		for i := range ping {
			p.Wait(ping[i])
			pong[i].Fire()
		}
	})
	t0 := time.Now()
	err := eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(2*rounds), err
}

// queueProbe schedules depth events at seeded times with At and drains
// them with Run: host ns per event over a deep pending set.
func queueProbe(depth int) (float64, error) {
	eng := sim.NewEngine()
	src := rng.New(uint64(depth))
	noop := func() {}
	t0 := time.Now()
	for i := 0; i < depth; i++ {
		eng.At(units.Time(src.Uint64n(1<<40)), noop)
	}
	err := eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(depth), err
}

// fabricProbe sends 64-chunk messages on an InfiniBand fabric: with two
// nodes one at a time (uncontended), else every node at once into node 0
// (incast). It returns host ns and dispatched events per message.
func fabricProbe(nodes, rounds int) (nsPerSend, eventsPerSend float64, err error) {
	eng := sim.NewEngine()
	f, err := fabric.New(eng, nodes, platform.IBRadix, platform.IBFabricParams())
	if err != nil {
		return 0, 0, err
	}
	sends := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for src := 1; src < nodes; src++ {
			f.Send(src, 0, chunk64)
			sends++
		}
		if err := eng.Run(); err != nil {
			return 0, 0, err
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(sends)
	return ns, float64(eng.Events()) / float64(sends), nil
}

// ibProbe times back-to-back RDMA writes between two HCAs.
func ibProbe(size units.Bytes, n int) (float64, error) {
	eng := sim.NewEngine()
	f, err := fabric.New(eng, 2, platform.IBRadix, platform.IBFabricParams())
	if err != nil {
		return 0, err
	}
	net := ib.NewNetwork(eng, f, ib.DefaultParams())
	net.HCA(1).SetHandler(func(ib.Delivery) {})
	eng.Spawn("writer", func(p *sim.Proc) {
		h := net.HCA(0)
		h.ConnectNoCost(1)
		for i := 0; i < n; i++ {
			p.Wait(h.RDMAWrite(p, 1, size, nil))
		}
	})
	t0 := time.Now()
	err = eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n), err
}

// elanProbe times matched RxPost/TxPost pairs between two Elan NICs.
func elanProbe(size units.Bytes, n int) (float64, error) {
	eng := sim.NewEngine()
	f, err := fabric.New(eng, 2, platform.ElanRadix, platform.ElanFabricParams())
	if err != nil {
		return 0, err
	}
	net := elan.NewNetwork(eng, f, elan.DefaultParams(), func(rank int) int { return rank })
	net.NIC(0).AttachRank(0)
	net.NIC(1).AttachRank(1)
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(net.NIC(1).RxPost(p, 1, match.Envelope{Src: 0, Tag: i}).Done)
		}
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(net.NIC(0).TxPost(p, 0, 1, match.Envelope{Src: 0, Tag: i}, size, nil))
		}
	})
	t0 := time.Now()
	err = eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n), err
}

// pairProbe times one Isend/Irecv/Waitall exchange per iteration on a
// 2-rank machine.
func pairProbe(net platform.Network, size units.Bytes, n int) (float64, error) {
	m, err := platform.New(platform.Options{Network: net, Ranks: 2, PPN: 1})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = m.Run(func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < n; i++ {
			s := r.Isend(peer, 0, size)
			q := r.Irecv(peer, 0)
			r.Waitall(s, q)
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / float64(n), err
}

// sweepSpeedup runs one quick sweep (fig3: 12 independent simulations)
// at Jobs=1 and at Jobs=nproc, alternating, and reports the ratio of
// their median times.
func sweepSpeedup(rep *report, cfg config) error {
	e, err := experiments.Get("fig3")
	if err != nil {
		return err
	}
	reps := 3
	if cfg.scale == tiny {
		reps = 1
	}
	var serial, parallel []float64
	for i := 0; i < reps; i++ {
		for _, jobs := range []int{1, runtime.NumCPU()} {
			t0 := time.Now()
			if _, err := e.Run(experiments.Options{Quick: true, Jobs: jobs}); err != nil {
				return err
			}
			d := time.Since(t0).Seconds()
			if jobs == 1 {
				serial = append(serial, d)
			} else {
				parallel = append(parallel, d)
			}
		}
	}
	rep.set("experiments.sweep_speedup", median(serial)/median(parallel), "ratio")
	return nil
}

// cacheProbe stores and loads the workload's artifact in a fresh server
// cache: host microseconds per Put and per Get.
func cacheProbe(rep *report, cfg config, art *runner.Artifact, n int) error {
	dir := fmt.Sprintf("%s/.bench_build/perfbench/cache-probe-%d", cfg.root, os.Getpid())
	defer os.RemoveAll(dir)
	var put, get []float64
	for r := 0; r < probeReps; r++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		c, err := server.NewCache(dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := c.Put(fmt.Sprintf("%064x", i), art); err != nil {
				return err
			}
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, ok := c.Get(fmt.Sprintf("%064x", i)); !ok {
				return fmt.Errorf("cache probe: entry %d missing", i)
			}
		}
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	rep.set("server.cache_put_us", median(put), "us")
	rep.setDetail("server.cache_put_us.spread", spread(put), "fraction")
	rep.set("server.cache_get_us", median(get), "us")
	rep.setDetail("server.cache_get_us.spread", spread(get), "fraction")
	return nil
}
