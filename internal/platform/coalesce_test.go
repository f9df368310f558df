package platform

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps/lammps"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/units"
)

// runAB builds the same machine under the coalescing fast path (the
// default) and under the expanded reference model selected with
// SetCoalescing(false), runs the same app on both, and requires
// bit-identical timing. Each side runs twice: with a metrics registry,
// whose snapshots must match except for the dispatched-event count (which
// must differ, or no window opened), and
// with a tracing registry, whose Chrome trace bytes must match (a trace
// track keeps the fabric on the expanded model, see Fabric.Send). This is
// the machine-level counterpart of the fabric package's
// TestCoalescingExact: it exercises the fast path under the full NIC,
// transport, and MPI stacks, including the ib doorbell traffic that
// touches fabric host buses directly.
func runAB(t *testing.T, net Network, ranks, ppn int, app func(*mpi.Rank)) {
	t.Helper()
	run := func(coalesce, tracing bool) (*mpi.Result, *metrics.Registry) {
		reg := metrics.New()
		if tracing {
			reg.EnableTracing()
		}
		m, err := New(Options{Network: net, Ranks: ranks, PPN: ppn, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		m.Fab.SetCoalescing(coalesce)
		res, err := m.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	trace := func(coalesce bool) []byte {
		_, reg := run(coalesce, true)
		var buf bytes.Buffer
		if err := metrics.WriteChromeTrace(&buf, metrics.TraceSource{Reg: reg}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	on, onReg := run(true, false)
	off, offReg := run(false, false)
	if on.Elapsed != off.Elapsed {
		t.Fatalf("elapsed diverged: %v (coalesced) != %v (chunked)", on.Elapsed, off.Elapsed)
	}
	for r := range on.RankElapsed {
		if on.RankElapsed[r] != off.RankElapsed[r] {
			t.Fatalf("rank %d elapsed diverged: %v != %v",
				r, on.RankElapsed[r], off.RankElapsed[r])
		}
	}
	onEv := onReg.Counter("sim.events_dispatched").Value()
	offEv := offReg.Counter("sim.events_dispatched").Value()
	if onEv == offEv {
		t.Fatalf("both legs dispatched %d events: no window opened", onEv)
	}
	if a, b := snapshotSansEvents(onReg), snapshotSansEvents(offReg); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics diverged\ncoalesced: %+v\nchunked:   %+v", a, b)
	}
	if !bytes.Equal(trace(true), trace(false)) {
		t.Fatal("Chrome trace diverged")
	}
}

// snapshotSansEvents is reg's snapshot without sim.events_dispatched, the
// one instrument coalescing is meant to change.
func snapshotSansEvents(reg *metrics.Registry) metrics.Snapshot {
	s := reg.Snapshot()
	cs := s.Counters[:0:0]
	for _, c := range s.Counters {
		if c.Name != "sim.events_dispatched" {
			cs = append(cs, c)
		}
	}
	s.Counters = cs
	return s
}

// TestCoalescingExactMachine checks coalescing exactness through the
// complete simulated machines of the paper's experiments: a ping-pong
// sweep covering the eager/rendezvous protocol switch (the fig. 1
// microbenchmarks) and small LAMMPS LJS runs at the fig. 2 scales.
func TestCoalescingExactMachine(t *testing.T) {
	sizes := []units.Bytes{0, 8, 1 * units.KiB, 16 * units.KiB, 256 * units.KiB}
	pingpong := func(r *mpi.Rank) {
		for _, size := range sizes {
			for rep := 0; rep < 3; rep++ {
				if r.ID() == 0 {
					r.Send(1, 0, size)
					r.Recv(1, 1)
				} else {
					r.Recv(0, 0)
					r.Send(0, 1, size)
				}
			}
		}
	}
	for _, net := range Networks {
		net := net
		t.Run(net.Short()+"/pingpong", func(t *testing.T) {
			runAB(t, net, 2, 1, pingpong)
		})
		t.Run(net.Short()+"/lammps", func(t *testing.T) {
			for _, cfg := range []struct{ ranks, ppn int }{{2, 1}, {4, 2}, {8, 2}} {
				p := lammps.LJS(2)
				runAB(t, net, cfg.ranks, cfg.ppn, func(r *mpi.Rank) {
					lammps.Run(r, p)
				})
			}
		})
	}
}
