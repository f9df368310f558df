package fabric

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// The fabric configurations of the paper's experiments (values mirror
// platform.IBFabricParams / ElanFabricParams; the fabric package cannot
// import platform). Every fig1/fig2 sweep runs on one of these two
// parameter sets, at node counts from 2 to 32 — all single-chassis — so
// the storm grid below covers every experiment fabric, plus small-radix
// variants that force a 2-level Clos and a host-bus-disabled variant.
func ibTestParams() Params {
	return Params{
		LinkBandwidth:  1000 * units.MBps,
		WireLatency:    50 * units.Nanosecond,
		ChassisLatency: 200 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 30,
		HostBandwidth:  880 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       false,
	}
}

func elanTestParams() Params {
	return Params{
		LinkBandwidth:  1300 * units.MBps,
		WireLatency:    30 * units.Nanosecond,
		ChassisLatency: 150 * units.Nanosecond,
		MTU:            2 * units.KiB,
		PacketOverhead: 24,
		HostBandwidth:  940 * units.MBps,
		HostLatency:    400 * units.Nanosecond,
		Adaptive:       true,
	}
}

// stormOutcome captures everything observable about a storm run: each
// message's delivery time (in injection order), every server's final
// accounting, the metrics snapshot of the registry attached to the
// engine, and how many sends opened a window.
type stormOutcome struct {
	fired   []units.Time
	final   units.Time
	busy    []units.Time
	total   []units.Duration
	served  []uint64
	snap    metrics.Snapshot
	windows int
	obs     []string // probe observations in callback order
}

// newInstrumentedEngine returns an engine with a metrics registry
// attached, as repro -metrics and the simd server run.
func newInstrumentedEngine() (*sim.Engine, *metrics.Registry) {
	reg := metrics.New()
	eng := sim.NewEngine()
	eng.SetMetrics(reg, "storm")
	return eng, reg
}

// finishInstruments flushes the fabric's end-of-run metrics into reg and
// records the snapshot, minus the dispatched-event count (the one value
// coalescing is meant to change).
func finishInstruments(f *Fabric, reg *metrics.Registry, out *stormOutcome) {
	f.FlushMetrics()
	out.snap = reg.Snapshot()
	cs := out.snap.Counters[:0:0]
	for _, c := range out.snap.Counters {
		if c.Name != "sim.events_dispatched" {
			cs = append(cs, c)
		}
	}
	out.snap.Counters = cs
}

// runStorm injects a randomized traffic pattern — bursts, chained
// request/reply pairs, overlapping flows, and direct host-bus touches
// (the doorbell pattern) — and returns the outcome. The schedule is a
// pure function of seed, so two runs differing only in the coalesce
// flag are directly comparable.
func runStorm(t *testing.T, params Params, radix, nodes int, seed uint64, coalesce bool) stormOutcome {
	t.Helper()
	eng, reg := newInstrumentedEngine()
	f, err := New(eng, nodes, radix, params)
	if err != nil {
		t.Fatal(err)
	}
	f.SetCoalescing(coalesce)

	r := rng.New(seed)
	sizes := []units.Bytes{0, 1, 500, 2 * units.KiB, 3000, 8 * units.KiB,
		64 * units.KiB, 1 * units.MiB}
	const msgs = 60
	out := stormOutcome{fired: make([]units.Time, 2*msgs)}

	record := func(slot int, done *sim.Signal) {
		done.OnFire(func() { out.fired[slot] = eng.Now() })
	}
	send := func(src, dst int, size units.Bytes) *sim.Signal {
		done := f.Send(src, dst, size)
		if n := len(f.windows); n > 0 && f.windows[n-1].ms.done == done {
			out.windows++
		}
		return done
	}
	for i := 0; i < msgs; i++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		size := sizes[r.Intn(len(sizes))]
		at := units.Time(r.Intn(50_000_000)) // 0-50 us, ps granularity
		slot := i
		chained := r.Intn(3) == 0
		replySize := sizes[r.Intn(len(sizes))]
		eng.At(at, func() {
			done := send(src, dst, size)
			record(slot, done)
			if chained {
				done.OnFire(func() {
					record(msgs+slot, send(dst, src, replySize))
				})
			}
		})
		// Doorbell-style direct host-bus traffic, bypassing Send.
		if f.HostBus(src) != nil && r.Intn(4) == 0 {
			node := r.Intn(nodes)
			when := units.Time(r.Intn(50_000_000))
			d := units.Duration(r.Intn(2000)) * units.Nanosecond
			eng.At(when, func() { f.HostBus(node).Serve(d) })
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.windows) != 0 {
		t.Fatalf("windows leaked: %d still open after drain", len(f.windows))
	}
	for id, u := range f.linkUsers {
		if u != 0 {
			t.Fatalf("link %d refcount leaked: %d", id, u)
		}
	}
	for n, u := range f.hostUsers {
		if u != 0 {
			t.Fatalf("host %d refcount leaked: %d", n, u)
		}
	}

	out.final = eng.Now()
	for _, srv := range f.links {
		out.busy = append(out.busy, srv.BusyUntil())
		out.total = append(out.total, srv.BusyTotal())
		out.served = append(out.served, srv.Served())
	}
	for _, srv := range f.hosts {
		out.busy = append(out.busy, srv.BusyUntil())
		out.total = append(out.total, srv.BusyTotal())
		out.served = append(out.served, srv.Served())
	}
	finishInstruments(f, reg, &out)
	return out
}

// TestCoalescingExact proves the tentpole equivalence claim: across
// every experiment fabric configuration, randomized contending traffic
// delivers at bit-identical times — and leaves bit-identical per-server
// accounting and metrics — whether messages are coalesced or fully
// chunk-expanded.
func TestCoalescingExact(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		radix  int
		nodes  int
	}{
		{"ib/2", ibTestParams(), 96, 2},
		{"ib/4", ibTestParams(), 96, 4},
		{"ib/32", ibTestParams(), 96, 32},
		{"elan/2", elanTestParams(), 64, 2},
		{"elan/4", elanTestParams(), 64, 4},
		{"elan/32", elanTestParams(), 64, 32},
		// Two-level Clos: deterministic and adaptive spine crossing.
		{"ib/2level", ibTestParams(), 8, 12},
		{"elan/2level", elanTestParams(), 8, 12},
	}
	nohost := ibTestParams()
	nohost.HostBandwidth = 0
	cases = append(cases, struct {
		name   string
		params Params
		radix  int
		nodes  int
	}{"ib/nohost", nohost, 96, 8})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			windows := 0
			for seed := uint64(1); seed <= 4; seed++ {
				on := runStorm(t, c.params, c.radix, c.nodes, seed, true)
				windows += on.windows
				off := runStorm(t, c.params, c.radix, c.nodes, seed, false)
				for i := range on.fired {
					if on.fired[i] != off.fired[i] {
						t.Fatalf("seed %d msg %d: delivery %v (coalesced) != %v (chunked)",
							seed, i, on.fired[i], off.fired[i])
					}
				}
				if on.final != off.final {
					t.Fatalf("seed %d: final clock %v != %v", seed, on.final, off.final)
				}
				for i := range on.busy {
					if on.busy[i] != off.busy[i] || on.total[i] != off.total[i] ||
						on.served[i] != off.served[i] {
						t.Fatalf("seed %d server %d: accounting diverged (busy %v/%v total %v/%v served %d/%d)",
							seed, i, on.busy[i], off.busy[i], on.total[i], off.total[i],
							on.served[i], off.served[i])
					}
				}
				if !reflect.DeepEqual(on.snap, off.snap) {
					t.Fatalf("seed %d: metrics diverged\ncoalesced: %+v\nchunked:   %+v",
						seed, on.snap, off.snap)
				}
			}
			if windows == 0 {
				t.Fatal("no send opened a window on the coalesced side")
			}
		})
	}
}

// TestCoalescedMatchesMinLatency checks the closed form against the
// chunk recurrence on an idle fabric: a lone message's delivery time
// must equal MinLatency exactly in both modes, across sizes that cover
// zero-size headers, sub-MTU, exact-MTU, and many-chunk messages.
func TestCoalescedMatchesMinLatency(t *testing.T) {
	for _, mode := range []bool{true, false} {
		for _, params := range []Params{ibTestParams(), elanTestParams()} {
			sizes := []units.Bytes{0, 1, 2047, 2 * units.KiB, 2049,
				8 * units.KiB, 1 * units.MiB}
			for _, size := range sizes {
				eng := sim.NewEngine()
				f, err := New(eng, 4, 16, params)
				if err != nil {
					t.Fatal(err)
				}
				f.SetCoalescing(mode)
				done := f.Send(0, 2, size)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				want := units.Time(f.MinLatency(0, 2, size))
				if done.FiredAt() != want {
					t.Fatalf("coalesce=%v size=%v: delivered %v want %v",
						mode, size, done.FiredAt(), want)
				}
			}
		}
	}
}

// TestCoalescingUnderInstruments pins the one-path policy: a fabric
// whose engine carries a metrics registry and which has a probe installed
// still opens a window for an uncontended message, and the window reports
// the message's retirement to the probe.
func TestCoalescingUnderInstruments(t *testing.T) {
	eng, _ := newInstrumentedEngine()
	f, err := New(eng, 2, 8, ibTestParams())
	if err != nil {
		t.Fatal(err)
	}
	var delivered units.Bytes
	f.SetProbe(&Probe{MessageDelivered: func(size units.Bytes, _ units.Time) { delivered += size }})
	done := f.Send(0, 1, 64*units.KiB)
	if len(f.windows) != 1 {
		t.Fatalf("%d windows open under a registry and probe, want 1", len(f.windows))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done.Fired() || delivered != 64*units.KiB {
		t.Fatalf("fired=%v, probe saw %v delivered, want 64KiB", done.Fired(), delivered)
	}
}

// BenchmarkFabricSend measures the Send hot path at the satellite's
// three shapes — 0 B (header only), one MTU, and a 64-chunk message —
// with the coalescing fast path on and off.
func BenchmarkFabricSend(b *testing.B) {
	shapes := []struct {
		name string
		size units.Bytes
	}{
		{"0B", 0},
		{"1MTU", 2 * units.KiB},
		{"64chunk", 128 * units.KiB},
	}
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"coalesced", true}, {"chunked", false}} {
		for _, sh := range shapes {
			b.Run(mode.name+"/"+sh.name, func(b *testing.B) {
				eng := sim.NewEngine()
				f, err := New(eng, 2, 8, ibTestParams())
				if err != nil {
					b.Fatal(err)
				}
				f.SetCoalescing(mode.coalesce)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Send(0, 1, sh.size)
					if err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
