package platform

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestDeadlockReportGolden pins the text of deadlock reports for an
// unmatched receive on both networks, between nodes (PPN 1) and within
// one node (PPN 2, shared memory). Rank 1 waits for tag 2, which never
// comes; rank 0 sends a rendezvous-sized message with tag 1 and waits for
// it. The reports name the transport requests the ranks block on.
func TestDeadlockReportGolden(t *testing.T) {
	cases := []struct {
		net  Network
		ppn  int
		src  int // rank 1 receives from src
		want string
	}{
		{InfiniBand4X, 1, 0,
			"sim: deadlock at t=161.4us: 2 blocked process(es): rank0 (waiting on any of ib send 0->1); rank1 (waiting on any of ib recv 1<-0)"},
		{InfiniBand4X, 1, mpi.AnySource,
			"sim: deadlock at t=161.4us: 2 blocked process(es): rank0 (waiting on any of ib send 0->1); rank1 (waiting on any of ib recv 1<--1)"},
		{InfiniBand4X, 2, 0,
			"sim: deadlock at t=699.6us: 1 blocked process(es): rank1 (waiting on any of shm recv 1<-0)"},
		{QuadricsElan4, 1, 0,
			"sim: deadlock at t=2.263us: 2 blocked process(es): rank0 (waiting on any of elan send 0->1); rank1 (waiting on any of elan recv 1<-0)"},
		{QuadricsElan4, 1, mpi.AnySource,
			"sim: deadlock at t=2.263us: 2 blocked process(es): rank0 (waiting on any of elan send 0->1); rank1 (waiting on any of elan recv 1<--1)"},
		{QuadricsElan4, 2, 0,
			"sim: deadlock at t=699.6us: 1 blocked process(es): rank1 (waiting on any of shm recv 1<-0)"},
	}
	for i, c := range cases {
		m, err := New(Options{Network: c.net, Ranks: 2, PPN: c.ppn})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				r.Wait(r.Isend(1, 1, units.MiB))
			} else {
				r.Wait(r.Irecv(c.src, 2))
			}
		})
		m.Eng.Shutdown()
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("case %d: err = %v, want deadlock", i, err)
		}
		if got := err.Error(); got != c.want {
			t.Errorf("case %d (%v, ppn %d): deadlock report\n got %q\nwant %q", i, c.net, c.ppn, got, c.want)
		}
	}
}

// TestRankIncomingName pins the name of each rank's wake-up signal, both
// as built with the world and as replaced by every Kick.
func TestRankIncomingName(t *testing.T) {
	m, err := New(Options{Network: InfiniBand4X, Ranks: 3, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	_, err = m.Run(func(r *mpi.Rank) {
		if r.ID() != 2 {
			return
		}
		got = append(got, r.Incoming().Name())
		r.Kick()
		got = append(got, r.Incoming().Name())
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, want := strings.Join(got, ","), "rank2 incoming,rank2 incoming"; s != want {
		t.Fatalf("incoming names = %q, want %q", s, want)
	}
}
