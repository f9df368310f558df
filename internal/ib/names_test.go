package ib

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestSignalNamesGolden pins the names of the RDMA completion signals and
// the fabric message signal, as the kernel renders them when a process
// parks on one.
func TestSignalNamesGolden(t *testing.T) {
	eng := sim.NewEngine()
	fab := testFabric(t, eng, 4)
	net := NewNetwork(eng, fab, DefaultParams())
	var parks []string
	eng.Trace = func(line string) {
		if i := strings.Index(line, "waiting on "); i >= 0 {
			parks = append(parks, line[i:])
		}
	}
	eng.Spawn("p", func(p *sim.Proc) {
		h := net.HCA(2)
		h.Connect(p, 3)
		p.Wait(h.RDMAWrite(p, 3, 8*units.KiB, nil))
		p.Wait(h.RDMARead(p, 3, 64, nil))
		p.Wait(fab.Send(3, 1, 1500))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := "waiting on signal rdma 2->3\n" +
		"waiting on signal rdma-read 2<-3\n" +
		"waiting on signal msg 3->1 (1500B)"
	if got := strings.Join(parks, "\n"); got != want {
		t.Fatalf("park reasons\n got %q\nwant %q", got, want)
	}
}
