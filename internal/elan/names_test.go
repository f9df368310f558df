package elan

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSignalNamesGolden pins the names of the Tx and Rx completion
// signals, as the kernel renders them when a process parks on one.
func TestSignalNamesGolden(t *testing.T) {
	eng := sim.NewEngine()
	net := testNet(t, eng, 4)
	var parks []string
	eng.Trace = func(line string) {
		if i := strings.Index(line, "waiting on "); i >= 0 {
			parks = append(parks, line[i:])
		}
	}
	eng.Spawn("recv", func(p *sim.Proc) {
		p.Wait(net.NIC(3).RxPost(p, 3, env(2, 9)).Done)
	})
	eng.Spawn("send", func(p *sim.Proc) {
		p.Wait(net.NIC(2).TxPost(p, 2, 3, env(2, 9), 100000, nil))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := "waiting on signal elan rx rank3\n" +
		"waiting on signal elan tx 2->3"
	if got := strings.Join(parks, "\n"); got != want {
		t.Fatalf("park reasons\n got %q\nwant %q", got, want)
	}
}
