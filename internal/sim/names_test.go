package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestDoubleFirePanicText pins the full message of the double-fire panic,
// which renders the signal's name, for an eagerly and a lazily named
// signal.
func TestDoubleFirePanicText(t *testing.T) {
	for _, mk := range []func(*Engine) *Signal{
		func(e *Engine) *Signal { return e.NewSignal("rank3 incoming") },
		func(e *Engine) *Signal { return e.NewSignalf("rank%d incoming", 3) },
	} {
		e := NewEngine()
		s := mk(e)
		e.After(0, s.Fire)
		e.After(0, s.Fire)
		err := e.Run()
		want := "sim: panic in event at t=0ps: sim: signal \"rank3 incoming\" fired twice\n"
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("err = %v, want prefix %q", err, want)
		}
	}
}

// TestNewSignalfMatchesSprintf: a lazily named signal renders exactly
// what fmt.Sprintf would, including operands outside int32 (formatted
// eagerly), more than three operands, and none.
func TestNewSignalfMatchesSprintf(t *testing.T) {
	cases := []struct {
		format string
		ints   []int
	}{
		{"rank%d incoming", []int{7}},
		{"ib recv %d<-%d", []int{1, -1}},
		{"msg %d->%d (%dB)", []int{3, 1, 1500}},
		{"msg %d->%d (%dB)", []int{3, 1, math.MaxInt32}},
		{"msg %d->%d (%dB)", []int{math.MinInt32, 1, 2}},
		{"msg %d->%d (%dB)", []int{3, 1, math.MaxInt32 + 1}},
		{"msg %d->%d (%dB)", []int{math.MinInt32 - 1, 1, 2}},
		{"msg %d->%d (%dB)", []int{0, 1, 4 << 40}},
		{"%d %d %d %d", []int{1, 2, 3, 4}},
		{"compute timer", nil},
		{"100%% busy", nil},
	}
	e := NewEngine()
	for _, c := range cases {
		args := make([]interface{}, len(c.ints))
		for i, v := range c.ints {
			args[i] = v
		}
		want := fmt.Sprintf(c.format, args...)
		if got := e.NewSignalf(c.format, c.ints...).Name(); got != want {
			t.Errorf("NewSignalf(%q, %v).Name() = %q, want %q", c.format, c.ints, got, want)
		}
	}
}

// TestSignalSize keeps Signal in the 112-byte allocation size class: the
// lazy-name operands must pack into existing padding.
func TestSignalSize(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n > 112 {
		t.Fatalf("unsafe.Sizeof(Signal{}) = %d, want <= 112", n)
	}
}
