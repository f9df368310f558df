package main

import (
	"sort"
	"time"
)

// refNominalMS is refLoop's host time on the machine the benchmark was
// tuned on (a 2-vCPU Intel Xeon VM, go1.24): the speed every
// workload's gated times are scaled to.
const refNominalMS = 7.0

type refNode struct {
	next *refNode
	val  uint64
}

var refSink uint64

// hostScale is the factor that puts host times measured beside the given
// reference-loop times at the reference speed: refNominalMS over their
// median (1 when there are none).
func hostScale(refs []float64) float64 {
	if len(refs) == 0 {
		return 1
	}
	return refNominalMS / median(refs)
}

// refLoop is a fixed piece of work that uses none of the simulator's
// code but the same kinds of host resources — small allocations, an
// indirect-call sort, pointer chasing — and returns its host time in
// milliseconds. Every workload times it after each set-up; the sim
// workloads also before and after every pass, simd-open before and after
// every open-loop segment, once the server has drained. It never runs
// beside the measured work, which would slow it down together with the
// figures it scales. Its median says how fast the shared host ran, and
// the gated times are scaled by it, so that a host running 40% slower
// for a few minutes (as the tuning host did) moves them much less than
// it moves the raw times.
func refLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	xs := make([]uint64, 1<<15)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var head *refNode
	for _, v := range xs {
		head = &refNode{next: head, val: v}
	}
	var sum uint64
	for n := head; n != nil; n = n.next {
		sum += n.val
	}
	refSink = sum
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
