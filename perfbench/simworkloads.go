package main

import (
	"fmt"
	"time"

	"repro/internal/runner"
	"repro/internal/units"
)

// simSetups is how many times a sim workload sets up; its set-up is short
// enough that a median of five costs little.
const simSetups = 5

func runAppsSerial(cfg config) (*report, error) {
	var c *closedRun
	setup, err := timedSetups(simSetups, refLoop, func() error {
		pts := appsPoints(cfg.seed, cfg.scale)
		// The untimed warm-up point is the same for every seed, so the
		// seed does not move set-up time.
		if _, err := runPoint(appsWarmup(cfg.scale), nil, 0); err != nil {
			return err
		}
		c = &closedRun{points: pts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runClosed(cfg, c, setup)
}

func runBeffBulk(cfg config) (*report, error) {
	var c *closedRun
	setup, err := timedSetups(simSetups, refLoop, func() error {
		bc := newBeffConfig(cfg.seed, cfg.scale)
		want, err := bc.crossCheck()
		if err != nil {
			return err
		}
		c = &closedRun{points: bc.points(), want: want}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runClosed(cfg, c, setup)
}

// runClosed measures a closed-loop simulation workload. Untraced, it
// reports the end-to-end metrics; traced, it makes an untraced and a
// traced half-run (their difference is the tracing overhead), reads the
// layers' counts from the traced passes, and runs the layer probes.
func runClosed(cfg config, c *closedRun, setup setupTime) (*report, error) {
	rep := newReport()
	d := time.Duration(cfg.seconds) * time.Second
	var passes, plain []passStat
	var tr *tracer
	if cfg.trace {
		plain = c.run(d/2, nil)
		tr = newTracer()
		passes = c.run(d/2, tr)
	} else {
		passes = c.run(d, nil)
	}
	rep.attempted = (len(plain) + len(passes)) * len(c.points)
	rep.failed = c.failures
	rep.notes = append(rep.notes, c.errs...)

	first := passes[0]
	if first.Msgs == 0 {
		return nil, fmt.Errorf("no simulation of the first pass completed: %v", c.errs)
	}
	entry := goldenEntry{Digest: first.Digest, Counts: map[string]uint64{}}
	var bytes, intra, fabMsgs, fabBytes uint64
	var compute, wait units.Duration
	regcache, unexpected, maxRanks := 0, 0, 0
	for _, o := range first.Points {
		bytes += o.Bytes
		intra += o.Intra
		fabMsgs += o.FabMsgs
		fabBytes += o.FabBytes
		compute += o.Compute
		wait += o.Wait
		regcache += o.RegCacheLen
		if o.MaxUnexpected > unexpected {
			unexpected = o.MaxUnexpected
		}
	}
	for _, p := range c.points {
		if p.Ranks > maxRanks {
			maxRanks = p.Ranks
		}
	}
	entry.Counts["mpi.msgs"] = first.Msgs
	entry.Counts["mpi.bytes"] = bytes
	entry.Counts["fabric.msgs"] = fabMsgs
	entry.Counts["fabric.bytes"] = fabBytes
	if msg, err := checkGolden(cfg, "", entry); err != nil {
		return nil, err
	} else if msg != "" {
		rep.failed = rep.attempted
		rep.notes = append(rep.notes, msg)
	}

	xs := perMsgMS(passes)
	msgsPerS := make([]float64, len(xs))
	for i, x := range xs {
		msgsPerS[i] = 1000 / x
	}
	rep.setDetail("msgs_per_s", median(msgsPerS), "msg/s")
	rep.setDetail("msgs_per_s.samples", float64(len(msgsPerS)), "count")
	rep.setDetail("msgs_per_pass", float64(first.Msgs), "count")
	var ps []float64
	for _, p := range passes {
		ps = append(ps, p.WallNS/1e6)
	}
	scale := hostScale(refsOf(passes))
	rep.setDetail("ref_loop_ms", refNominalMS/scale, "ms")
	rep.setDetail("setup_s.raw", setup.s, "s")
	rep.setDetail("op_p50_ms.raw", median(xs), "ms")
	rep.setDetail("job_p50_ms.raw", median(ps), "ms")
	if !cfg.trace {
		rep.set("setup_s", setup.scaled(), "s")
		rep.set("op_p50_ms", median(xs)*scale, "ms")
		rep.set("job_p50_ms", median(ps)*scale, "ms")
		return rep, nil
	}

	// Counts of the simulated system: exact, and repeated by every pass.
	rep.setDetail("sim.events", float64(first.Events), "count")
	rep.setDetail("sim.events_per_msg", float64(first.Events)/float64(first.Msgs), "count")
	rep.setDetail("fabric.msgs", float64(fabMsgs), "count")
	rep.setDetail("fabric.bytes", float64(fabBytes), "B")
	rep.setDetail("mpi.msgs", float64(first.Msgs), "count")
	rep.setDetail("mpi.bytes", float64(bytes), "B")
	rep.setDetail("mpi.intranode_frac", float64(intra)/float64(first.Msgs), "fraction")
	rep.setDetail("mpi.wait_frac", float64(wait)/float64(wait+compute), "fraction")
	rep.setDetail("ib.regcache_len", float64(regcache), "count")
	rep.setDetail("elan.max_unexpected", float64(unexpected), "count")
	rep.setDetail("platform.new_ms.span", median(tr.durations("platform.New")), "ms")
	rep.setDetail("platform.run_s", sum(tr.durations("platform.Run"))/1e3/float64(len(passes)), "s")

	// Host costs of the traced passes.
	var wall, events float64
	var allocs, allocBytes, gc []float64
	for _, p := range passes {
		wall += p.WallNS
		events += float64(p.Events)
		allocs = append(allocs, p.GoDelta[0])
		allocBytes = append(allocBytes, p.GoDelta[1])
		gc = append(gc, p.GoDelta[2])
	}
	rep.set("sim.host_ns_per_event", wall/events, "ns")
	rep.set("go.allocs_per_op", median(allocs), "count")
	rep.set("go.alloc_bytes_per_op", median(allocBytes), "B")
	rep.set("go.gc_cpu_frac", median(gc), "fraction")
	rep.set("trace.overhead_frac", median(perMsgMS(passes))*scale/(median(perMsgMS(plain))*hostScale(refsOf(plain)))-1, "fraction")

	meanSize := units.Bytes(bytes / first.Msgs)
	if err := runProbes(rep, probeSizing(maxRanks, meanSize), cfg, passArtifact(cfg, first)); err != nil {
		return nil, err
	}
	return rep, tr.write(spansPath(cfg))
}

// passArtifact renders a pass as the artifact the cache probe stores:
// one row per simulation with its digest and result.
func passArtifact(cfg config, first passStat) *runner.Artifact {
	t := runner.Table{Title: cfg.workload, Headers: []string{"point", "digest", "result"}}
	for _, o := range first.Points {
		t.Rows = append(t.Rows, []string{o.Label, o.Digest, o.Result})
	}
	return &runner.Artifact{Experiment: cfg.workload, Title: cfg.workload + " pass", Tables: []runner.Table{t}}
}
