package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/server"
)

// The simd-open traffic: an open loop of independent tenants at a fixed
// rate, seeded exponential inter-arrival times. Most requests are hits
// (quick fault-free specs, pre-filled during set-up); the rest are misses
// (a quick experiment under a seed-drawn degrade plan, each a new cache
// key), and some misses are submitted twice close together, so the
// server's singleflight dedup is exercised. The mix is synthetic: no
// trace of real tenants exists. README.md gives the basis of each number.
const (
	simdRate       = 16.0 // requests per second: a quarter of the measured max_rate_jps
	simdMissShare  = 0.15
	simdDupShare   = 0.25 // of misses
	simdDupDelay   = 2 * time.Millisecond
	simdMinBW      = 0.2 // lowest link bandwidth share a miss's plan draws
	simdPoll       = 2 * time.Millisecond
	simdDrainLimit = 60 * time.Second
	simdGoldenMiss = 8 // misses folded into the golden digest
	simdSetups     = 3 // each pre-fills the whole hit set, seconds apiece
	// simdSegment is the length of one open-loop stretch of the measured
	// run; the server drains after each, and the reference loop is timed
	// only then.
	simdSegment = 5 * time.Second
	// simdMissLimit is the latency limit on a rate step's miss p90; the
	// same bound applies to the backlog left when its arrivals stop.
	simdMissLimit = 500 * time.Millisecond
)

// ladderRates are the fixed offered rates (requests/s) of the traced
// run's capacity ladder.
var ladderRates = []float64{simdRate, 2 * simdRate, 4 * simdRate, 8 * simdRate}

// missExperiment is what every miss runs: quick fig2, a LAMMPS sweep over
// both networks, node counts and PPN, so each miss is a parallel sweep.
// One experiment keeps the miss latency unimodal; a mix of experiments
// whose run times differ tenfold puts the median between two of them,
// where it jumps with the seed's draw.
const missExperiment = "fig2"

// request is one scheduled submission and what became of it.
type request struct {
	due      time.Duration // offset from the start of the phase
	spec     experiments.Spec
	hit      bool // expected to be served from the pre-filled cache
	dup      bool // a miss submitted again just after the original
	missSeq  int  // order among distinct misses, or -1
	sent     time.Time
	answered time.Time // POST response
	done     time.Time // hits: the POST response; misses: poll saw done
	id       string
	checksum string
	err      string
}

// missSpecs numbers the distinct misses and draws each one's plan from a
// stream of its own, so the k-th miss is the same spec whatever the phase
// lengths and the arrival draws: the golden digest's first misses do not
// depend on --seconds or --trace.
type missSpecs struct {
	src  *rng.Source
	next int
}

func (m *missSpecs) draw() (experiments.Spec, int) {
	seq := m.next
	m.next++
	// Links derated to a seeded bandwidth in [simdMinBW, 1); the plan
	// seed numbers the miss, so no two misses share a cache key. (At 0.08
	// and below, quick fig2's IB points exhaust the transport's retry
	// budget and the run fails.)
	return experiments.Spec{Experiment: missExperiment, Quick: true,
		Faults: fmt.Sprintf("degrade:all:bw=%.4f:seed=%d", simdMinBW+(1-simdMinBW)*m.src.Float64(), seq+1)}, seq
}

// simdSchedule draws one phase's requests.
func simdSchedule(src *rng.Source, d time.Duration, catalog []string, rate float64, misses *missSpecs) []*request {
	var reqs []*request
	t := 0.0
	for {
		t += src.ExpFloat64(rate)
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return reqs
		}
		if src.Float64() >= simdMissShare {
			reqs = append(reqs, &request{due: due, hit: true, missSeq: -1,
				spec: experiments.Spec{Experiment: catalog[src.Intn(len(catalog))], Quick: true}})
			continue
		}
		spec, seq := misses.draw()
		reqs = append(reqs, &request{due: due, spec: spec, missSeq: seq})
		if src.Float64() < simdDupShare {
			reqs = append(reqs, &request{due: due + simdDupDelay, spec: spec, dup: true, missSeq: -1})
		}
	}
}

// simdServer is one in-process job server on a loopback listener, with
// a client limited to two connections.
type simdServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
	hits   map[string]string // experiment -> checksum from the pre-fill
}

func startSimd(cfg config) (*simdServer, error) {
	dir := fmt.Sprintf("%s/.bench_build/perfbench/simd-cache-%d", cfg.root, os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	s := &simdServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir, hits: map[string]string{},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job server, closes the listener and waits for the
// serving goroutine to return.
func (s *simdServer) stop() error {
	err := s.srv.Drain(context.Background())
	if e := s.hs.Shutdown(context.Background()); e != nil && err == nil {
		err = e
	}
	if e := <-s.served; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	s.client.CloseIdleConnections()
	if e := os.RemoveAll(s.dir); e != nil && err == nil {
		err = e
	}
	return err
}

// post submits a spec; wait asks the server to answer once it is done.
func (s *simdServer) post(spec experiments.Spec, wait bool) (int, server.JobView, error) {
	body, err := json.Marshal(server.SubmitRequest{Spec: spec, Wait: wait})
	if err != nil {
		return 0, server.JobView{}, err
	}
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, server.JobView{}, err
	}
	return decode(resp)
}

func (s *simdServer) get(path string, v interface{}) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func decode(resp *http.Response) (int, server.JobView, error) {
	defer resp.Body.Close()
	var v server.JobView
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, v, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, &v)
	}
	return resp.StatusCode, v, err
}

// prefill submits every experiment's quick fault-free spec, two at a
// time, and records each artifact's checksum: the hit set.
func (s *simdServer) prefill(catalog []string) error {
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range next {
				status, v, err := s.post(experiments.Spec{Experiment: id, Quick: true}, true)
				if err == nil && (status != http.StatusOK || v.State != server.StateDone) {
					err = fmt.Errorf("pre-fill %s: status %d state %s %s", id, status, v.State, v.Error)
				}
				mu.Lock()
				if err == nil {
					s.hits[id] = v.Checksum
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, id := range catalog {
		next <- id
	}
	close(next)
	wg.Wait()
	return firstErr
}

// phase drives one open-loop stretch: a submitter sends each request at
// its due time, a poller follows accepted misses until they finish.
type phase struct {
	reqs       []*request
	start, end time.Time
	queueDepth int
}

// backlog is how long the phase ran on after its last arrival was due:
// the time the server needed to clear the work still queued or running.
func (ph *phase) backlog() time.Duration {
	if len(ph.reqs) == 0 {
		return 0
	}
	return ph.end.Sub(ph.start.Add(ph.reqs[len(ph.reqs)-1].due))
}

func (s *simdServer) runPhase(reqs []*request, tr *tracer, opBase int) *phase {
	ph := &phase{reqs: reqs, start: time.Now()}
	pending := make(chan *request, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.poll(pending, ph)
	}()
	for i, r := range reqs {
		if wait := time.Until(ph.start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		sp := tr.begin("server.admit", opBase+i, 0)
		r.sent = time.Now()
		status, v, err := s.post(r.spec, false)
		r.answered = time.Now()
		tr.end(sp)
		r.id, r.checksum = v.ID, v.Checksum
		switch {
		case err != nil:
			r.err = err.Error()
		case status/100 != 2:
			r.err = fmt.Sprintf("status %d", status)
		case v.State == server.StateDone:
			r.done = r.answered
		default:
			pending <- r
		}
	}
	close(pending)
	wg.Wait()
	ph.end = time.Now()
	return ph
}

// runOpen drives a schedule as consecutive open-loop segments, letting
// the server drain after each, and returns them with refLoop's times,
// taken only while the server is idle: before the first segment and
// after each. Beside the server's own work the reference would slow down
// with it, and so hide part of a slowdown in the figures it scales.
func (s *simdServer) runOpen(reqs []*request, tr *tracer, opBase int) ([]*phase, []float64) {
	refs := idleRefs()
	var phases []*phase
	for _, seg := range segments(reqs) {
		phases = append(phases, s.runPhase(seg, tr, opBase))
		opBase += len(seg)
		refs = append(refs, idleRefs()...)
	}
	return phases, refs
}

// segments cuts a schedule into stretches of simdSegment, each due time
// made relative to its stretch's start; a duplicate stays with the miss
// it repeats.
func segments(reqs []*request) [][]*request {
	var out [][]*request
	for k := 0; len(reqs) > 0; k++ {
		start, end := time.Duration(k)*simdSegment, time.Duration(k+1)*simdSegment
		n := 0
		for n < len(reqs) && (reqs[n].due < end || reqs[n].dup) {
			n++
		}
		if n == 0 {
			continue
		}
		for _, r := range reqs[:n] {
			r.due -= start
		}
		out = append(out, reqs[:n])
		reqs = reqs[n:]
	}
	return out
}

// idleRefs times the reference loop a few times in a row.
func idleRefs() []float64 { return []float64{refLoop(), refLoop(), refLoop()} }

// poll follows each accepted request with GET /v1/jobs/{id} until it
// reaches a terminal state, and samples the queue depth.
func (s *simdServer) poll(in <-chan *request, ph *phase) {
	var live []*request
	open := true
	for open || len(live) > 0 {
		if open {
			// Take every request accepted so far without blocking.
		drain:
			for {
				select {
				case r, ok := <-in:
					if !ok {
						open = false
						break drain
					}
					live = append(live, r)
				default:
					break drain
				}
			}
		}
		if !open && len(live) > 0 && time.Since(ph.start) > ph.reqs[len(ph.reqs)-1].due+simdDrainLimit {
			for _, r := range live {
				r.err = "not finished within the drain limit"
			}
			return
		}
		var health struct {
			QueueDepth int `json:"queue_depth"`
		}
		if err := s.get("/v1/healthz", &health); err == nil && health.QueueDepth > ph.queueDepth {
			ph.queueDepth = health.QueueDepth
		}
		kept := live[:0]
		for _, r := range live {
			var v server.JobView
			if err := s.get("/v1/jobs/"+r.id, &v); err != nil {
				r.err = err.Error()
				continue
			}
			switch v.State {
			case server.StateDone:
				r.done, r.checksum = time.Now(), v.Checksum
			case server.StateFailed, server.StateCanceled:
				r.err = fmt.Sprintf("%s: %s", v.State, v.Error)
			default:
				kept = append(kept, r)
			}
		}
		live = kept
		time.Sleep(simdPoll)
	}
}

// outcome checks every request of some phases: answered 2xx, finished done,
// and carrying the checksum its spec must produce — the pre-fill's for
// hits, the first completion's for a repeated miss.
type outcome struct {
	hitMS, missMS, allMS, admitMS []float64
	lagMS                         []float64
	failed                        int
	notes                         []string
	missSums                      map[int]string // missSeq -> checksum
	ids                           []string       // finished distinct misses, for artifact reads
	idMS                          []float64      // and their latencies
	queueDepth                    int            // the largest the server reported
	refMS                         []float64      // reference-loop times taken while the server was idle
}

func (s *simdServer) check(phases []*phase, refs []float64, sums map[string]string) outcome {
	o := outcome{missSums: map[int]string{}, refMS: refs}
	for _, ph := range phases {
		if ph.queueDepth > o.queueDepth {
			o.queueDepth = ph.queueDepth
		}
		s.checkPhase(&o, ph, sums)
	}
	return o
}

func (s *simdServer) checkPhase(o *outcome, ph *phase, sums map[string]string) {
	failf := func(format string, args ...interface{}) {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, fmt.Sprintf(format, args...))
		}
	}
	for _, r := range ph.reqs {
		o.lagMS = append(o.lagMS, ms(r.sent.Sub(ph.start.Add(r.due))))
		if r.err != "" || r.done.IsZero() {
			failf("%s %s: %s", r.spec.Experiment, r.spec.Faults, r.err)
			continue
		}
		o.admitMS = append(o.admitMS, ms(r.answered.Sub(r.sent)))
		lat := ms(r.done.Sub(ph.start.Add(r.due)))
		o.allMS = append(o.allMS, lat)
		key := r.spec.Canonical()
		want, seen := sums[key]
		if r.hit {
			want, seen = s.hits[r.spec.Experiment], true
			o.hitMS = append(o.hitMS, lat)
		} else {
			o.missMS = append(o.missMS, lat)
			if r.missSeq >= 0 {
				o.missSums[r.missSeq] = r.checksum
				o.ids = append(o.ids, r.id)
				o.idMS = append(o.idMS, lat)
			}
		}
		if seen && want != r.checksum {
			failf("%s %s: checksum %s, want %s", r.spec.Experiment, r.spec.Faults, r.checksum, want)
			continue
		}
		sums[key] = r.checksum
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runSimdOpen(cfg config) (*report, error) {
	var catalog []string
	for _, e := range experiments.Catalog() {
		catalog = append(catalog, e.ID)
	}
	if cfg.scale == tiny {
		catalog = []string{"table1", "fig1a", "fig1c"}
	}
	var srv *simdServer
	setup, err := timedSetups(simdSetups, refLoop, func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		srv, err = startSimd(cfg)
		if err != nil {
			return err
		}
		return srv.prefill(catalog)
	})
	if err != nil {
		if srv != nil {
			_ = srv.stop()
		}
		return nil, err
	}
	rep, err := measureSimd(cfg, srv, catalog, setup)
	if e := srv.stop(); e != nil && err == nil {
		err = e
	}
	return rep, err
}

func measureSimd(cfg config, srv *simdServer, catalog []string, setup setupTime) (*report, error) {
	rep := newReport()
	rate := simdRate
	if cfg.scale == tiny {
		rate = 4 * simdRate // enough misses in a one-second smoke run
	}
	src := rng.New(cfg.seed ^ 0x51d0)
	misses := &missSpecs{src: rng.New(cfg.seed ^ 0x3155)}
	d := time.Duration(cfg.seconds) * time.Second
	sums := map[string]string{}
	var plain, traced outcome
	var tr *tracer
	var g0, g1 goSample
	var before map[string]float64
	var err error
	if cfg.trace {
		phs, refs := srv.runOpen(simdSchedule(src, d/2, catalog, rate, misses), nil, 0)
		plain = srv.check(phs, refs, sums)
		if before, err = srv.counters(); err != nil {
			return nil, err
		}
		tr = newTracer()
		g0 = readGo()
		phs, refs = srv.runOpen(simdSchedule(src, d/2, catalog, rate, misses), tr, len(plain.allMS)+plain.failed)
		g1 = readGo()
		traced = srv.check(phs, refs, sums)
	} else {
		phs, refs := srv.runOpen(simdSchedule(src, d, catalog, rate, misses), nil, 0)
		traced = srv.check(phs, refs, sums)
	}
	rep.attempted = len(plain.allMS) + plain.failed + len(traced.allMS) + traced.failed
	rep.failed = plain.failed + traced.failed
	rep.notes = append(append(rep.notes, plain.notes...), traced.notes...)
	if err := srv.checkGolden(cfg, rep, catalog, plain.missSums, traced.missSums); err != nil {
		return nil, err
	}

	o := traced
	rep.setDetail("hit_p50_ms", median(o.hitMS), "ms")
	rep.setDetail("hit_p99_ms", quantile(o.hitMS, 0.99), "ms")
	rep.setDetail("miss_p50_ms", median(o.missMS), "ms")
	rep.setDetail("miss_p90_ms", quantile(o.missMS, 0.9), "ms")
	rep.setDetail("hits", float64(len(o.hitMS)), "count")
	rep.setDetail("misses", float64(len(o.missMS)), "count")
	rep.setDetail("gen.lag_p99_ms", quantile(o.lagMS, 0.99), "ms")
	rep.setDetail("server.queue_depth_max", float64(o.queueDepth), "count")
	scale := hostScale(o.refMS)
	rep.setDetail("ref_loop_ms", refNominalMS/scale, "ms")
	rep.setDetail("setup_s.raw", setup.s, "s")
	rep.setDetail("op_p50_ms.raw", median(o.hitMS), "ms")
	rep.setDetail("job_p50_ms.raw", median(o.missMS), "ms")
	if !cfg.trace {
		rep.set("setup_s", setup.scaled(), "s")
		rep.set("op_p50_ms", median(o.hitMS)*scale, "ms")
		rep.set("job_p50_ms", median(o.missMS)*scale, "ms")
		return rep, nil
	}
	if err := simdLayers(cfg, rep, srv, plain, traced, g0, g1, before); err != nil {
		return nil, err
	}
	srv.rateLadder(cfg, rep, src, catalog, misses)
	return rep, tr.write(spansPath(cfg))
}

// checkGolden compares the run with the shipped digests for its seed:
// one of the hit set's checksums, one of the first simdGoldenMiss
// misses'. The misses' part is skipped, with a note, when a short run
// finished fewer of them.
func (s *simdServer) checkGolden(cfg config, rep *report, catalog []string, missSums ...map[int]string) error {
	var hits []interface{}
	ids := append([]string(nil), catalog...)
	sort.Strings(ids)
	for _, id := range ids {
		hits = append(hits, id, s.hits[id])
	}
	var first []interface{}
	for i := 0; i < simdGoldenMiss; i++ {
		for _, m := range missSums {
			if sum, ok := m[i]; ok {
				first = append(first, sum)
			}
		}
	}
	msg, err := checkGolden(cfg, "", goldenEntry{Digest: digestOf(hits...)})
	if err != nil {
		return err
	}
	if len(first) < simdGoldenMiss {
		rep.notes = append(rep.notes, fmt.Sprintf("golden check of the misses skipped: %d of the first %d finished", len(first), simdGoldenMiss))
	} else if m, err := checkGolden(cfg, ".misses", goldenEntry{Digest: digestOf(first...)}); err != nil {
		return err
	} else if msg == "" {
		msg = m
	}
	if msg != "" {
		rep.failed = rep.attempted
		rep.notes = append(rep.notes, msg)
	}
	return nil
}

// rateLadder offers the traffic mix at each ladder rate for a sixth of
// the run and reports the highest rate at which the misses' p90 stays
// under simdMissLimit, no request fails or is refused, and the backlog
// left when arrivals stop clears within the same limit. The ladder is a
// capacity probe: refusals are expected past capacity, so its requests
// stay out of the workload's attempted and failed counts.
func (s *simdServer) rateLadder(cfg config, rep *report, src *rng.Source, catalog []string, misses *missSpecs) {
	step := time.Duration(cfg.seconds) * time.Second / 6
	if step < time.Second {
		step = time.Second
	}
	best := 0.0
	for _, rate := range ladderRates {
		ph := s.runPhase(simdSchedule(src, step, catalog, rate, misses), nil, 0)
		o := s.check([]*phase{ph}, nil, map[string]string{})
		p90 := quantile(o.missMS, 0.9)
		rep.setDetail(fmt.Sprintf("ladder.%g.miss_p90_ms", rate), p90, "ms")
		rep.setDetail(fmt.Sprintf("ladder.%g.backlog_ms", rate), ms(ph.backlog()), "ms")
		if o.failed > 0 || len(o.missMS) == 0 || p90 > ms(simdMissLimit) || ph.backlog() > simdMissLimit {
			break
		}
		best = rate
	}
	rep.setDetail("max_rate_jps", best, "jobs/s")
}

// counters reads the server's own counters from /v1/metrics.
func (s *simdServer) counters() (map[string]float64, error) {
	var snap metrics.Snapshot
	if err := s.get("/v1/metrics", &snap); err != nil {
		return nil, err
	}
	c := map[string]float64{}
	for _, p := range snap.Counters {
		c[p.Name] = float64(p.Value)
	}
	return c, nil
}

// simdLayers reads the server's counters over the traced phase (from
// before, the snapshot at its start) and the phase's artifacts, then runs
// the layer probes.
func simdLayers(cfg config, rep *report, srv *simdServer, plain, o outcome, g0, g1 goSample, before map[string]float64) error {
	after, err := srv.counters()
	if err != nil {
		return err
	}
	c := map[string]float64{}
	for name, v := range after {
		c[name] = v - before[name]
	}
	submitted := c["server.cache_hits"] + c["server.cache_misses"] + c["server.jobs_deduped"]
	if submitted > 0 {
		rep.setDetail("server.hit_ratio", c["server.cache_hits"]/submitted, "fraction")
		rep.setDetail("server.dedup_ratio", c["server.jobs_deduped"]/submitted, "fraction")
	}
	rep.setDetail("server.rejected", c["server.jobs_rejected_quota"]+c["server.jobs_rejected_queue"], "count")
	rep.setDetail("server.admit_ms.p50", median(o.admitMS), "ms")
	rep.setDetail("server.admit_ms.p99", quantile(o.admitMS, 0.99), "ms")

	// Each finished miss's artifact carries the runner's wall time for
	// the job and the simulation events its registry counted.
	var runMS, waitMS []float64
	var wall, events float64
	var largest *runner.Artifact
	var largestSize int
	for i, id := range o.ids {
		var a runner.Artifact
		if err := srv.get("/v1/jobs/"+id+"/result", &a); err != nil {
			return err
		}
		runMS = append(runMS, a.Meta.WallMS)
		waitMS = append(waitMS, o.idMS[i]-a.Meta.WallMS)
		wall += a.Meta.WallMS * 1e6
		events += float64(a.Meta.SimEvents)
		if n := len(fmt.Sprint(a.Tables)); n > largestSize {
			largest, largestSize = &a, n
		}
	}
	rep.setDetail("server.run_ms.p50", median(runMS), "ms")
	rep.setDetail("server.run_ms.p90", quantile(runMS, 0.9), "ms")
	rep.setDetail("server.queue_wait_ms.p50", median(waitMS), "ms")
	rep.setDetail("server.queue_wait_ms.p90", quantile(waitMS, 0.9), "ms")
	if events > 0 {
		rep.set("sim.host_ns_per_event", wall/events, "ns")
	}

	ops := float64(len(o.allMS))
	allocs, allocBytes, gc := goDelta(g0, g1, ops)
	rep.set("go.allocs_per_op", allocs, "count")
	rep.set("go.alloc_bytes_per_op", allocBytes, "B")
	rep.set("go.gc_cpu_frac", gc, "fraction")
	rep.set("trace.overhead_frac", median(o.hitMS)*hostScale(o.refMS)/(median(plain.hitMS)*hostScale(plain.refMS))-1, "fraction")

	if largest == nil {
		return fmt.Errorf("no miss finished in the traced phase")
	}
	return runProbes(rep, probeSizing(16, 8*1024), cfg, largest)
}
