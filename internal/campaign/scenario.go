package campaign

// Scenario generation: a deterministic, seed-driven sampler over the
// fault × topology × workload space. Every axis the paper's comparison
// turns on is explored — interconnect, node count and switch radix
// (single-leaf vs multi-spine Clos), processes per node, message size
// across the eager/rendezvous boundary, protocol threshold overrides —
// crossed with fault plans drawn from the internal/fault grammar.
// Scenarios are pure data: canonically encodable, comparable, and
// replayable byte-for-byte from a corpus file.

import (
	"fmt"
	"net/url"
	"strings"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// Scenario is one generated configuration: a machine shape, a workload,
// and a fault plan. The zero Radix keeps the platform default
// (single-leaf at small node counts).
type Scenario struct {
	Name     string      `json:"name"`
	Network  string      `json:"network"` // "IB" | "Elan4" (platform.Network.Short)
	Ranks    int         `json:"ranks"`
	PPN      int         `json:"ppn"`
	Radix    int         `json:"radix,omitempty"`
	Workload string      `json:"workload"` // "pingpong" | "stream" | "ring"
	Size     units.Bytes `json:"size"`
	Iters    int         `json:"iters"`
	// EagerKiB overrides the transport eager/rendezvous threshold (KiB);
	// 0 keeps the calibrated default.
	EagerKiB int `json:"eager_kib,omitempty"`
	// Faults is an explicit clause spec (never "storm:", so specs compose);
	// empty means a clean fabric.
	Faults string `json:"faults,omitempty"`
}

// Net resolves the scenario's interconnect.
func (s *Scenario) Net() platform.Network {
	if s.Network == "IB" {
		return platform.InfiniBand4X
	}
	return platform.QuadricsElan4
}

// Nodes is the compute-node count the platform will build (block rank
// mapping, ceil division).
func (s *Scenario) Nodes() int {
	ppn := s.PPN
	if ppn < 1 {
		ppn = 1
	}
	return (s.Ranks + ppn - 1) / ppn
}

// RadixOrDefault resolves the switch radix the platform will use.
func (s *Scenario) RadixOrDefault() int {
	if s.Radix > 0 {
		return s.Radix
	}
	if s.Net() == platform.InfiniBand4X {
		return platform.IBRadix
	}
	return platform.ElanRadix
}

// Clos builds the scenario's topology, for fault-plan compilation and
// introspection.
func (s *Scenario) Clos() (*topology.Clos, error) {
	return topology.NewClos(s.Nodes(), s.RadixOrDefault())
}

// Canonical returns the deterministic text encoding of everything that
// determines the scenario's behaviour (the Name is a label, not
// identity). Reproducer checksums and campaign report digests are
// derived from it.
//
// The literal "&shards=0" segment is a fossil of the removed sharded-kernel
// scenario field. It stays so that the encoding — and with it the checksum
// of every reproducer sealed before the removal — is unchanged; a
// reproducer that recorded a nonzero shard count no longer verifies.
func (s *Scenario) Canonical() string {
	return fmt.Sprintf("net=%s&ranks=%d&ppn=%d&radix=%d&workload=%s&size=%d&iters=%d&eager=%d&shards=0&faults=%s",
		s.Network, s.Ranks, s.PPN, s.Radix, s.Workload, s.Size, s.Iters,
		s.EagerKiB, url.QueryEscape(s.Faults))
}

// shapes are the machine geometries the generator samples: the paper's
// single-leaf testbed shape plus narrow-radix multi-spine fabrics where
// route-around and spine faults have something to act on.
var shapes = []struct {
	ranks, ppn, radix int
}{
	{2, 1, 0},  // two nodes, single leaf — the latency testbed
	{4, 2, 0},  // two nodes, 2 ranks each — shared-memory + fabric mix
	{4, 1, 4},  // 4 nodes on radix-4: 2-level Clos, 2 spines
	{8, 1, 4},  // 8 nodes on radix-4: the spine-outage shape
	{8, 2, 4},  // 4 nodes, 2 ranks each, multi-spine
	{16, 2, 4}, // 8 nodes, 2 ranks each — the largest shape
}

var workloads = []string{"pingpong", "stream", "ring"}

var sizes = []units.Bytes{0, 512, 4 * units.KiB, 32 * units.KiB, 256 * units.KiB}

// eagerChoices are threshold overrides in KiB; 0 keeps the default. 1
// forces almost everything rendezvous, 64 forces the sweep sizes eager.
var eagerChoices = []int{0, 0, 1, 64}

// Generate derives count scenarios from the seed, deterministically: the
// same (seed, count) always yields the same list, and scenario i of a
// longer run equals scenario i of a shorter one. Fault plans are
// canonicalized to explicit clause specs so they compose and shrink.
func Generate(seed uint64, count int) []Scenario {
	r := rng.New(seed)
	out := make([]Scenario, 0, count)
	for i := 0; i < count; i++ {
		sc := Scenario{Name: fmt.Sprintf("c%03d", i)}
		if r.Intn(2) == 0 {
			sc.Network = "Elan4"
		} else {
			sc.Network = "IB"
		}
		shape := shapes[r.Intn(len(shapes))]
		sc.Ranks, sc.PPN, sc.Radix = shape.ranks, shape.ppn, shape.radix
		sc.Workload = workloads[r.Intn(len(workloads))]
		sc.Size = sizes[r.Intn(len(sizes))]
		sc.Iters = 3 + r.Intn(10)
		sc.EagerKiB = eagerChoices[r.Intn(len(eagerChoices))]

		// Roughly one in four scenarios runs clean (the equivalence and
		// conservation contracts still bite); the rest draw a fault plan
		// against the concrete topology.
		if r.Intn(4) != 0 {
			sc.Faults = randomFaults(r, &sc)
		}
		out = append(out, sc)
	}
	return out
}

// randomFaults draws a fault plan for the scenario's topology and
// canonicalizes it to an explicit clause spec. Plans mix the storm
// generator's moderate-severity windows with targeted edge-link and
// spine faults; down windows are always bounded (an unbounded dead link
// is a hang by design, not a scenario worth generating).
func randomFaults(r *rng.Source, sc *Scenario) string {
	clos, err := sc.Clos()
	if err != nil {
		return ""
	}
	switch r.Intn(4) {
	case 0:
		// A storm plan, canonicalized clause by clause.
		return fault.Random(1+r.Uint64()%1_000_000, clos).Spec()
	case 1:
		// Loss on rank 0's injection link, the xfault sweep's axis.
		return fmt.Sprintf("loss:inj(0):p=%g", 0.001+0.02*r.Float64())
	case 2:
		// A bounded down window on an edge link.
		node := r.Intn(clos.Nodes)
		return fmt.Sprintf("down:ej(%d):at=%dus:for=%dus", node, 5+r.Intn(30), 20+r.Intn(180))
	default:
		// Degrade or take down a spine when the topology has one.
		if clos.Levels == 2 {
			s := r.Intn(clos.Spines)
			if r.Intn(2) == 0 {
				return fmt.Sprintf("down:spine(%d):at=%dus:for=%dus", s, 10+r.Intn(20), 50+r.Intn(250))
			}
			return fmt.Sprintf("degrade:spine(%d):bw=%.2f:lat=%dns", s, 0.3+0.5*r.Float64(), r.Intn(1500))
		}
		return fmt.Sprintf("degrade:all:bw=%.2f", 0.4+0.5*r.Float64())
	}
}

// joinSpecs composes two explicit clause specs (";"-separated grammar;
// neither may be a "storm:" shorthand — canonicalize first).
func joinSpecs(a, b string) string {
	a, b = strings.TrimSpace(a), strings.TrimSpace(b)
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + ";" + b
	}
}
