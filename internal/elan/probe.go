package elan

// Order probe: an observation hook on the sequencer output, installed by the
// campaign engine (internal/campaign) to check the paper's §3 in-order
// contract — Elan-4 Tports present every sender's messages to the matching
// engine in transmission order, even when the adaptive fabric (or a
// hardware-retried fault recovery) delivered them out of order on the wire.
//
// Same contract as fabric probes (see fabric/probe.go): zero cost when
// disabled (one nil check at the sequencer-release site); the callback runs
// in event context on destination NICs.

// OrderProbe is called for each envelope the moment the per-sender sequencer
// releases it to the matching engine, with the source rank, destination
// rank, and the per-flow sequence number the sender stamped at TxPost. The
// callback runs in event context and must not block or mutate simulation
// state.
type OrderProbe func(srcRank, dstRank int, seq uint64)

// SetOrderProbe installs (or with nil removes) the network's in-order
// delivery probe. Call before the run starts.
func (n *Network) SetOrderProbe(p OrderProbe) {
	n.orderProbe = p
}
