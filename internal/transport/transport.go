// Package transport carries fabric.Packet traffic over real byte
// streams, so a Gravel cluster can run as N OS processes. The paper
// ships its per-node queues over InfiniBand via MPI (§3.4, §6); this
// package is the reproduction's equivalent layer — connection
// management, framing, reliability, and progress — below the aggregator
// and above the OS.
//
// New builds any of the three transports by name: the channel fabric
// "chan" (package fabric) and this package's two:
//
//   - "loopback": in-process, every packet round-trips through the real
//     frame codec into bounded per-destination queues. Deterministic,
//     used by unit tests and as a framing-path reference.
//   - "tcp": real sockets. Each process hosts one node; per-destination
//     connection pools with reconnect (exponential backoff + jitter),
//     sequence-numbered frames with cumulative acks and retransmit
//     (exactly-once delivery across connection drops), bounded send and
//     receive queues for backpressure, a FIN/FIN-ACK drain handshake on
//     Close, a rendezvous coordinator for peer discovery, checkpoints
//     and failure detection, and, on the peer streams, a step vote that
//     extends the runtime's Quiet() and step barrier across processes
//     and the host collectives.
//
// Time stays virtual on every transport: a frame charges the same
// LogGP wire occupancy the in-process fabrics charge.
package transport

import (
	"fmt"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
)

// Names lists the transports New builds, sorted.
func Names() []string { return []string{"chan", "loopback", "tcp"} }

// New builds the transport name ("" means "chan") over the given
// per-node clocks. The in-process transports read only
// opt.ResolverBanks.
func New(name string, p *timemodel.Params, clocks []*timemodel.Clocks, opt fabric.Options) (fabric.Fabric, error) {
	switch name {
	case "", "chan":
		return fabric.NewBanked(p, clocks, opt.ResolverBanks), nil
	case "loopback":
		return NewLoopbackBanked(p, clocks, opt.ResolverBanks), nil
	case "tcp":
		return NewTCP(p, clocks, opt)
	}
	return nil, fmt.Errorf("transport: unknown transport %q (have %v)", name, Names())
}
