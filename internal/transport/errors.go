package transport

import (
	"fmt"
	"time"
)

// PeerDownError reports that a peer node has been declared dead: either
// this process's sender made no progress toward it (no acknowledgement,
// no successful dial) for the suspect timeout while traffic was
// pending, or the coordinator stopped hearing the peer's heartbeats.
// It unwinds Step() — through the step vote, which panics it — so a
// vanished peer fails the run with a diagnosis instead of a deadlock.
type PeerDownError struct {
	// Node is the peer declared down.
	Node int
	// Detector names what noticed: "sender" (no ack progress) or
	// "coordinator" (missed heartbeats).
	Detector string
	// Silence is how long the peer had been silent when declared down.
	Silence time.Duration
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer node %d down (%s saw no progress for %v)",
		e.Node, e.Detector, e.Silence.Round(time.Millisecond))
}

// CoordDownError reports that the rendezvous coordinator is
// unreachable: a coordinator RPC (join, checkpoint, heartbeat) failed
// or timed out. Membership and failure detection depend on the
// coordinator, so the run cannot continue.
type CoordDownError struct {
	// Addr is the coordinator address.
	Addr string
	// Cause is the underlying RPC failure.
	Cause error
}

func (e *CoordDownError) Error() string {
	return fmt.Sprintf("transport: coordinator %s down: %v", e.Addr, e.Cause)
}

func (e *CoordDownError) Unwrap() error { return e.Cause }

// StaleGenerationError reports that this transport belongs to a
// membership generation the cluster has moved past: a peer or the
// coordinator is already on a newer generation and refused the
// connection or operation. The process is evicted — its state is from
// a dead epoch — so the error unwinds Step() like a failure, but the
// launcher recognizes it as membership churn rather than a crash.
type StaleGenerationError struct {
	// Have is the generation this transport was configured with.
	Have uint32
	// Want is the newer generation observed on the cluster.
	Want uint32
	// Source names what rejected us: "peer" (evict frame during the
	// stream handshake) or "coordinator" (generation-checked RPC).
	Source string
}

func (e *StaleGenerationError) Error() string {
	return fmt.Sprintf("transport: stale generation %d (cluster %s is at generation %d); evicted",
		e.Have, e.Source, e.Want)
}

// RescaleError reports a planned membership change: the coordinator
// signaled that the cluster is rescaling to a new node count, so the
// current epoch must unwind at its next heartbeat or checkpoint and
// relaunch from checkpoint under the new generation. It is cooperative, not a
// failure — the launcher's elastic loop treats it as a scheduled epoch
// boundary and does not charge it against the recovery budget.
type RescaleError struct {
	// Nodes is the node count the next epoch will run with.
	Nodes int
	// Gen is the generation the coordinator will assign the new epoch.
	Gen uint32
}

func (e *RescaleError) Error() string {
	return fmt.Sprintf("transport: cluster rescaling to %d nodes (generation %d); epoch unwinding", e.Nodes, e.Gen)
}
