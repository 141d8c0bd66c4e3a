package agg

// Strategy is the send-path aggregation seam: everything the runtime
// needs from the component that turns fine-grain messages into wire
// packets. Both implementations embed the same driver (the aggregator
// thread, the outbox, the flush charge and its count in the node's
// ledger) and differ only in staging:
//
//   - *Aggregator ("ticket"): the paper's design — drained
//     producer/consumer queue slots are repacked into fixed-capacity
//     per-destination builders, flushed when full or at the end-of-step
//     timeout flush.
//   - *Archive ("archive"): a grape-style rival — per-destination
//     growable archives appended directly by the device at WF
//     granularity, sealed into segments and bulk-handed to the fabric
//     (optionally fused per destination).
//
// The contract every implementation must honor:
//
//   - Start/Stop bracket the background drain/pump goroutine; Stop may
//     only be called once the producer/consumer queue is quiescent.
//   - AppendDirect stages one message from host context (AM handler
//     follow-ups) and must never transmit on the calling goroutine —
//     network threads stage through it, and a blocking Send there can
//     deadlock against receiver backpressure.
//   - Drain stages the producer/consumer queue's slots on the calling
//     host thread, as the aggregator thread would; Flush does the same,
//     then forces every staged message toward the wire and transmits.
//     Both must only be called from a host thread.
//   - Signal liveness: a staged PUT_SIGNAL must reach the wire without
//     waiting for the end-of-step flush (a remote waiter spins on it).
//   - Busy reports an in-progress drain attempt and Pending any staged
//     or unsent messages; quiescence detection needs both.
type Strategy interface {
	// Start launches the background drain/pump goroutine.
	Start()
	// Stop terminates it after a final drain; the queue must already
	// be quiescent.
	Stop()
	// Drain stages what the producer/consumer queue holds, if the node
	// has one, on the caller's thread. Host threads only.
	Drain()
	// Flush stages and transmits every buffered message (end-of-step /
	// timeout flush). Host threads only.
	Flush()
	// Pending reports whether any staged or unsent messages remain.
	Pending() bool
	// Busy reports whether a drain attempt is in progress.
	Busy() bool
	// AppendDirect stages one message from host context, charging
	// chargeNs of CPU time. It must not transmit.
	AppendDirect(dest int, cmd, av, vv uint64, chargeNs float64)
	// Name identifies the strategy ("ticket", "archive") for Stats.
	Name() string
}

// Name implements Strategy.
func (a *Aggregator) Name() string { return "ticket" }

var _ Strategy = (*Aggregator)(nil)
