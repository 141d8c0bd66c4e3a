package agg

import (
	"sync"
	"sync/atomic"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/park"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// readyPkt is a flushed queue waiting in the outbox to be put on the
// wire.
type readyPkt struct {
	dest int
	buf  []byte
	msgs int
}

// consumer stages one drained queue slot (queue.Gravel.TryConsume's
// callback).
type consumer = func(payload []uint64, rows, cols, count int)

// driver is the aggregator thread itself (§3.4; one per node, which
// the paper found best on its 4-thread CPU), the part every strategy
// shares: it drains the producer/consumer queue, if the node has one,
// hands each drained slot to the strategy's staging, and transmits
// whatever the staging has flushed into the outbox. A strategy embeds
// it and adds only how messages are staged between those two ends. The
// paper's thread polls on a core of its own; this one shares its
// processors with the threads it serves, so with nothing to drain or
// transmit it parks on work until a Commit or a stage wakes it — at
// once, without park's spin: no Step waits for an idle aggregator (a
// launch's epilogue drains the queue on its own thread), and a yielding
// spinner keeps a processor from stealing the work a Step does wait
// for.
//
// Flush decisions happen under the strategy's staging locks, but
// transmission — which can block on receiver backpressure — happens
// outside every lock (see pump), so network threads can always stage
// follow-up messages without risking a send/receive deadlock.
type driver struct {
	node   int
	params *timemodel.Params
	q      *queue.Gravel // nil: only AppendDirect and device appends stage
	fab    fabric.Fabric
	clock  *timemodel.Clocks

	// consume stages one drained slot. The strategy's constructor sets it
	// once, so the hot TryConsume path passes a preallocated closure.
	consume consumer
	// drains serializes the claim-and-stage of slots: the launch
	// epilogue's Drain shares consume with the aggregator thread, and a
	// slot claimed after another must not reach staging before it, or
	// one source's messages to one destination leave out of issue order.
	drains sync.Mutex

	// The outbox. A staging lock may be held while mu is taken, never
	// the reverse, and mu is never held across Send.
	mu    sync.Mutex
	ready []readyPkt // flushed queues awaiting transmission
	spare []readyPkt // drained batch recycled for the next swap

	// inFlight counts the drains and pumps that hold messages: it keeps
	// quiescence from declaring the node idle while a claimed slot has
	// not reached staging, or a popped packet has not reached fab.Send.
	// It is raised only where there is something to hold (a committed
	// slot, a non-empty outbox), so Busy never reports an aggregator
	// that is merely looking, and whoever lowers it to zero wakes idle,
	// where Quiesce waits.
	inFlight atomic.Int64
	idle     *park.Event // the fabric's Progress event

	// work is what an idle aggregator thread parks on: the queue's
	// Commit and stage wake it, and Stop.
	work    park.Event
	stopped atomic.Bool

	done chan struct{}
}

func newDriver(node int, params *timemodel.Params, q *queue.Gravel, fab fabric.Fabric, clock *timemodel.Clocks) *driver {
	d := &driver{
		node:   node,
		params: params,
		q:      q,
		fab:    fab,
		clock:  clock,
		idle:   fab.Progress(),
		done:   make(chan struct{}),
	}
	if q != nil {
		q.WakeOnCommit(&d.work)
	}
	return d
}

// Start launches the aggregator thread.
func (d *driver) Start() {
	go func() {
		defer close(d.done)
		d.run()
	}()
}

// Stop terminates the aggregator after the queue is fully drained.
func (d *driver) Stop() {
	d.stopped.Store(true)
	d.work.Wake()
	<-d.done
}

func (d *driver) run() {
	for {
		worked := d.drainSome()
		if d.pump() {
			worked = true
		}
		if worked {
			continue
		}
		if d.stopped.Load() {
			// Final drain: the queue must already be quiescent when
			// Stop is called, but be safe.
			for d.drainSome() {
			}
			d.pump()
			return
		}
		d.work.WaitParked(d.hasWork)
	}
}

// hasWork is what an idle aggregator thread waits for: a committed
// slot, a staged packet, or Stop.
func (d *driver) hasWork() bool {
	return d.committed() || d.unsent() || d.stopped.Load()
}

// committed reports whether the node's queue holds a committed slot.
func (d *driver) committed() bool { return d.q != nil && d.q.Ready() }

// hold and release bracket a drain or a pump that has messages in hand.
func (d *driver) hold() { d.inFlight.Add(1) }

func (d *driver) release() {
	if d.inFlight.Add(-1) == 0 {
		d.idle.Wake()
	}
}

// drainSome consumes up to 64 slots, so a busy queue cannot keep the
// thread from pumping; it reports whether any were consumed. The hold
// is taken before the first claim: a queue this thread's claim empties
// is Busy from before Empty turns true until the slot is staged.
func (d *driver) drainSome() bool {
	if !d.committed() {
		return false
	}
	d.hold()
	defer d.release()
	d.drains.Lock()
	defer d.drains.Unlock()
	any := false
	for n := 0; n < 64; n++ {
		if !d.q.TryConsume(d.consume) {
			break
		}
		any = true
	}
	return any
}

// Drain empties the producer/consumer queue on the caller's thread the
// way the aggregator thread does, under the hold; it is the head of
// every strategy's Flush. A host thread about to wait for the queue to drain
// (the launch epilogue) calls it first, so the wait is for a slot an
// aggregator thread has already claimed, not for a parked thread to be
// scheduled.
func (d *driver) Drain() {
	for d.drainSome() {
	}
}

// slotRows charges the repack of one drained slot of count messages and
// splits its payload into the command, destination and operand rows.
func (d *driver) slotRows(payload []uint64, cols, count int) (cmd, dest, a, b []uint64) {
	d.clock.AddAgg(d.params.AggPerSlotNs + float64(count)*d.params.AggPerMsgNs)
	d.clock.CountAggSlot(count)
	return payload[wire.RowCmd*cols:], payload[wire.RowDest*cols:], payload[wire.RowA*cols:], payload[wire.RowB*cols:]
}

// stage accounts one flushed queue — the AggPerFlushNs charge, and its
// reason (§3.4): the queue filled and goes at once, or the end-of-step
// timeout flush forced it out — and puts it in the outbox. It never
// transmits, so it is safe under a staging lock and on a network
// thread. timeout is true only from a strategy's Flush, which pumps the
// outbox itself before it returns, so only the other stagers wake an
// aggregator thread to do it.
func (d *driver) stage(dest int, buf []byte, msgs int, timeout bool) {
	d.clock.AddAgg(d.params.AggPerFlushNs)
	d.clock.CountFlush(timeout)
	if obs.Enabled() {
		k := obs.KAggFlushFull
		if timeout {
			k = obs.KAggFlushTimeout
		}
		obs.Emit(k, d.node, int64(len(buf)), int64(msgs), "")
	}
	d.mu.Lock()
	d.ready = append(d.ready, readyPkt{dest: dest, buf: buf, msgs: msgs})
	d.mu.Unlock()
	if !timeout {
		d.work.Wake()
	}
}

// pump transmits the outbox; it reports whether anything was sent. It
// swaps the whole list out under the lock (ping-ponging between two
// reusable backing arrays, so the steady state stages and drains without
// allocating) and sends outside it. Send can block on receiver
// backpressure, so pump must only be called from an aggregator thread
// or a host thread — never a network thread.
func (d *driver) pump() bool {
	any := false
	for {
		d.mu.Lock()
		if len(d.ready) == 0 {
			d.mu.Unlock()
			return any
		}
		// Held from before the batch leaves the outbox: the packets are
		// unsent or in flight at every instant until the fabric has them.
		d.hold()
		batch := d.ready
		d.ready = d.spare[:0]
		d.spare = nil
		d.mu.Unlock()
		for i := range batch {
			pkt := &batch[i]
			d.fab.Send(d.node, pkt.dest, pkt.buf, pkt.msgs)
			batch[i] = readyPkt{} // the fabric owns the buffer now
		}
		d.mu.Lock()
		if d.spare == nil {
			d.spare = batch[:0]
		} else if cap(d.ready) == 0 {
			// A concurrent pump took the spare and has returned its own
			// batch already; without this the second array is lost and
			// the next stage allocates.
			d.ready = batch[:0]
		}
		d.mu.Unlock()
		d.release()
		any = true
	}
}

// Busy reports whether a drain or a pump has messages in hand;
// quiescence detection needs this to close the window between a slot
// being claimed and its messages reaching staging.
func (d *driver) Busy() bool { return d.inFlight.Load() != 0 }

// unsent reports whether the outbox holds packets. A strategy's Pending
// checks its staging first and the outbox second — the direction
// messages move — so one in transit between them is never missed.
func (d *driver) unsent() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ready) > 0
}
