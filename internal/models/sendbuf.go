package models

import (
	"sync"

	"gravel/internal/core"
	"gravel/internal/wire"
)

// sendBuffers is a node's set of GPU-side per-destination queues, shared
// by all of the node's work-groups: the coprocessor model fills them
// from the GPU and exchanges them at chunk boundaries.
type sendBuffers struct {
	node *core.Node
	cl   *core.Cluster

	mu        sync.Mutex
	b         []*wire.Builder
	overflows int // mid-chunk full-queue flushes since the last take
}

func newSendBuffers(cl *core.Cluster, node *core.Node, capBytes int) *sendBuffers {
	nb := &sendBuffers{node: node, cl: cl}
	nb.b = make([]*wire.Builder, cl.Nodes())
	for d := range nb.b {
		nb.b[d] = wire.NewBuilder(d, capBytes)
	}
	return nb
}

// byDest groups a batch's active lanes by destination: f runs once per
// destination present, in ascending node order, with that
// destination's lanes in lane order and as a WG-sized mask (both in
// the batch's scratch, reused across invocations).
func byDest(b *core.Batch, nodes int, f func(dest int, lanes []int, mask []bool)) {
	for d := 0; d < nodes; d++ {
		lanes := b.Lanes[:0]
		for l, on := range b.Active {
			on = on && b.Dests[l] == d
			b.Mask[l] = on
			if on {
				lanes = append(lanes, l)
			}
		}
		if len(lanes) > 0 {
			f(d, lanes, b.Mask)
		}
	}
}

// appendList adds the given lanes' messages, all bound for dest,
// flushing whenever the queue fills. Signal records also flush it,
// eagerly: a remote waiter spins on the signal until it arrives, and
// the staging buffers would otherwise hold it to the next chunk or step
// boundary — which the waiter's spin prevents from ever coming. One
// flush per signal keeps flush counts deterministic.
func (s *sendBuffers) appendList(dest int, lanes []int, b *core.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.b[dest]
	for _, l := range lanes {
		if q.Full() {
			s.overflows++
			s.flushLocked(dest)
		}
		cmd := b.CmdAt(l)
		q.Append(cmd, b.A[l], b.V[l])
		if wire.Op(cmd&0xff) == wire.OpPutSignal {
			s.flushLocked(dest)
		}
	}
}

func (s *sendBuffers) flushLocked(dest int) {
	b := s.b[dest]
	if b.Empty() {
		return
	}
	buf, msgs := b.Take()
	s.cl.Fabric().Send(s.node.ID, dest, buf, msgs)
}

// flushAll sends every non-empty queue (chunk boundary or quiescence).
func (s *sendBuffers) flushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d := range s.b {
		s.flushLocked(d)
	}
}

// takeOverflows returns and resets the mid-chunk overflow count.
func (s *sendBuffers) takeOverflows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.overflows
	s.overflows = 0
	return n
}
