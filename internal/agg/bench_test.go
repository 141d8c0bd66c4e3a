package agg

import (
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// BenchmarkFlushRoundTrip measures the full host hot path: messages are
// staged into per-node builders, flushed as 64 kB packets onto the
// fabric, applied by a draining consumer, and released with Done. With
// the pooled buffer lifecycle this loop is allocation-free in steady
// state; -benchmem makes any per-packet garbage visible.
func BenchmarkFlushRoundTrip(b *testing.B) {
	p := timemodel.Default()
	clocks := []*timemodel.Clocks{{}, {}}
	fab := fabric.New(p, clocks)
	q := queue.NewGravel(64, wire.SlotRows, 4)
	a := New(0, p, q, fab, clocks[0], false)

	// One op = one full per-node queue staged, flushed, applied, and
	// recycled.
	msgsPerPacket := p.PerNodeQueueBytes / wire.MsgWireBytes
	cmd := wire.PackCmd(wire.OpInc, 0, 1)
	drain := func() {
		for {
			select {
			case pkt := <-fab.Inbox(1):
				fab.Done(pkt)
			default:
				return
			}
		}
	}
	b.SetBytes(int64(msgsPerPacket * wire.MsgWireBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < msgsPerPacket; m++ {
			a.AppendDirect(1, cmd, uint64(m), 1, 0)
		}
		a.Flush()
		drain()
	}
}

// BenchmarkRepackDrain measures the aggregator's queue-drain path: one
// op reserves, commits and drains one full WG slot (256 messages) into
// the per-node builders, then flushes, applies and recycles the
// part-filled builder (repackRoundTrip).
func BenchmarkRepackDrain(b *testing.B) {
	op, msgs := repackRoundTrip()
	b.SetBytes(int64(msgs * wire.MsgWireBytes))
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgs), "ns/msg")
}

// BenchmarkArchiveRoundTrip measures the archive strategy's hot path:
// one op appends a full per-node queue at wavefront granularity,
// flushes it onto the fabric, applies it and recycles the buffer.
func BenchmarkArchiveRoundTrip(b *testing.B) {
	op, bytes := archiveRoundTrip()
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
