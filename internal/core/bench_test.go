package core

import (
	"fmt"
	"testing"

	"gravel/internal/pgas"
	"gravel/internal/wire"
)

// incPackets builds pkts full 64 kB per-node queues of Inc records that
// scatter over node `to`'s slice of arr (one gups-bulk step's worth
// toward one destination) and returns the templates with the message
// count of each.
func incPackets(cl *Cluster, arr *pgas.Array, to, pkts int) (tmpls [][]byte, msgs int) {
	lo, hi := arr.LocalRange(to)
	cmd := wire.PackCmd(wire.OpInc, 0, arr.ID())
	b := wire.NewBuilder(to, cl.params.PerNodeQueueBytes)
	x := uint64(88172645463325252)
	for k := 0; k < pkts; k++ {
		for !b.Full() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.Append(cmd, uint64(lo)+x%uint64(hi-lo), 1)
		}
		var buf []byte
		buf, msgs = b.Take()
		tmpls = append(tmpls, buf)
	}
	return tmpls, msgs
}

// benchInject times the receive side alone: each iteration sends the
// pre-built packets from node `from` to node 1 and waits for quiescence.
// from == 1 is the node-local bypass, anything else the resolver banks.
func benchInject(b *testing.B, shards, from int) {
	const pkts = 24
	cl := New(Config{Nodes: 4, ResolverShards: shards})
	defer cl.Close()
	arr := cl.space.Alloc(1 << 18)
	tmpls, msgs := incPackets(cl, arr, 1, pkts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tmpl := range tmpls {
			cl.fab.Send(from, 1, append(wire.GetBuf(len(tmpl)), tmpl...), msgs)
		}
		cl.Quiesce()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pkts*msgs), "ns/msg")
	if got, want := arr.Sum(), uint64(b.N*pkts*msgs); got != want {
		b.Fatalf("%d of %d injected increments applied", got, want)
	}
}

func BenchmarkResolveApply(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchInject(b, shards, 0) })
	}
}

func BenchmarkBypassApply(b *testing.B) { benchInject(b, 1, 1) }
