package core

import (
	"fmt"
	"math/bits"
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/pgas"
	"gravel/internal/wire"
)

// mixPackets builds pkts full 64 kB per-node queues of records that
// scatter over node `to`'s slice of arr (one gups-bulk step's worth
// toward one destination) and returns the templates with the message
// count of each. cmds are taken round-robin: one command word is one
// packet-long run, two alternate on every record (run length 1, the
// applier's worst case).
func mixPackets(cl *Cluster, arr *pgas.Array, to, pkts int, cmds ...uint64) (tmpls [][]byte, msgs int) {
	lo, hi := arr.LocalRange(to)
	b := wire.NewBuilder(to, cl.params.PerNodeQueueBytes)
	x := uint64(88172645463325252)
	for k := 0; k < pkts; k++ {
		for i := 0; !b.Full(); i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.Append(cmds[i%len(cmds)], uint64(lo)+x%uint64(hi-lo), 1)
		}
		var buf []byte
		buf, msgs = b.Take()
		tmpls = append(tmpls, buf)
	}
	return tmpls, msgs
}

// incPackets is mixPackets for the one-command Inc mix.
func incPackets(cl *Cluster, arr *pgas.Array, to, pkts int) (tmpls [][]byte, msgs int) {
	return mixPackets(cl, arr, to, pkts, wire.PackCmd(wire.OpInc, 0, arr.ID()))
}

// benchInject times the receive side alone: each iteration sends the
// pre-built packets of one op mix from node `from` to node 1 and waits
// for quiescence. from == 1 is the node-local bypass, anything else the
// resolver banks. Two bypass metrics are read off the packets, not
// measured: bankruns/pkt is the number of maximal same-bank record runs,
// which is how many bank-mutex hand-offs a packet costs an applier that
// re-locks when the bank flips; locks/pkt is what walk takes, one for
// bank 0 and one for every other bank the packet has a record of.
func benchInject(b *testing.B, shards, from int, mix string) {
	const pkts = 24
	cl := New(Config{Nodes: 4, ResolverShards: shards})
	defer cl.Close()
	arr, arr2 := cl.space.Alloc(1<<18), cl.space.Alloc(1<<18)
	h := cl.RegisterAM(func(int, uint64, uint64) {})
	inc, inc2 := wire.PackCmd(wire.OpInc, 0, arr.ID()), wire.PackCmd(wire.OpInc, 0, arr2.ID())
	cmds := map[string][]uint64{
		"inc": {inc},
		"put": {wire.PackCmd(wire.OpPut, 0, arr.ID())},
		"am":  {wire.PackCmd(wire.OpAM, h, 0)},
		"alt": {inc, inc2},
	}[mix]
	tmpls, msgs := mixPackets(cl, arr, 1, pkts, cmds...)
	runs, locks := 0, 0
	for _, tmpl := range tmpls {
		last, met := -1, uint64(1)
		for i := 0; i < msgs; i++ {
			cmd, a, _ := wire.RecordAt(tmpl, i)
			if bank := fabric.BankOfRecord(cmd, a, shards); bank != last {
				runs, last, met = runs+1, bank, met|1<<bank
			}
		}
		locks += bits.OnesCount64(met)
	}
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
	if from == 1 {
		b.ReportMetric(float64(runs)/pkts, "bankruns/pkt")
		b.ReportMetric(float64(locks)/pkts, "locks/pkt")
	}
	if mix == "inc" || mix == "alt" {
		if got, want := arr.Sum()+arr2.Sum(), uint64(b.N*pkts*msgs); got != want {
			b.Fatalf("%d of %d injected increments applied", got, want)
		}
	}
}

// benchMixes runs benchInject over shards {1,2,4} x the four op mixes.
func benchMixes(b *testing.B, from int) {
	for _, shards := range []int{1, 2, 4} {
		for _, mix := range []string{"inc", "put", "am", "alt"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mix), func(b *testing.B) { benchInject(b, shards, from, mix) })
		}
	}
}

func BenchmarkResolveApply(b *testing.B) { benchMixes(b, 0) }

func BenchmarkBypassApply(b *testing.B) { benchMixes(b, 1) }
