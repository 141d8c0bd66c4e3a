package agg

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/park"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// recFabric records every packet a strategy hands to the wire. The
// strategies reach only Nodes, Progress and Send; anything else hits
// the nil embedded interface and panics.
type recFabric struct {
	fabric.Fabric
	nodes int

	mu   sync.Mutex
	pkts []recPkt
}

type recPkt struct {
	dest int
	cmds []uint64
	seqs []uint64
}

func (f *recFabric) Nodes() int { return f.nodes }

func (f *recFabric) Progress() *park.Event { return nil }

func (f *recFabric) Send(from, to int, buf []byte, msgs int) {
	p := recPkt{dest: to}
	if err := wire.Decode(buf, func(cmd, a, v uint64) {
		p.cmds = append(p.cmds, cmd)
		p.seqs = append(p.seqs, a)
	}); err != nil || len(p.seqs) != msgs {
		panic(fmt.Sprintf("packet to %d: %d records, header says %d, err %v", to, len(p.seqs), msgs, err))
	}
	wire.PutBuf(buf)
	f.mu.Lock()
	f.pkts = append(f.pkts, p)
	f.mu.Unlock()
}

func (f *recFabric) sent() []recPkt {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]recPkt(nil), f.pkts...)
}

func (f *recFabric) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pkts)
}

// waitSent blocks until n packets have reached the wire.
func (f *recFabric) waitSent(t *testing.T, n int) []recPkt {
	t.Helper()
	for t0 := time.Now(); ; runtime.Gosched() {
		if pkts := f.sent(); len(pkts) >= n {
			return pkts
		}
		if time.Since(t0) > 10*time.Second {
			t.Fatalf("only %d of %d packets reached the wire", len(f.sent()), n)
		}
	}
}

// enqueue writes one message per (dest, seq) pair through the
// producer/consumer queue, four to a slot.
func enqueue(q *queue.Gravel, cmd uint64, dests []int, seqs []uint64) {
	for at := 0; at < len(dests); at += 4 {
		n := min(4, len(dests)-at)
		s := q.Reserve(n)
		for m := 0; m < n; m++ {
			s.Row(wire.RowCmd)[m] = cmd
			s.Row(wire.RowDest)[m] = uint64(dests[at+m])
			s.Row(wire.RowA)[m] = seqs[at+m]
			s.Row(wire.RowB)[m] = 1
		}
		s.Commit()
	}
}

// conformanceQueueBytes holds exactly 128 records. Over three nodes the
// archive's first segment is 1 kB (42 records), the second 2 kB (85),
// and the third is capped at the bound.
const conformanceQueueBytes = 128 * wire.MsgWireBytes

// TestStrategyConformance pins the agg.Strategy contract for every
// strategy and mode behind it.
func TestStrategyConformance(t *testing.T) {
	rows := []struct {
		name string
		// archive selects the strategy; flag is its mode (perMessage for
		// ticket, fuse for archive).
		archive, flag bool
		// 266 messages to one destination, then Flush: the packets'
		// message counts in wire order, and how the flushes are counted.
		pkts          []int
		full, timeout int64
	}{
		{"ticket", false, false, []int{128, 128, 10}, 2, 1},
		{"ticket per-message", false, true, nil, 266, 0},
		{"archive fused", true, true, []int{128, 128, 10}, 2, 1},
		{"archive unfused", true, false, []int{42, 85, 1, 128, 10}, 4, 1},
	}
	inc := wire.PackCmd(wire.OpInc, 0, 1)
	sig := wire.PackSigCmd(1, 2, 0)

	for _, row := range rows {
		setup := func() (Strategy, *driver, *queue.Gravel, *recFabric) {
			p := timemodel.Default()
			p.PerNodeQueueBytes = conformanceQueueBytes
			fab := &recFabric{nodes: 3}
			q := queue.NewGravel(512, wire.SlotRows, 4)
			if row.archive {
				ar := NewArchive(0, p, q, fab, &timemodel.Clocks{}, row.flag)
				return ar, ar.driver, q, fab
			}
			a := New(0, p, q, fab, &timemodel.Clocks{}, row.flag)
			return a, a.driver, q, fab
		}

		// Whatever the route (queue or host staging) and however the
		// packets fall, each destination receives exactly what was sent
		// to it, in the order it was sent.
		t.Run(row.name+"/delivery order", func(t *testing.T) {
			s, _, q, fab := setup()
			const perRoute = 900
			next := make([]uint64, 3)
			var dests []int
			var seqs []uint64
			for i := 0; i < perRoute; i++ {
				d := (i * 7) % 3
				dests, seqs = append(dests, d), append(seqs, next[d])
				next[d]++
			}
			enqueue(q, inc, dests, seqs)
			s.Flush()
			for i := 0; i < perRoute; i++ {
				d := (i * 5) % 3
				s.AppendDirect(d, inc, next[d], 1, 0)
				next[d]++
			}
			s.Flush()
			got := make([]uint64, 3)
			for _, p := range fab.sent() {
				for _, seq := range p.seqs {
					if seq != got[p.dest] {
						t.Fatalf("dest %d received seq %d, want %d", p.dest, seq, got[p.dest])
					}
					got[p.dest]++
				}
			}
			if !reflect.DeepEqual(got, next) {
				t.Fatalf("delivered per dest %v, sent %v", got, next)
			}
		})

		// Packet boundaries and flush reasons, through the queue on a
		// strategy that was never started: Flush itself drains the queue
		// on the caller's thread (benchmark/staged.go relies on it).
		t.Run(row.name+"/packets and flush counts", func(t *testing.T) {
			s, d, q, fab := setup()
			const n = 266
			produce(q, 1, n)
			s.Flush()
			if !q.Empty() || s.Busy() || s.Pending() {
				t.Fatalf("after Flush: queue empty %v, busy %v, pending %v", q.Empty(), s.Busy(), s.Pending())
			}
			var got []int
			total := 0
			for _, p := range fab.sent() {
				got = append(got, len(p.seqs))
				total += len(p.seqs)
			}
			if total != n {
				t.Fatalf("delivered %d messages, want %d", total, n)
			}
			if row.pkts == nil {
				if len(got) != n {
					t.Fatalf("%d packets, want one per message", len(got))
				}
			} else if !reflect.DeepEqual(got, row.pkts) {
				t.Fatalf("packet message counts %v, want %v", got, row.pkts)
			}
			if c := d.clock.Snapshot(); c.FlushesFull != row.full || c.FlushesTimeout != row.timeout {
				t.Fatalf("flush counts full=%d timeout=%d, want %d/%d", c.FlushesFull, c.FlushesTimeout, row.full, row.timeout)
			}
		})

		// Host staging must never transmit: with no aggregator thread
		// running, anything on the wire before Flush was sent by
		// AppendDirect's own goroutine.
		t.Run(row.name+"/AppendDirect only stages", func(t *testing.T) {
			s, _, _, fab := setup()
			for i := 0; i < 300; i++ {
				s.AppendDirect(1, inc, uint64(i), 1, 0)
			}
			s.AppendDirect(2, sig, 0, 1, 0)
			if n := len(fab.sent()); n != 0 {
				t.Fatalf("AppendDirect put %d packets on the wire", n)
			}
			if !s.Pending() {
				t.Fatal("301 staged messages, Pending is false")
			}
			s.Flush()
			if s.Pending() || len(fab.sent()) == 0 {
				t.Fatalf("after Flush: pending %v, %d packets sent", s.Pending(), len(fab.sent()))
			}
		})

		// Signal liveness: a PUT_SIGNAL, drained from the queue or staged
		// from host context, goes out without anyone calling Flush.
		t.Run(row.name+"/signal reaches the wire unflushed", func(t *testing.T) {
			s, _, q, fab := setup()
			s.Start()
			defer s.Stop()
			enqueue(q, sig, []int{1}, []uint64{7})
			s.AppendDirect(2, sig, 9, 1, 0)
			seen := map[int]uint64{}
			for _, p := range fab.waitSent(t, 2) {
				if len(p.cmds) != 1 || p.cmds[0] != sig {
					t.Fatalf("packet to %d carries %v, want the one signal", p.dest, p.cmds)
				}
				seen[p.dest] = p.seqs[0]
			}
			if seen[1] != 7 || seen[2] != 9 {
				t.Fatalf("signals delivered %v, want 1:7 2:9", seen)
			}
		})

		// Quiescence: the queue reads empty as soon as a slot is claimed,
		// so Busy has to cover the claim until the slot is staged.
		t.Run(row.name+"/Busy covers a claimed slot", func(t *testing.T) {
			s, d, q, fab := setup()
			claimed, release := make(chan struct{}), make(chan struct{})
			stageSlot := d.consume
			d.consume = func(payload []uint64, rows, cols, count int) {
				close(claimed)
				<-release
				stageSlot(payload, rows, cols, count)
			}
			s.Start()
			defer s.Stop()
			enqueue(q, sig, []int{1}, []uint64{0})
			<-claimed
			covered := true
			for i := 0; i < 100 && covered; i++ {
				covered = q.Empty() && s.Busy()
				runtime.Gosched()
			}
			close(release)
			if !covered {
				t.Fatal("a slot is claimed and unstaged, yet the queue is empty and Busy is false")
			}
			fab.waitSent(t, 1)
		})
	}
}
