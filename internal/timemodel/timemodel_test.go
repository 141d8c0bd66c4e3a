package timemodel

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultsSane(t *testing.T) {
	p := Default()
	if p.CUs != 8 || p.WFWidth != 64 {
		t.Fatal("Table 3 GPU shape wrong")
	}
	if p.BetaBytesPerNs != 7.0 {
		t.Fatal("56 Gb/s is 7 bytes/ns")
	}
	if p.PerNodeQueueBytes != 64<<10 {
		t.Fatal("Gravel configuration row wrong")
	}
}

func TestWireNs(t *testing.T) {
	p := Default()
	small := p.WireNs(24)
	big := p.WireNs(64 << 10)
	if small <= p.AlphaNs || big <= small {
		t.Fatalf("WireNs not monotone: %v %v", small, big)
	}
	// A 64 kB packet at 7 GB/s takes ~9.4 us plus alpha.
	want := p.AlphaNs + float64(64<<10)/7.0
	if big != want {
		t.Fatalf("WireNs(64kB) = %v, want %v", big, want)
	}
}

func TestClocksAccumulateAndSnapshot(t *testing.T) {
	var c Clocks
	c.AddGPU(10)
	c.AddAgg(5)
	c.AddAggIdle(1)
	c.AddNetBank(0, 3)
	c.AddWireSend(2)
	c.AddWireRecv(4)
	c.AddHost(6)
	c.CountAggSlot(7)
	c.ConfigureNetBanks(1)
	c.CountResolved(0, 9, 2, 1)
	c.CountBypass(4, 0, 1)
	c.CountPacket(100)
	c.CountSelfPacket()
	c.CountOps(3, 5)
	c.CountWait()
	c.CountFlush(true)
	c.CountDeparted(13)
	c.CountConsumed(9)
	c.CountConsumed(4)
	s := c.Snapshot()
	if s.GPU != 10 || s.Agg != 5 || s.AggIdle != 1 || s.Net != 3 ||
		s.WireSend != 2 || s.WireRecv != 4 || s.Host != 6 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
	if s.AggSlots != 1 || s.AggMsgs != 7 || s.NetMsgs != 13 || s.PktsSent != 1 || s.BytesSent != 100 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.Resolved != (Resolved{1, 9, 2, 1}) || s.Bypass != (Resolved{1, 4, 0, 1}) {
		t.Fatalf("resolved %+v bypass %+v", s.Resolved, s.Bypass)
	}
	if c.Departed() != 13 || c.Consumed() != 13 {
		t.Fatalf("ledger departed %d consumed %d, want 13, 13", c.Departed(), c.Consumed())
	}
	if s.SelfPkts != 1 || s.LocalOps != 3 || s.RemoteOps != 5 || s.Waits != 1 || s.FlushesFull != 0 || s.FlushesTimeout != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Clocks
	c.AddGPU(10)
	a := c.Snapshot()
	c.AddGPU(5)
	c.AddNetBank(0, 2)
	d := c.Snapshot().Sub(a)
	if d.GPU != 5 || d.Net != 2 {
		t.Fatalf("delta wrong: %+v", d)
	}
}

func TestOverlappedVsSequential(t *testing.T) {
	s := Snapshot{GPU: 10, Agg: 3, Net: 7, WireSend: 2, WireRecv: 1, Host: 4}
	if got := s.Overlapped(); got != 14 { // max(10,3,7,2,1) + 4
		t.Fatalf("Overlapped = %v, want 14", got)
	}
	if got := s.Sequential(); got != 27 {
		t.Fatalf("Sequential = %v, want 27", got)
	}
}

// TestQuickCompositionBounds: Overlapped <= Sequential always, and both
// are at least Host.
func TestQuickCompositionBounds(t *testing.T) {
	f := func(g, a, n, ws, wr, h uint16) bool {
		s := Snapshot{
			GPU: float64(g), Agg: float64(a), Net: float64(n),
			WireSend: float64(ws), WireRecv: float64(wr), Host: float64(h),
		}
		o, q := s.Overlapped(), s.Sequential()
		return o <= q+1e-9 && o >= s.Host && q >= s.Host
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClocksConcurrent(t *testing.T) {
	var c Clocks
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddGPU(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().GPU; got != 8000 {
		t.Fatalf("concurrent GPU sum = %v", got)
	}
}

func TestEnergyModel(t *testing.T) {
	s := Snapshot{GPU: 1e9, Agg: 0.35e9, AggIdle: 0.65e9, Net: 1e9, WireSend: 0.1e9, WireRecv: 0.1e9}
	cpu := EnergyJ(s, false)
	hw := EnergyJ(s, true)
	if hw >= cpu {
		t.Fatalf("hardware aggregator (%v J) should save energy vs CPU (%v J)", hw, cpu)
	}
	// The saving must be at least the polling power for the idle window.
	if cpu-hw < 0.65*PowerCPUPollW*0.9 {
		t.Fatalf("saving %v J too small", cpu-hw)
	}
}
