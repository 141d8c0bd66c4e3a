package fabric

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"gravel/internal/wire"
)

func TestValidBanks(t *testing.T) {
	for _, tc := range []struct {
		banks int
		ok    bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true},
		{6, false}, {8, true}, {16, true}, {64, true}, {128, false}, {-4, false},
	} {
		if got := ValidBanks(tc.banks); got != tc.ok {
			t.Errorf("ValidBanks(%d) = %v, want %v", tc.banks, got, tc.ok)
		}
	}
}

func TestBankOf(t *testing.T) {
	for _, a := range []uint64{0, 1, 7, 1 << 20, ^uint64(0)} {
		if BankOf(a, 1) != 0 {
			t.Errorf("BankOf(%d, 1) = %d, want 0", a, BankOf(a, 1))
		}
	}
	// Power-of-two masking: the low bits select the bank, so
	// neighbouring addresses spread and same-address always repeats.
	for _, banks := range []int{2, 4, 64} {
		seen := map[int]bool{}
		for a := uint64(0); a < uint64(2*banks); a++ {
			b := BankOf(a, banks)
			if b < 0 || b >= banks {
				t.Fatalf("BankOf(%d, %d) = %d out of range", a, banks, b)
			}
			if b != BankOf(a, banks) {
				t.Fatalf("BankOf not deterministic")
			}
			seen[b] = true
		}
		if len(seen) != banks {
			t.Errorf("banks=%d: sequential addresses hit only %d banks", banks, len(seen))
		}
	}
}

// TestScatterBanksPartition pins the demux contract: every record lands
// on BankOf of its address, records keep their relative order within a
// bank, per-bank message counts are exact, banks are emitted in
// ascending order, and no record is lost or duplicated.
func TestScatterBanksPartition(t *testing.T) {
	const banks = 4
	b := wire.NewBuilder(1, 1<<16)
	type rec struct{ cmd, a, v uint64 }
	var want []rec
	for i := 0; i < 100; i++ {
		r := rec{
			cmd: wire.PackCmd(wire.OpInc, 0, 0),
			a:   uint64(i*2654435761) % 512,
			v:   uint64(i + 1),
		}
		want = append(want, r)
		b.Append(r.cmd, r.a, r.v)
	}
	buf, msgs := b.Take()
	defer wire.PutBuf(buf)
	if msgs != len(want) {
		t.Fatalf("builder msgs = %d, want %d", msgs, len(want))
	}

	var got [banks][]rec
	lastBank := -1
	total := 0
	ScatterBanks(buf, banks, func(bank int, sub []byte, m int) {
		if bank <= lastBank {
			t.Fatalf("banks emitted out of order: %d after %d", bank, lastBank)
		}
		lastBank = bank
		n := 0
		if err := wire.Decode(sub, func(cmd, a, v uint64) {
			got[bank] = append(got[bank], rec{cmd, a, v})
			n++
		}); err != nil {
			t.Fatalf("bank %d sub-buffer undecodable: %v", bank, err)
		}
		if n != m {
			t.Fatalf("bank %d reported %d msgs, decoded %d", bank, m, n)
		}
		total += m
		wire.PutBuf(sub)
	})
	if total != len(want) {
		t.Fatalf("scattered %d records, want %d", total, len(want))
	}

	// Replaying the input in order against per-bank cursors must match
	// exactly: partition by BankOf with per-bank order preserved.
	var cursor [banks]int
	for i, r := range want {
		bk := BankOf(r.a, banks)
		if cursor[bk] >= len(got[bk]) {
			t.Fatalf("record %d missing from bank %d", i, bk)
		}
		if got[bk][cursor[bk]] != r {
			t.Fatalf("bank %d record %d = %+v, want %+v (reordered?)", bk, cursor[bk], got[bk][cursor[bk]], r)
		}
		cursor[bk]++
	}
}

// scatterBanksRef is the demux as it was before wire.PutRecord: each
// record's 24 bytes appended to its bank's buffer.
func scatterBanksRef(buf []byte, banks int) (out [MaxResolverBanks][]byte) {
	for off := 0; off < len(buf); off += wire.MsgWireBytes {
		cmd := binary.LittleEndian.Uint64(buf[off : off+8])
		a := binary.LittleEndian.Uint64(buf[off+8 : off+16])
		b := BankOfRecord(cmd, a, banks)
		out[b] = append(out[b], buf[off:off+wire.MsgWireBytes]...)
	}
	return out
}

// mixedPacket builds a per-node queue of msgs records with random
// arguments and every op, AMs included (they bank on 0 whatever their
// argument says).
func mixedPacket(r *rand.Rand, msgs int) []byte {
	ops := []wire.Op{wire.OpPut, wire.OpInc, wire.OpAM, wire.OpPutSignal}
	buf := wire.GetBuf(msgs * wire.MsgWireBytes)
	for i := 0; i < msgs; i++ {
		cmd := uint64(ops[r.Intn(len(ops))]) | r.Uint64()<<8
		buf = wire.AppendRecord(buf, cmd, r.Uint64(), r.Uint64())
	}
	return buf
}

// TestScatterBanksByteExact: per bank, the bytes are the reference's,
// and the input is untouched. (A bank buffer cannot outgrow what the
// pool handed out: records are stored by reslicing, which panics where
// append would reallocate.)
func TestScatterBanksByteExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, banks := range []int{2, 4, 64} {
		for _, msgs := range []int{0, 1, 63, 2730} {
			buf := mixedPacket(r, msgs)
			orig := bytes.Clone(buf)
			want := scatterBanksRef(buf, banks)
			emitted := 0
			ScatterBanks(buf, banks, func(bank int, sub []byte, m int) {
				if !bytes.Equal(sub, want[bank]) || m*wire.MsgWireBytes != len(sub) {
					t.Fatalf("banks=%d msgs=%d: bank %d differs from the reference", banks, msgs, bank)
				}
				emitted++
				want[bank] = nil
				wire.PutBuf(sub)
			})
			for b, w := range want {
				if w != nil {
					t.Fatalf("banks=%d msgs=%d: bank %d never emitted", banks, msgs, b)
				}
			}
			if !bytes.Equal(buf, orig) {
				t.Fatalf("banks=%d msgs=%d: input modified", banks, msgs)
			}
			wire.PutBuf(buf)
		}
	}
}

// BenchmarkScatterBanks demuxes one full per-node queue of uniform Inc
// records over 2 banks, recycling the bank buffers as the resolver's
// Done does.
func BenchmarkScatterBanks(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	const msgs = (64 << 10) / wire.MsgWireBytes
	buf := make([]byte, 0, msgs*wire.MsgWireBytes)
	for i := 0; i < msgs; i++ {
		buf = wire.AppendRecord(buf, cmd, uint64(r.Intn(1<<18)), 1)
	}
	emit := func(_ int, sub []byte, _ int) { wire.PutBuf(sub) }
	ScatterBanks(buf, 2, emit) // warm the pool
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterBanks(buf, 2, emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgs), "ns/msg")
}
