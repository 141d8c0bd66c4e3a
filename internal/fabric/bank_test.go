package fabric

import (
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
