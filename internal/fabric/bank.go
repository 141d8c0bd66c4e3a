package fabric

import (
	"encoding/binary"

	"gravel/internal/wire"
)

// Receive-side resolver banks. The paper (§6) resolves every message —
// even node-local atomics — on one serial network thread per node; a
// banked fabric splits that stream by destination address so the
// runtime can run one resolver goroutine per bank. The bank of a
// record is a pure function of the record (BankOfRecord): data records
// bank by destination address, so two messages touching the same word
// always resolve on the same bank and per-word ordering survives the
// fan-out; active messages all resolve on bank 0, so handler execution
// stays serialized per node.

// MaxResolverBanks bounds the bank count: the demux scatter uses a
// fixed-size scratch table so the receive hot path stays off the heap.
const MaxResolverBanks = 64

// BankOf maps a PGAS address to a resolver bank. banks must be a power
// of two; the low bits are used so that neighbouring addresses spread
// across banks.
func BankOf(a uint64, banks int) int { return int(a & uint64(banks-1)) }

// BankOfRecord maps one wire record to its resolver bank. Data records
// (puts, atomics, signalled puts) bank by destination address; active
// messages always resolve on bank 0. AM handlers are host callbacks
// with arbitrary shared state whose contract is serialized per-node
// execution (the paper's network thread), and an AM's argument 0 is an
// opaque payload, not an address — banking on it would both break the
// contract and scatter unrelated handler calls.
func BankOfRecord(cmd, a uint64, banks int) int {
	if wire.Op(cmd&0xff) == wire.OpAM {
		return 0
	}
	return BankOf(a, banks)
}

// ScatterBanks splits a per-node queue buffer into per-bank buffers by
// record address and calls emit for each non-empty bank in ascending
// order, with the bank's record count. Buffers handed to emit are drawn
// from the wire packet pool (ownership transfers to the callee); the
// input buffer is left untouched for the caller to recycle. banks must
// be in (1, MaxResolverBanks].
func ScatterBanks(buf []byte, banks int, emit func(bank int, buf []byte, msgs int)) {
	var out [MaxResolverBanks][]byte
	var msgs [MaxResolverBanks]int
	for off := 0; off < len(buf); off += wire.MsgWireBytes {
		rec := buf[off : off+wire.MsgWireBytes]
		cmd := binary.LittleEndian.Uint64(rec[0:8])
		a := binary.LittleEndian.Uint64(rec[8:16])
		b := BankOfRecord(cmd, a, banks)
		o := out[b]
		if o == nil {
			o = wire.GetBuf(len(buf))
		}
		// Every bank's buffer has room for the whole input, so the
		// record is stored in place (wire.PutRecord), never appended.
		n := len(o)
		o = o[:n+wire.MsgWireBytes]
		wire.PutRecord(o[n:], cmd, a, binary.LittleEndian.Uint64(rec[16:24]))
		out[b] = o
		msgs[b]++
	}
	for b := 0; b < banks; b++ {
		if out[b] != nil {
			emit(b, out[b], msgs[b])
		}
	}
}

// ValidBanks reports whether a configured bank count is usable: a
// power of two in [1, MaxResolverBanks].
func ValidBanks(banks int) bool {
	return banks >= 1 && banks <= MaxResolverBanks && banks&(banks-1) == 0
}
