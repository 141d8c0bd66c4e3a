package wire

import "testing"

// FuzzDecode feeds arbitrary byte strings to the per-node queue decoder:
// frames arriving from the network must never panic it, whatever their
// contents.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, MsgWireBytes))
	f.Add(make([]byte, MsgWireBytes-1))
	b := wireBuf(OpInc, 7, 42, 1)
	f.Add(b)
	f.Add(b[:len(b)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		calls := 0
		err := Decode(data, func(cmd, a, v uint64) { calls++ })
		if err != nil && calls != 0 {
			t.Fatalf("Decode called fn %d times and still errored: %v", calls, err)
		}
		if err == nil && calls != len(data)/MsgWireBytes {
			t.Fatalf("Decode visited %d records of %d", calls, len(data)/MsgWireBytes)
		}
	})
}

// FuzzRecordWalk: the closure-free walk the receive path uses
// (RecordCount + RecordAt) and Decode must agree on every buffer — the
// same records in the same order, or the same error.
func FuzzRecordWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, MsgWireBytes-1))
	two := AppendRecord(wireBuf(OpInc, 7, 42, 1), PackSigCmd(3, 4, 5), 6, 7)
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var viaDecode [][3]uint64
		derr := Decode(data, func(cmd, a, v uint64) { viaDecode = append(viaDecode, [3]uint64{cmd, a, v}) })
		n, werr := RecordCount(data)
		if (derr == nil) != (werr == nil) || (derr != nil && derr.Error() != werr.Error()) {
			t.Fatalf("Decode error %v, RecordCount error %v", derr, werr)
		}
		if n != len(viaDecode) {
			t.Fatalf("RecordCount = %d, Decode visited %d", n, len(viaDecode))
		}
		for i, want := range viaDecode {
			cmd, a, v := RecordAt(data, i)
			if got := [3]uint64{cmd, a, v}; got != want {
				t.Fatalf("record %d: RecordAt %v, Decode %v", i, got, want)
			}
		}
	})
}

// FuzzCheckBuf: the transport-boundary validator must never panic and
// must accept only what Decode accepts structurally.
func FuzzCheckBuf(f *testing.F) {
	f.Add([]byte{})
	f.Add(wireBuf(OpPut, 1, 2, 0))
	f.Add(make([]byte, MsgWireBytes)) // op 0: unknown
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CheckBuf(data); err != nil {
			return
		}
		// A buffer CheckBuf accepts must decode cleanly.
		if err := Decode(data, func(_, _, _ uint64) {}); err != nil {
			t.Fatalf("CheckBuf accepted a buffer Decode rejects: %v", err)
		}
	})
}

// wireBuf builds a one-message buffer.
func wireBuf(op Op, handler uint8, a, v uint64) []byte {
	b := NewBuilder(0, MsgWireBytes)
	b.Append(PackCmd(op, handler, 0), a, v)
	buf, _ := b.Take()
	return buf
}
