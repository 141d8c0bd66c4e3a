package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refRecord is the encoder every writer used before PutRecord: stage
// the record in a stack array, then append it. It defines the bytes.
func refRecord(buf []byte, cmd, a, v uint64) []byte {
	var rec [MsgWireBytes]byte
	binary.LittleEndian.PutUint64(rec[0:8], cmd)
	binary.LittleEndian.PutUint64(rec[8:16], a)
	binary.LittleEndian.PutUint64(rec[16:24], v)
	return append(buf, rec[0:len(rec)]...)
}

// TestRecordWritersByteExact: Builder.Append and AppendRecord produce the reference encoders' bytes, and a builder's
// buffer never outgrows what GetBuf handed it — so a Taken buffer goes
// back into the pool class it came from.
func TestRecordWritersByteExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, capBytes := range []int{1, MsgWireBytes, 100, 1 << 10, 5000, 64 << 10} {
		direct := NewBuilder(1, capBytes)
		directCap := cap(direct.buf)
		var wantDirect, grown []byte
		roomy := make([]byte, 0, capBytes+MsgWireBytes)
		roomyAt := &roomy[:1][0]
		for !direct.Full() {
			cmd, a, v := r.Uint64(), r.Uint64(), r.Uint64()
			direct.Append(cmd, a, v)
			wantDirect = refRecord(wantDirect, cmd, a, v)
			grown = AppendRecord(grown, cmd, a, v) // starts nil: must grow
			roomy = AppendRecord(roomy, cmd, a, v) // has room: must stay put
			if &roomy[0] != roomyAt {
				t.Fatalf("cap %d: AppendRecord moved a buffer that had room", capBytes)
			}
		}
		if cap(direct.buf) != directCap {
			t.Fatalf("cap %d: builder buffer regrew: %d -> %d", capBytes, directCap, cap(direct.buf))
		}
		if direct.Msgs()*MsgWireBytes != len(wantDirect) {
			t.Fatalf("cap %d: message count %d", capBytes, direct.Msgs())
		}
		got, _ := direct.Take()
		if !bytes.Equal(got, wantDirect) {
			t.Fatalf("cap %d: Builder.Append bytes differ from the reference", capBytes)
		}
		if cap(got) != directCap {
			t.Fatalf("cap %d: Take returned capacity %d, GetBuf gave %d", capBytes, cap(got), directCap)
		}
		if !bytes.Equal(grown, wantDirect) || !bytes.Equal(roomy, wantDirect) {
			t.Fatalf("cap %d: AppendRecord bytes differ from the reference", capBytes)
		}
	}
}

func TestPutRecordShortSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PutRecord into a 23-byte span did not panic")
		}
	}()
	PutRecord(make([]byte, MsgWireBytes-1), 1, 2, 3)
}

// BenchmarkAppendRecord measures the raw record write into a buffer
// with room (the archive and scatter paths' unit of work).
func BenchmarkAppendRecord(b *testing.B) {
	buf := make([]byte, 0, 64<<10)
	b.SetBytes(MsgWireBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cap(buf)-len(buf) < MsgWireBytes {
			buf = buf[:0]
		}
		buf = AppendRecord(buf, 1, uint64(i), 1)
	}
}
