package wire

import "testing"

// BenchmarkBuilderAppend measures the per-message staging cost.
func BenchmarkBuilderAppend(b *testing.B) {
	bl := NewBuilder(1, 64<<10)
	cmd := PackCmd(OpInc, 0, 3)
	b.SetBytes(MsgWireBytes)
	for i := 0; i < b.N; i++ {
		if bl.Full() {
			bl.Take()
		}
		bl.Append(cmd, uint64(i), 1)
	}
}

// BenchmarkDecode measures per-message decode of a full 64 kB queue.
func BenchmarkDecode(b *testing.B) {
	bl := NewBuilder(1, 64<<10)
	cmd := PackCmd(OpInc, 0, 3)
	for !bl.Full() {
		bl.Append(cmd, 7, 1)
	}
	buf, msgs := bl.Take()
	b.SetBytes(int64(len(buf)))
	var sink uint64
	for i := 0; i < b.N; i++ {
		Decode(buf, func(c, a, v uint64) { sink += a + v })
	}
	_ = sink
	_ = msgs
}
