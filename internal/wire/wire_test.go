package wire

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPackUnpackCmd(t *testing.T) {
	f := func(op uint8, handler uint8, arr uint16) bool {
		if op == 0 {
			op = 1
		}
		o, h, a := UnpackCmd(PackCmd(Op(op), handler, arr))
		return o == Op(op) && h == handler && a == arr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpPut: "PUT", OpInc: "INC", OpAM: "AM", Op(99): "Op(99)"} {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(3, 10*MsgWireBytes)
	if b.Dest() != 3 || !b.Empty() {
		t.Fatal("fresh builder state wrong")
	}
	type msg struct{ cmd, a, v uint64 }
	var want []msg
	for i := 0; i < 10; i++ {
		m := msg{PackCmd(OpInc, 0, 7), uint64(i), uint64(i * i)}
		b.Append(m.cmd, m.a, m.v)
		want = append(want, m)
	}
	if !b.Full() {
		t.Fatal("builder should be full after 10 messages")
	}
	if b.Msgs() != 10 || b.Bytes() != 10*MsgWireBytes {
		t.Fatalf("Msgs=%d Bytes=%d", b.Msgs(), b.Bytes())
	}
	buf, n := b.Take()
	if n != 10 || !b.Empty() {
		t.Fatalf("Take: n=%d empty=%v", n, b.Empty())
	}
	var got []msg
	if err := Decode(buf, func(cmd, a, v uint64) {
		got = append(got, msg{cmd, a, v})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestBuilderOverflowPanics(t *testing.T) {
	b := NewBuilder(0, MsgWireBytes)
	b.Append(1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Append on full builder did not panic")
		}
	}()
	b.Append(4, 5, 6)
}

func TestBuilderMinimumCapacity(t *testing.T) {
	b := NewBuilder(0, 1) // less than one message: rounds up to one
	b.Append(1, 2, 3)
	if !b.Full() {
		t.Fatal("one-message builder should be full")
	}
}

func TestDecodeBadLength(t *testing.T) {
	if err := Decode(make([]byte, MsgWireBytes+1), func(_, _, _ uint64) {}); err == nil {
		t.Fatal("Decode accepted ragged buffer")
	}
}

func TestQuickBuilderDecode(t *testing.T) {
	f := func(msgs []uint64) bool {
		b := NewBuilder(0, (len(msgs)+1)*MsgWireBytes)
		for i, m := range msgs {
			b.Append(PackCmd(OpPut, 0, uint16(i)), m, m^0xff)
		}
		buf, n := b.Take()
		if n != len(msgs) {
			return false
		}
		i := 0
		err := Decode(buf, func(cmd, a, v uint64) {
			_, _, arr := UnpackCmd(cmd)
			if arr != uint16(i) || a != msgs[i] || v != msgs[i]^0xff {
				n = -1
			}
			i++
		})
		return err == nil && n != -1 && i == len(msgs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeRejectsRagged: Decode must reject any buffer that is
// not a whole number of records, and never panic.
func TestQuickDecodeRejectsRagged(t *testing.T) {
	f := func(raw []byte) bool {
		err := Decode(raw, func(_, _, _ uint64) {})
		return (len(raw)%MsgWireBytes == 0) == (err == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderFillsCacheLine: builders of different nodes' aggregators
// sit side by side in one size class, so a Builder that is not exactly
// one cache line puts two threads' writes on one line.
func TestBuilderFillsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Builder{}); got != 64 {
		t.Fatalf("Builder is %d bytes, want 64", got)
	}
}
