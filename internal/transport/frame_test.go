package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"gravel/internal/wire"
)

// parseFrame decodes a frame from a complete in-memory buffer,
// rejecting trailing bytes.
func parseFrame(b []byte) (*frame, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	f, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	if br.Buffered() > 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after frame", br.Buffered())
	}
	return f, nil
}

// readFrame is readFrameInto with a freshly allocated frame.
func readFrame(r *bufio.Reader) (*frame, error) {
	f := new(frame)
	if err := readFrameInto(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// frameCases is one well-formed frame of each shape; malformedFrames
// is one of each way a frame can be broken. The tests below and
// FuzzReadFrame's seed corpus both draw on them.
var frameCases = []*frame{
	{typ: frameData, from: 0, to: 3, msgs: 7, seq: 1, payload: []byte("hello wire")},
	{typ: frameData, from: 2, to: 1, msgs: 1, seq: 1 << 40, payload: bytes.Repeat([]byte{0xAB}, 4096)},
	{typ: frameHello, from: 1, to: 0, seq: 99},
	{typ: frameAck, from: 0, to: 1, seq: 12345},
	{typ: frameFin, from: 3, to: 0},
	{typ: frameFinAck, from: 0, to: 3},
	{typ: frameVote, from: 1, to: 2, seq: 7, gen: 3, payload: ballot{vote: 4, round: 1, departed: 1 << 40, consumed: 1<<40 - 1}.appendTo(nil)},
	{typ: frameColl, from: 2, to: 0, seq: 3, gen: 1, payload: contribution{team: 1 << 63, n: 5, label: 0xabcdef02, val: 1 << 50}.appendTo(nil)},
}

func malformedFrames() map[string][]byte {
	good := appendFrame(nil, &frame{typ: frameData, from: 0, to: 1, msgs: 1, seq: 1, payload: []byte("payload")})
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	return map[string][]byte{
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":    corrupt(func(b []byte) { b[4] = 99 }),
		"bad type":       corrupt(func(b []byte) { b[5] = 200 }),
		"huge paylen":    corrupt(func(b []byte) { b[20], b[21], b[22], b[23] = 0xFF, 0xFF, 0xFF, 0xFF }),
		"flipped crc":    corrupt(func(b []byte) { b[32] ^= 0x01 }),
		"flipped body":   corrupt(func(b []byte) { b[headerBytes] ^= 0x01 }),
		"truncated":      good[:len(good)-3],
		"header only":    good[:headerBytes-4],
		"trailing bytes": append(append([]byte(nil), good...), 0xEE),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range frameCases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatalf("writeFrame(%d): %v", want.typ, err)
		}
		got, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("readFrame(%d): %v", want.typ, err)
		}
		if got.typ != want.typ || got.from != want.from || got.to != want.to ||
			got.msgs != want.msgs || got.seq != want.seq || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("round trip mangled frame %d: %+v != %+v", want.typ, got, want)
		}
		// The whole-buffer path must agree with the stream path.
		if _, err := parseFrame(buf.Bytes()); err != nil {
			t.Fatalf("parseFrame(%d): %v", want.typ, err)
		}
	}
}

// TestReadFrameZeroAllocs: the reader takes the header in place from
// its bufio.Reader, so reading a warm data frame (its pooled payload
// recycled as Done would), a ballot or an ack allocates nothing.
func TestReadFrameZeroAllocs(t *testing.T) {
	data := &frame{typ: frameData, from: 0, to: 1, msgs: 64, seq: 9, payload: make([]byte, 64*wire.MsgWireBytes)}
	for _, want := range []*frame{data, frameCases[6], frameCases[3]} {
		raw := appendFrame(nil, want)
		var (
			rd bytes.Reader
			br = bufio.NewReaderSize(&rd, 64<<10)
			f  frame
		)
		read := func() {
			rd.Reset(raw)
			br.Reset(&rd)
			if err := readFrameInto(br, &f); err != nil || f.seq != want.seq {
				t.Fatalf("reading frame type %d: seq %d, %v", want.typ, f.seq, err)
			}
			if !f.typ.inline() {
				wire.PutBuf(f.payload)
			}
		}
		read()
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("reading a warm frame of type %d allocates %.2f objects, want 0", want.typ, n)
		}
	}
}

// TestReadFramePartialHeader: a stream that ends between frames is
// io.EOF, one that ends inside a header io.ErrUnexpectedEOF.
func TestReadFramePartialHeader(t *testing.T) {
	raw := appendFrame(nil, frameCases[3])
	for n, want := range map[int]error{0: io.EOF, 1: io.ErrUnexpectedEOF, headerBytes - 1: io.ErrUnexpectedEOF} {
		var f frame
		if err := readFrameInto(bufio.NewReader(bytes.NewReader(raw[:n])), &f); !errors.Is(err, want) {
			t.Errorf("a stream of %d header bytes: %v, want %v", n, err, want)
		}
	}
}

// Oversized payloads must fail at encode time: the receiver would
// reject them as malformed, poisoning the stream's retransmit window.
func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("appendFrame accepted a payload over maxFramePayload")
		}
	}()
	appendFrame(nil, &frame{typ: frameData, from: 0, to: 1, seq: 1, payload: make([]byte, maxFramePayload+1)})
}

func TestFrameRejectsMalformed(t *testing.T) {
	cases := malformedFrames()
	for name, raw := range cases {
		if _, err := parseFrame(raw); err == nil {
			t.Errorf("parseFrame accepted %s", name)
		}
	}

	// The stream path must reject the same corruptions (sans trailing
	// bytes, which a stream legitimately treats as the next frame).
	for name, raw := range cases {
		if name == "trailing bytes" {
			continue
		}
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("readFrame accepted %s", name)
		}
	}
}
