package ckpt

import (
	"bytes"
	"testing"
)

// FuzzDecodeU64s: a checkpoint payload comes back from the
// coordinator's store, so whatever bytes arrive, DecodeU64s returns
// words or an error and never panics, and what it accepts re-encodes to
// the same bytes; DecodeShard over the same bytes accepts only a
// payload whose body is as long as its header says.
func FuzzDecodeU64s(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(EncodeU64s([]uint64{3, 0, 1 << 63}, 0))
	f.Add(AppendU64(EncodeU64s([]uint64{7}, 1), 9)[:15])
	f.Add(EncodeU64s([]uint64{1, 0, 2, 5, 6}, 0))
	f.Add(EncodeU64s([]uint64{1, 0, 0, 1 << 63, 1 << 63}, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		words, err := DecodeU64s(data)
		if err != nil {
			if len(data)%8 == 0 {
				t.Fatalf("whole-word payload of %d bytes rejected: %v", len(data), err)
			}
			return
		}
		if len(words) != len(data)/8 {
			t.Fatalf("%d bytes decoded to %d words", len(data), len(words))
		}
		if back := EncodeU64s(words, 0); !bytes.Equal(back, data) {
			t.Fatalf("round trip diverged: %x -> %v -> %x", data, words, back)
		}
		for _, shape := range [][2]int{{3, 1}, {2, 1}, {5, 2}} {
			hdr, counts := shape[0], shape[1]
			w, err := DecodeShard(data, hdr, counts)
			if err != nil {
				continue
			}
			var body uint64
			for _, n := range w[hdr-counts : hdr] {
				body += n
			}
			if body != uint64(len(w)-hdr) {
				t.Fatalf("DecodeShard(%d, %d) accepted header %v over %d body words", hdr, counts, w[:hdr], len(w)-hdr)
			}
		}
	})
}
