// Package ckpt is the tiny codec shared by app checkpoint payloads: a
// shard's state is a vector of uint64 words (a table slice, a rank
// vector, a centroid set, plus a short header) encoded little-endian.
// Keeping the codec in one place means every app's payload is
// byte-stable across epochs — the restore side of a checkpoint must
// decode exactly what a possibly differently-sharded epoch encoded.
package ckpt

import (
	"encoding/binary"
	"fmt"
)

// AppendU64 appends one word to a payload being built.
func AppendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// EncodeU64s encodes a word vector, with cap reserved for extra words
// the caller will append.
func EncodeU64s(words []uint64, extra int) []byte {
	dst := make([]byte, 0, 8*(len(words)+extra))
	for _, v := range words {
		dst = AppendU64(dst, v)
	}
	return dst
}

// DecodeU64s decodes a whole payload back into words.
func DecodeU64s(p []byte) ([]uint64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("ckpt: %d-byte payload is not a whole number of words", len(p))
	}
	out := make([]uint64, len(p)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return out, nil
}

// DecodeShard decodes the payload shape every app's shard uses: hdr
// header words, the last counts of which are the lengths of the body's
// sections, then exactly that many body words. It returns all the
// words, header first.
func DecodeShard(p []byte, hdr, counts int) ([]uint64, error) {
	w, err := DecodeU64s(p)
	if err != nil {
		return nil, err
	}
	if len(w) < hdr {
		return nil, fmt.Errorf("ckpt: %d-word payload is shorter than its %d-word header", len(w), hdr)
	}
	left, ok := uint64(len(w)-hdr), true
	for _, n := range w[hdr-counts : hdr] {
		if ok = n <= left; !ok {
			break
		}
		left -= n
	}
	if !ok || left != 0 {
		return nil, fmt.Errorf("ckpt: malformed payload: header counts %v, %d body words", w[hdr-counts:hdr], len(w)-hdr)
	}
	return w, nil
}

// Run is how one run meets the checkpoint store: what it resumes from
// and where it saves. The zero value is a cold start that never saves.
// Payload layout is app-private; a run given either field must be one
// node's shard (a whole-cluster run has nothing to restore).
type Run struct {
	// Resume holds every shard's payload of the restore point, in the
	// saving epoch's node order (nil = cold start). Apps whose payloads
	// are keyed by their node's range accept only the node count that
	// saved them.
	Resume [][]byte
	// Every is the checkpoint cadence in step barriers (<= 0 = every one).
	Every int
	// Save persists this shard's payload for the step barrier just
	// crossed — a proven-quiescent instant, so the shards' payloads for
	// one step are a consistent cut (nil = don't checkpoint).
	Save func(step uint64, data []byte) error
}

// Active reports whether the run restores or saves at all; such a run
// opens with a zero-work sync step, so every worker has allocated (and
// restored) before a fast peer's first message can arrive.
func (r Run) Active() bool { return r.Save != nil || len(r.Resume) > 0 }

// Due reports whether the barrier after step number done (counted from
// 1) is one to save at.
func (r Run) Due(done int) bool {
	return r.Save != nil && done%max(r.Every, 1) == 0
}
