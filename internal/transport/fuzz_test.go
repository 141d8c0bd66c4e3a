package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, must not leave a pooled payload on a frame it rejected,
// and a frame it accepts must re-encode to exactly the bytes it read.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range frameCases {
		f.Add(appendFrame(nil, fr))
	}
	for _, raw := range malformedFrames() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fr frame
		if err := readFrameInto(bufio.NewReader(bytes.NewReader(raw)), &fr); err != nil {
			if fr.payload != nil {
				t.Fatalf("rejected frame (%v) still holds a %d-byte payload", err, len(fr.payload))
			}
			return
		}
		n := headerBytes + len(fr.payload)
		if got := appendFrame(nil, &fr); !bytes.Equal(got, raw[:n]) {
			t.Fatalf("accepted frame re-encodes to\n%x\nread\n%x", got, raw[:n])
		}
	})
}

// FuzzCoordDispatch plays arbitrary bytes as one worker connection's
// request stream (JSON values, as Coordinator.handle decodes them)
// against a 2-node coordinator in its second epoch. Dispatch must never
// panic; a stale generation is answered Stale and changes nothing;
// an out-of-range node and an unknown op — the step vote's retired
// "quiet" and "barrier" and the collectives' retired "reduce" included
// — are answered Err.
func FuzzCoordDispatch(f *testing.F) {
	for _, seed := range []string{
		`{"op":"join","node":0,"addr":"a:1"}`,
		`{"op":"join","node":1,"gen":2,"addr":"b:1","suspect":1000}{"op":"ping","node":1,"gen":2}`,
		`{"op":"quiet","node":0,"gen":2,"idle":true}{"op":"barrier","node":1,"gen":2,"key":"step:1","idle":true}`,
		`{"op":"reduce","node":0,"gen":2,"key":"k","val":3}`,
		`{"op":"reduce","node":1,"gen":1,"key":"k","val":3}`,
		`{"op":"ckpt","node":0,"gen":2,"step":4,"data":"AAEC"}{"op":"restore","node":0,"gen":2}`,
		`{"op":"ckpt","node":1,"gen":2,"step":4,"data":"AAEC"}{"op":"ckpt","node":1,"gen":2,"step":4,"data":"AwQF"}`,
		`{"op":"ping","node":7,"gen":2}{"op":"nope","node":0,"gen":2}`,
		`{"op":"bye","node":0,"gen":1}{"op":"bye","node":0,"gen":2}{"op":"bye","node":1,"gen":2}`,
	} {
		f.Add([]byte(seed))
	}
	known := map[string]bool{"join": true, "ping": true, "ckpt": true, "restore": true, "bye": true}
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewCoordinator(2)
		gen := c.BeginEpoch(2)
		state := func() string {
			c.mu.Lock()
			defer c.mu.Unlock()
			return fmt.Sprint(c.gen, c.nodes, c.peers, len(c.lastSeen), c.left, len(c.ckpts))
		}
		dec := json.NewDecoder(bytes.NewReader(stream))
		for {
			var req coordMsg
			if dec.Decode(&req) != nil {
				return
			}
			before := state()
			resp := c.dispatch(&req)
			switch {
			case req.Gen != gen && !(req.Op == "join" && req.Gen == 0):
				if resp.Stale != gen || resp.OK {
					t.Fatalf("stale request %+v answered %+v", req, resp)
				}
				if after := state(); after != before {
					t.Fatalf("stale request %+v changed the coordinator:\n%s\n%s", req, before, after)
				}
			case req.Node < 0 || req.Node >= 2, !known[req.Op]:
				if resp.Err == "" || resp.OK {
					t.Fatalf("bad request %+v answered %+v, want Err", req, resp)
				}
			default:
				if resp.Stale != 0 {
					t.Fatalf("current-generation request %+v answered stale: %+v", req, resp)
				}
			}
		}
	})
}
