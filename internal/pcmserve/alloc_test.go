package pcmserve

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/core"
)

// allocGate fails the test when f averages more than max allocations
// per run. The count is process-wide, so server goroutines and
// background refresh are included.
func allocGate(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f() // warm pools, lazily built handlers and map buckets
	got := testing.AllocsPerRun(2000, f)
	t.Logf("%s: %.3f allocs/op", name, got)
	if got > max {
		t.Errorf("%s: %.2f allocs/op, gate %.0f", name, got, max)
	}
}

// TestAllocsFrameCodec gates the frame codec at zero: encoding a 64 B
// READ or WRITE request or response into a connection's write buffer and
// decoding it from a read buffer allocates nothing.
func TestAllocsFrameCodec(t *testing.T) {
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	block := bytes.Repeat([]byte{0xA7}, core.BlockBytes)
	ext := wireExt{ext: true, deadlineUs: 2000}
	decode := func() []byte {
		bw.Flush()
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		body, fb, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		wire.Reset()
		fb.release()
		return body // only inspected before the next readFrame
	}
	reqs := map[string]request{
		"READ request":  {id: 1, op: OpRead, trace: 9, wireExt: ext, off: 640, n: core.BlockBytes},
		"WRITE request": {id: 2, op: OpWrite, trace: 9, wireExt: ext, off: 640, data: block},
	}
	for name, req := range reqs {
		allocGate(t, name, 0, func() {
			if err := writeRequest(bw, &req); err != nil {
				t.Fatal(err)
			}
			got, err := parseRequest(decode())
			if err != nil || got.id != req.id || got.off != req.off {
				t.Fatalf("decoded %+v, %v", got, err)
			}
		})
	}
	resps := map[string]response{
		"READ response":  {id: 1, status: StatusOK, payload: block},
		"WRITE response": {id: 2, status: StatusOK, payload: []byte{0, 0, 0, core.BlockBytes}},
	}
	for name, resp := range resps {
		allocGate(t, name, 0, func() {
			if err := writeResponse(bw, &resp); err != nil {
				t.Fatal(err)
			}
			got, err := parseResponse(decode())
			if err != nil || got.id != resp.id || len(got.payload) != len(resp.payload) {
				t.Fatalf("decoded %+v, %v", got, err)
			}
		})
	}
}

// allocTarget builds filled live shards with refresh and the write budget
// on, and returns them with a block buffer and a walk over block offsets.
func allocTarget(t *testing.T) (g *Shards, buf []byte, next func() int64) {
	g = liveShards(t, 4, 64, LiveConfig{RefreshIntervalSeconds: 1020, WriteBudgetBytesPerSec: 40e6})
	fillShards(t, g)
	off := int64(0)
	return g, make([]byte, core.BlockBytes), func() int64 {
		off = (off + 17*core.BlockBytes) % g.Size()
		return off
	}
}

// TestAllocsShards gates one block op through dispatch, the shard queue
// and the owner goroutine on live shards.
func TestAllocsShards(t *testing.T) {
	g, buf, next := allocTarget(t)
	allocGate(t, "Shards.ReadAt", 1, func() {
		if _, err := g.ReadAt(buf, next()); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "Shards.WriteAt", 1, func() {
		if _, err := g.WriteAt(buf, next()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsLoopback gates the whole served op — client call, request
// frame, server handler, shard hop, response frame, reader, caller —
// over a real loopback connection.
func TestAllocsLoopback(t *testing.T) {
	g, buf, next := allocTarget(t)
	c, err := Dial(startServer(t, g, ServerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocGate(t, "Client.ReadAt", 3, func() {
		if _, err := c.ReadAt(buf, next()); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "Client.WriteAt", 3, func() {
		if _, err := c.WriteAt(buf, next()); err != nil {
			t.Fatal(err)
		}
	})
}
