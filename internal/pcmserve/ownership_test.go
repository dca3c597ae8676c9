package pcmserve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
)

// Buffer-ownership tests for the pooled wire path. Each is meant to run
// under -race -count=10: a frame buffer returned to the pool while still
// referenced, or a waiter recycled while a reply can still reach it,
// shows up as a wrong payload, a wrong id, or a race report.

// stamp fills a block with a pattern unique to (owner, block, version),
// so a payload delivered to the wrong caller — or a buffer overwritten
// by a later frame before it was copied out — cannot verify.
func stamp(buf []byte, owner, block, version int) {
	for i := range buf {
		buf[i] = byte(owner*131 + block*31 + version*7 + i)
	}
}

// TestPipelinedOwnership drives 16 goroutines over ONE client, each
// writing and reading back its own blocks with its own patterns, for
// 20 480 ops; every read is verified against the goroutine's mirror.
func TestPipelinedOwnership(t *testing.T) {
	const workers, blocksPer, opsPer = 16, 8, 1280
	g := liveShards(t, 4, workers*blocksPer/4, LiveConfig{})
	c, err := Dial(startServer(t, g, ServerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			version := make([]int, blocksPer)
			want := make([]byte, core.BlockBytes)
			got := make([]byte, core.BlockBytes)
			for b := range version {
				stamp(want, w, b, 0)
				if _, err := c.WriteAt(want, int64(w*blocksPer+b)*core.BlockBytes); err != nil {
					t.Errorf("worker %d prefill: %v", w, err)
					return
				}
			}
			for i := 0; i < opsPer; i++ {
				b := (i*5 + w) % blocksPer
				off := int64(w*blocksPer+b) * core.BlockBytes
				if i%2 == 0 {
					version[b]++
					stamp(want, w, b, version[b])
					if _, err := c.WriteAt(want, off); err != nil {
						t.Errorf("worker %d write: %v", w, err)
						return
					}
					continue
				}
				if _, err := c.ReadAt(got, off); err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				stamp(want, w, b, version[b])
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d op %d: block %d read back another call's bytes", w, i, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAbandonedCallNeverRecycled abandons calls by context while the
// server sits on them (faultinject latency), timed so the late replies
// land around the moment of abandonment and during the traffic that
// follows, then runs 1 000 verified ops on the same client. No call may
// see another call's id or payload, and the server must have answered
// every abandoned request (the late replies really arrived).
func TestAbandonedCallNeverRecycled(t *testing.T) {
	const blocks = 32
	g, fis := testShardsFI(t, ShardsConfig{
		Shards: 1,
		Device: device.Config{Kind: device.ThreeLC, Blocks: blocks, Seed: 5, DisableWearout: true},
	}, nil)
	srv := NewServer(g, ServerConfig{})
	c, err := Dial(startServerOn(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := make([][]byte, blocks)
	for b := range want {
		want[b] = make([]byte, core.BlockBytes)
		stamp(want[b], 1, b, 0)
		if _, err := c.WriteAt(want[b], int64(b)*core.BlockBytes); err != nil {
			t.Fatal(err)
		}
	}
	// checkedRead is one READ through the client's call path, asserting
	// the reply carries this call's id and this block's bytes.
	checkedRead := func(ctx context.Context, b int) error {
		req := request{op: OpRead, off: int64(b) * core.BlockBytes, n: core.BlockBytes}
		resp, err := c.call(ctx, &req)
		if err != nil {
			return err
		}
		defer resp.release()
		if resp.id != req.id {
			t.Errorf("call %d received the reply to call %d", req.id, resp.id)
		}
		if !bytes.Equal(resp.payload, want[b]) {
			t.Errorf("call %d (block %d) received another call's payload", req.id, b)
		}
		return nil
	}

	// abandonAfter runs one checked read and cancels it after patience.
	// Cancellation (unlike a deadline) puts no budget on the wire, so the
	// server executes the request in full and its reply arrives late.
	abandonAfter := func(patience time.Duration, b int) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		defer time.AfterFunc(patience, cancel).Stop()
		return checkedRead(ctx, b)
	}

	// Straddle the injected latency with the caller's patience, so some
	// replies beat the cancel, some lose to it, and some arrive while
	// the caller is in the act of giving up.
	const latency = 2 * time.Millisecond
	const workers, perWorker = 4, 24
	fis[0].SetLatency(latency)
	readsBefore := srv.metrics.reads.Value()
	var abandoned atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := abandonAfter(latency/2+time.Duration(i%8)*latency/2, (w*perWorker+i)%blocks)
				switch {
				case err == nil:
				case errors.Is(err, context.Canceled):
					abandoned.Add(1)
				default:
					t.Errorf("abandoning read: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if abandoned.Load() == 0 {
		t.Fatal("no call was abandoned; the latency injection did not bite")
	}
	// One last call abandoned for certain, its reply still in flight
	// when the verified traffic starts.
	fis[0].SetLatency(20 * time.Millisecond)
	if err := abandonAfter(time.Millisecond, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("a 1 ms call against a 20 ms device returned %v", err)
	}
	fis[0].SetLatency(0)

	for i := 0; i < 1000; i++ {
		if err := checkedRead(context.Background(), (i*7)%blocks); err != nil {
			t.Fatalf("op %d after abandonment: %v", i, err)
		}
	}
	// The one shard serves in order, so by now the server has executed
	// and answered every request, abandoned or not: the late replies
	// crossed the wire while the ops above ran.
	if got, want := srv.metrics.reads.Value()-readsBefore, uint64(workers*perWorker+1+1000); got != want {
		t.Errorf("server answered %d reads, want %d", got, want)
	}
}

// TestReadStrideOutlivesBuffer holds the records a READ_STRIDE returned
// across 1 000 further ops on the same client — each of which recycles
// frame buffers — and re-checks them: the records must not alias a
// pooled buffer.
func TestReadStrideOutlivesBuffer(t *testing.T) {
	const blocks, recordBytes = 32, 16
	g := liveShards(t, 2, blocks/2, LiveConfig{})
	c, err := Dial(startServer(t, g, ServerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block := make([]byte, core.BlockBytes)
	for b := 0; b < blocks; b++ {
		stamp(block, 2, b, 0)
		if _, err := c.WriteAt(block, int64(b)*core.BlockBytes); err != nil {
			t.Fatal(err)
		}
	}
	records, err := c.ReadStrideCtx(context.Background(), 0, core.BlockBytes, recordBytes, blocks)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for b, rec := range records {
			stamp(block, 2, b, 0)
			if !bytes.Equal(rec, block[:recordBytes]) {
				t.Fatalf("%s: record %d = %x, want %x", when, b, rec, block[:recordBytes])
			}
		}
	}
	check("fresh")
	scratch := make([]byte, core.BlockBytes)
	for i := 0; i < 1000; i++ {
		// Overwrite with different bytes and read them back: both
		// directions cycle frame buffers through the pool.
		off := int64(i%blocks) * core.BlockBytes
		stamp(scratch, 3, i, 1)
		if _, err := c.WriteAt(scratch, off); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(scratch, off); err != nil {
			t.Fatal(err)
		}
	}
	check("after 1000 further ops")
}
