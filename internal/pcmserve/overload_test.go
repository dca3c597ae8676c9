package pcmserve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faultinject"
)

// checkGoroutines asserts at cleanup that the test leaked no
// goroutines: a stuffed shard queue or an abandoned enqueue wait must
// never pin a goroutine forever. Register it BEFORE the fixtures whose
// cleanups tear the goroutines down.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 64<<10)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// saturated builds a single-shard device whose owner goroutine is
// pinned by injected latency and whose queue holds queued legacy
// writes. release clears the latency and waits for the stuffed writes
// to drain; the caller must run its assertions well inside lat, while
// the first op still occupies the owner.
func saturated(t *testing.T, queueDepth, nQueued int, lat time.Duration) (g *Shards, fi *faultinject.Device, release func()) {
	t.Helper()
	var fis []*faultinject.Device
	g, fis = testShardsFI(t, ShardsConfig{
		Shards:     1,
		QueueDepth: queueDepth,
		Device: device.Config{
			Kind:           device.ThreeLC,
			Blocks:         16,
			Seed:           7,
			DisableWearout: true,
		},
	}, nil)
	fi = fis[0]
	fi.SetLatency(lat)

	var wg sync.WaitGroup
	buf := make([]byte, 64)
	for i := 0; i <= nQueued; i++ { // one in service + nQueued queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.WriteAt(buf, int64(i*64)); err != nil {
				t.Errorf("stuffing write %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(g.shards[0].ch) < nQueued {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d queued writes (at %d)", nQueued, len(g.shards[0].ch))
		}
		time.Sleep(time.Millisecond)
	}
	return g, fi, func() {
		fi.SetLatency(0)
		wg.Wait()
	}
}

// TestBackgroundShedsBeforeForeground is the priority property: at a
// queue occupancy past the background high-water mark but below full,
// background admission sheds with a retry-after hint while sheddable
// foreground work is still admitted and completes.
func TestBackgroundShedsBeforeForeground(t *testing.T) {
	checkGoroutines(t)
	// queueDepth 4 → bgHighWater 2; stuff 2 queued so background sheds
	// but foreground still has room.
	g, _, release := saturated(t, 4, 2, 500*time.Millisecond)

	buf := make([]byte, 64)
	_, err := g.writeAtMeta(opMeta{class: classBackground}, buf, 512)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("background write at high water: got %v, want ErrOverloaded", err)
	}
	if RetryAfter(err) <= 0 {
		t.Errorf("shed background write carried no retry-after hint: %v", err)
	}

	// Sheddable foreground admitted at the same occupancy; it completes
	// once the owner unblocks.
	fgErr := make(chan error, 1)
	go func() {
		_, err := g.writeAtMeta(opMeta{sheddable: true}, buf, 576)
		fgErr <- err
	}()
	release()
	if err := <-fgErr; err != nil {
		t.Fatalf("sheddable foreground write at background high water: %v", err)
	}

	st := g.OverloadStats()
	if st.ShedBackground == 0 {
		t.Error("ShedBackground counter never incremented")
	}
	if st.ShedForeground != 0 {
		t.Errorf("ShedForeground = %d, want 0 (queue was never full)", st.ShedForeground)
	}
}

// TestForegroundShedsWhenFull: with the queue completely full, a
// sheddable foreground request fast-fails with a typed overload error
// after the bounded admission wait instead of blocking.
func TestForegroundShedsWhenFull(t *testing.T) {
	checkGoroutines(t)
	g, _, release := saturated(t, 4, 4, 500*time.Millisecond)
	defer release()

	buf := make([]byte, 64)
	start := time.Now()
	_, err := g.writeAtMeta(opMeta{sheddable: true}, buf, 512)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("sheddable foreground write on full queue: got %v, want ErrOverloaded", err)
	}
	if wait := time.Since(start); wait > 200*time.Millisecond {
		t.Errorf("fast-fail took %v, want ≲ the bounded admission wait", wait)
	}
	if RetryAfter(err) <= 0 {
		t.Errorf("shed foreground write carried no retry-after hint: %v", err)
	}
	if st := g.OverloadStats(); st.ShedForeground == 0 {
		t.Error("ShedForeground counter never incremented")
	}
}

// TestEnqueueCtxCancelStuffedQueue is the regression test for the
// blocking-enqueue fix: a legacy (non-sheddable) request blocked on a
// full shard queue must abandon the wait promptly when its context
// dies — with the typed deadline error when the context timed out —
// instead of pinning its goroutine until the queue drains.
func TestEnqueueCtxCancelStuffedQueue(t *testing.T) {
	checkGoroutines(t)
	g, _, release := saturated(t, 4, 4, 500*time.Millisecond)
	defer release()

	buf := make([]byte, 64)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.WriteAtCtx(ctx, buf, 512)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block on the full queue
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled enqueue returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled enqueue still blocked after 2s (stuffed-queue goroutine pin)")
	}

	// A context deadline maps to the typed wire sentinel.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := g.ReadAtCtx(dctx, buf, 0); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline-expired enqueue returned %v, want ErrDeadlineExceeded", err)
	}
}

// TestExpiredDroppedAtDequeue: a queued request whose deadline passes
// before the shard reaches it is dropped at dequeue — counted, failed
// typed, and never executed against the device.
func TestExpiredDroppedAtDequeue(t *testing.T) {
	checkGoroutines(t)
	g, _, release := saturated(t, 8, 1, 300*time.Millisecond)

	// Seed block 2 with known bytes through the stuffed queue (it will
	// execute after the blockers drain).
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(0xA0 + i)
	}
	seeded := make(chan error, 1)
	go func() {
		_, err := g.WriteAt(want, 128)
		seeded <- err
	}()

	// This write's deadline expires while it waits behind the pinned
	// owner; it must come back typed and must never touch the device.
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = 0xFF
	}
	_, err := g.writeAtMeta(opMeta{deadline: time.Now().Add(10 * time.Millisecond)}, garbage, 128)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired queued write returned %v, want ErrDeadlineExceeded", err)
	}

	release()
	if err := <-seeded; err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if st := g.OverloadStats(); st.ExpiredDequeued == 0 {
		t.Error("ExpiredDequeued counter never incremented")
	}
	got := make([]byte, 64)
	if _, err := g.ReadAt(got, 128); err != nil {
		t.Fatalf("readback: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("expired write executed anyway: block content diverged at byte %d", i)
		}
	}
}

// TestOverloadWireRoundTrip checks the StatusErr encoding of an
// admission rejection: code, retry-after hint, and message survive
// errResponse → decodeWireError, and the rebuilt error keeps its sentinel
// identity and transient classification.
func TestOverloadWireRoundTrip(t *testing.T) {
	src := &OverloadError{RetryAfter: 7 * time.Millisecond}
	fr := respBytes(errResponse(42, src))
	// Frame layout: u32 len, u32 crc, u64 id, u8 status, payload.
	payload := fr[8+headerBytes:]
	err := decodeWireError(payload)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("decoded error %v does not unwrap to ErrOverloaded", err)
	}
	if got := RetryAfter(err); got != 7*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 7ms", got)
	}
	if Classify(err) != ClassTransient {
		t.Errorf("Classify = %v, want transient", Classify(err))
	}

	fr = respBytes(errResponse(43, ErrDeadlineExceeded))
	err = decodeWireError(fr[8+headerBytes:])
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("decoded error %v does not unwrap to ErrDeadlineExceeded", err)
	}
	if Classify(err) != ClassTransient {
		t.Errorf("Classify = %v, want transient", Classify(err))
	}
	if got := RetryAfter(err); got != 0 {
		t.Errorf("RetryAfter on deadline error = %v, want 0", got)
	}
}

// TestOverloadOverWire drives a shed through the full server + client
// stack: a saturated shard rejects a sheddable foreground request and
// the client sees a RemoteError that unwraps to ErrOverloaded with the
// server's retry-after hint attached.
func TestOverloadOverWire(t *testing.T) {
	checkGoroutines(t)
	g, _, release := saturated(t, 4, 4, 800*time.Millisecond)
	defer release()
	addr := startServer(t, g, ServerConfig{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	buf := make([]byte, 64)
	_, err = c.WriteAtCtx(context.Background(), buf, 512)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("write against saturated server: got %v, want ErrOverloaded", err)
	}
	if RetryAfter(err) <= 0 {
		t.Errorf("wire overload error carried no retry-after hint: %v", err)
	}

	// Background-classed request sheds too (high-water, not full, would
	// also shed — full certainly does).
	_, err = c.ReadAtCtx(WithBackground(context.Background()), buf, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("background read against saturated server: got %v, want ErrOverloaded", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Overload.ShedForeground == 0 {
		t.Error("server stats show no foreground sheds")
	}
	if st.Overload.ShedBackground == 0 {
		t.Error("server stats show no background sheds")
	}
}

// TestExtHeaderInterop covers both directions of version gating: a new
// client against a server predating the extended header latches into
// legacy framing (transparently, under the retry client), and a
// legacy-framing client works against a new server.
func TestExtHeaderInterop(t *testing.T) {
	checkGoroutines(t)
	g := testShards(t, 2, 8, 8)
	oldServer := startServer(t, g, ServerConfig{DisableExtHeader: true})

	// Bare client: the first extended request is rejected and the
	// connection dies (old servers close on unknown ops), surfacing as
	// a typed transient conn failure — but the latch is set.
	c, err := Dial(oldServer)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	if _, err := c.ReadAtCtx(context.Background(), buf, 0); !errors.Is(err, ErrConnFailed) {
		t.Fatalf("first ext request against old server: got %v, want ErrConnFailed", err)
	}
	if !c.legacy.Load() {
		t.Fatal("client did not latch legacy framing after ext rejection")
	}

	// Retry client: the latch is shared across redials, so the whole
	// fallback is invisible to the caller — even with a deadline and a
	// background class that have no wire representation in legacy frames.
	r, err := DialRetry(oldServer, RetryConfig{
		MaxReadAttempts:  4,
		MaxWriteAttempts: 4,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial retry: %v", err)
	}
	defer r.Close()
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(i + 1)
	}
	ctx, cancel := context.WithTimeout(WithBackground(context.Background()), 5*time.Second)
	defer cancel()
	if _, err := r.WriteAtCtx(ctx, want, 64); err != nil {
		t.Fatalf("retry client write against old server: %v", err)
	}
	got := make([]byte, 64)
	if _, err := r.ReadAtCtx(ctx, got, 64); err != nil {
		t.Fatalf("retry client read against old server: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("readback mismatch at byte %d through legacy fallback", i)
		}
	}

	// Other direction: a client pinned to legacy framing (an old build)
	// against a NEW server.
	newServer := startServer(t, testShards(t, 2, 8, 8), ServerConfig{})
	lc, err := Dial(newServer)
	if err != nil {
		t.Fatalf("dial new server: %v", err)
	}
	defer lc.Close()
	lc.legacy.Store(true)
	if _, err := lc.WriteAt(want, 0); err != nil {
		t.Fatalf("legacy-framing write against new server: %v", err)
	}
	if _, err := lc.ReadAt(got, 0); err != nil {
		t.Fatalf("legacy-framing read against new server: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("legacy-framing readback mismatch at byte %d", i)
		}
	}
}

// TestRetryBudget is the token-bucket unit test: the bucket starts
// full, spends one token per retry, refills a ratio per success, and
// saturates at the burst size.
func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(0.5, 4)
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("Allow %d: bucket should start full", i)
		}
	}
	if b.Allow() {
		t.Fatal("Allow succeeded on a dry bucket")
	}
	b.OnSuccess()
	if b.Allow() {
		t.Fatal("half a token must not grant a retry")
	}
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("two successes at ratio 0.5 should refill one retry")
	}
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("Allow %d after refill: refill must saturate at burst, not below", i)
		}
	}
	if b.Allow() {
		t.Fatal("refill exceeded the burst size")
	}
}

// TestRetryBudgetExhaustion: against a persistently overloaded server,
// the retry client stops retrying when the budget dries up and fails
// with ErrRetryBudgetExhausted wrapping the overload error — the
// anti-amplification property.
func TestRetryBudgetExhaustion(t *testing.T) {
	checkGoroutines(t)
	g, _, release := saturated(t, 4, 4, 2*time.Second)
	defer release()
	addr := startServer(t, g, ServerConfig{})

	budget := NewRetryBudget(0.1, 1)
	r, err := DialRetry(addr, RetryConfig{
		MaxWriteAttempts: 4,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		Budget:           budget,
	})
	if err != nil {
		t.Fatalf("dial retry: %v", err)
	}
	defer r.Close()

	buf := make([]byte, 64)
	_, err = r.WriteAtCtx(context.Background(), buf, 512)
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("write against saturated server: got %v, want ErrRetryBudgetExhausted", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("budget-exhausted error does not wrap the underlying overload: %v", err)
	}
	if st := r.RetryStats(); st.BudgetExhausted == 0 {
		t.Error("RetryStats.BudgetExhausted never incremented")
	}
}
