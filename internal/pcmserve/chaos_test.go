package pcmserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faultinject"
)

// TestRetryWriteBounded: write retry attempts are bounded and surfaced
// in the error.
func TestRetryWriteBounded(t *testing.T) {
	// A listener that is immediately closed: every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc, err := DialRetry(addr, RetryConfig{
		MaxWriteAttempts: 3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer rc.Close()
	_, werr := rc.WriteAt(make([]byte, 8), 0)
	if werr == nil {
		t.Fatal("write against a dead address succeeded")
	}
	if !strings.Contains(werr.Error(), "3 attempts") {
		t.Fatalf("error does not surface the attempt bound: %v", werr)
	}
	if st := rc.RetryStats(); st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (attempts beyond the first)", st.Retries)
	}
}

// TestClientReconnectAcrossServerRestart is the acceptance check: a
// RetryClient completes a read workload across a full server restart
// with zero caller-visible errors.
func TestClientReconnectAcrossServerRestart(t *testing.T) {
	g := testShards(t, 4, 8, 16)

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln1.Addr().String()
	srv1 := NewServer(g, ServerConfig{})
	go srv1.Serve(ln1)

	// Seed the device through a throwaway direct client.
	pattern := make([]byte, g.Size())
	for i := range pattern {
		pattern[i] = byte(i%249 + 3)
	}
	seed, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := seed.WriteAt(pattern, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	seed.Close()

	rc, err := DialRetry(addr, RetryConfig{
		MaxReadAttempts: 64,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      20 * time.Millisecond,
		OpTimeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer rc.Close()

	stop := make(chan struct{})
	var reads atomic.Uint64
	readerErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			off := rng.Int63n(g.Size() - 64)
			if _, err := rc.ReadAt(buf, off); err != nil {
				readerErr <- fmt.Errorf("read at %d: %w", off, err)
				return
			}
			if !bytes.Equal(buf, pattern[off:off+64]) {
				readerErr <- fmt.Errorf("corrupted read at %d", off)
				return
			}
			reads.Add(1)
		}
	}()

	// Let the workload run, then restart the server under it.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var ln2 net.Listener
	for i := 0; i < 200; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := NewServer(g, ServerConfig{})
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(ln2) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		<-serve2
	})

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("caller-visible error across restart: %v", err)
	default:
	}
	if reads.Load() == 0 {
		t.Fatal("reader made no progress")
	}
	if st := rc.RetryStats(); st.Redials < 2 {
		t.Fatalf("Redials = %d, want ≥ 2 (initial + post-restart)", st.Redials)
	}
}

// TestChaosSoak runs the full client–server stack with every fault
// family enabled at once — scheduled uncorrectable reads, injected
// write errors, shard panics, latency spikes, and connection cuts — and
// asserts the acceptance invariants: no corrupted data observed by any
// client, no deadlock (the test finishes), and every shard back to
// healthy at the end. Run under -race this is the resilience proof of
// the serving stack.
func TestChaosSoak(t *testing.T) {
	minOps := 2000
	if testing.Short() {
		minOps = 400
	}

	g, fis := testShardsFI(t, ShardsConfig{
		Shards:      4,
		QueueDepth:  16,
		HealAfter:   8,
		MaxRestarts: 20,
	}, func(i int) faultinject.Plan {
		return faultinject.Plan{
			Seed:              uint64(i)*7919 + 1,
			UncorrectableRead: faultinject.Schedule{Every: 70, Times: 5},
			WriteError:        faultinject.Schedule{Every: 90, Times: 5},
			Panic:             faultinject.Schedule{Every: 100, Start: 50, Times: 2},
			Latency:           faultinject.Schedule{Every: 40},
			LatencyDuration:   200 * time.Microsecond,
		}
	})

	addr := startServer(t, g, ServerConfig{MaxInflight: 16})

	const clients = 3
	region := g.Size() / clients
	const opLen = 96

	type report struct {
		worker       int
		mismatches   int
		corruptReads int
		writeFails   int
		readFails    int
		detail       string
	}
	reports := make(chan report, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := report{worker: w}
			defer func() { reports <- rep }()

			rc, err := NewRetryClient(RetryConfig{
				Dial:             faultinject.Dialer(addr, uint64(w)*13+5, 2<<10, 8<<10),
				MaxReadAttempts:  16,
				MaxWriteAttempts: 6,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				OpTimeout:        5 * time.Second,
				Seed:             uint64(w) + 1,
			})
			if err != nil {
				rep.detail = err.Error()
				rep.mismatches++
				return
			}
			defer rc.Close()

			base := int64(w) * region
			mirror := make([]byte, region)
			valid := make([]bool, region)
			rng := rand.New(rand.NewSource(int64(w)*997 + 1))
			buf := make([]byte, opLen)

			for op := 0; op < minOps; op++ {
				off := rng.Int63n(region - opLen)
				if rng.Intn(100) < 60 {
					n, err := rc.ReadAt(buf[:opLen], base+off)
					if err != nil {
						if Classify(err) == ClassCorrupt {
							rep.corruptReads++
						} else {
							rep.readFails++
						}
						continue
					}
					for i := 0; i < n; i++ {
						if valid[off+int64(i)] && buf[i] != mirror[off+int64(i)] {
							rep.mismatches++
							rep.detail = fmt.Sprintf("worker %d: mismatch at %d (op %d)", w, base+off+int64(i), op)
							return
						}
					}
				} else {
					rng.Read(buf[:opLen])
					n, err := rc.WriteAt(buf[:opLen], base+off)
					if err == nil && n == opLen {
						copy(mirror[off:off+opLen], buf[:opLen])
						for i := int64(0); i < opLen; i++ {
							valid[off+i] = true
						}
					} else {
						// Failed or ambiguous: stop trusting the span.
						rep.writeFails++
						for i := int64(0); i < opLen; i++ {
							valid[off+i] = false
						}
					}
				}
			}

			// Post-soak verification with a clean, cut-free connection:
			// every byte a clean write confirmed must read back intact.
			c, err := Dial(addr)
			if err != nil {
				rep.detail = "final dial: " + err.Error()
				rep.mismatches++
				return
			}
			defer c.Close()
			final := make([]byte, region)
			for off := int64(0); off < region; off += 512 {
				end := off + 512
				if end > region {
					end = region
				}
				var rerr error
				for attempt := 0; attempt < 8; attempt++ {
					// Bounded fault schedules may not be exhausted yet, so
					// allow a few retries through the same clean conn.
					if _, rerr = c.ReadAt(final[off:end], base+off); rerr == nil {
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				if rerr != nil {
					rep.detail = fmt.Sprintf("final read at %d: %v", base+off, rerr)
					rep.mismatches++
					return
				}
			}
			for i := int64(0); i < region; i++ {
				if valid[i] && final[i] != mirror[i] {
					rep.mismatches++
					rep.detail = fmt.Sprintf("worker %d: final mismatch at %d", w, base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(reports)

	var totalCorrupt, totalWriteFails, totalReadFails int
	for rep := range reports {
		if rep.mismatches != 0 {
			t.Fatalf("worker %d observed corrupted data: %s", rep.worker, rep.detail)
		}
		totalCorrupt += rep.corruptReads
		totalWriteFails += rep.writeFails
		totalReadFails += rep.readFails
	}
	t.Logf("soak: corruptReads=%d writeFails=%d readFails=%d", totalCorrupt, totalWriteFails, totalReadFails)

	// The fault plan must actually have fired: panics on at least one
	// shard, and injected faults overall.
	var panics, injectedReads uint64
	for _, fi := range fis {
		st := fi.Stats()
		panics += st.Panics
		injectedReads += st.UncorrectableReads
	}
	if panics == 0 {
		t.Error("no shard panics were injected; soak did not exercise the supervisor")
	}
	if injectedReads == 0 {
		t.Error("no uncorrectable reads were injected")
	}

	// Eventual recovery: every shard back to healthy, helped along by a
	// trickle of traffic (healing needs completed ops).
	buf := make([]byte, 8)
	waitHealth(t, g, Healthy, 10*time.Second, func() {
		for i := 0; i < g.NumShards(); i++ {
			g.ReadAt(buf, int64(i)*g.Size()/int64(g.NumShards()))
		}
	})

	snap := g.Snapshot()
	var restarts uint64
	for _, s := range snap {
		restarts += s.Restarts
	}
	if panics > 0 && restarts == 0 {
		t.Error("panics fired but no supervisor restarts recorded")
	}
}

// TestIntegrityChaosSoak is the end-to-end data-integrity proof: bits
// flip both in the stored blocks (under the BCH layer) and on the wire
// (under the frame CRC) while clients hammer a live server with the
// verify-scrubber running. The invariant is absolute — every read
// returns exactly the data last written or a typed error; silent
// corruption is an immediate failure. Run under -race this also proves
// the new integrity paths are data-race free.
func TestIntegrityChaosSoak(t *testing.T) {
	minOps := 1500
	if testing.Short() {
		minOps = 300
	}

	g, fis := testShardsFI(t, ShardsConfig{
		Shards:     2,
		QueueDepth: 16,
		Device: device.Config{
			Kind:           device.ThreeLC,
			Blocks:         48,
			Seed:           2026,
			ReserveBlocks:  4,
			DisableWearout: true,
		},
		Integrity:     &IntegrityConfig{T: 10},
		VerifyScrub:   true,
		ScrubInterval: 2 * time.Millisecond,
	}, func(i int) faultinject.Plan {
		return faultinject.Plan{
			Seed: uint64(i)*6151 + 3,
			// Flip 3 stored bits on every 20th read — always within
			// BCH-10 capability, so reads must come back exact.
			BitFlip:     faultinject.Schedule{Every: 20},
			BitFlipBits: 3,
		}
	})

	srv := NewServer(g, ServerConfig{MaxInflight: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()
	addr := ln.Addr().String()

	// Seed the whole device through a clean connection, so every later
	// read has a known expected value.
	pattern := make([]byte, g.Size())
	for i := range pattern {
		pattern[i] = byte(i*17 + 5)
	}
	seed, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := seed.WriteAt(pattern, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	seed.Close()

	const clients = 2
	region := g.Size() / clients
	const opLen = 96

	type report struct {
		worker     int
		mismatches int
		readFails  int
		writeFails int
		redials    uint64
		detail     string
	}
	reports := make(chan report, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := report{worker: w}
			defer func() { reports <- rep }()

			rc, err := NewRetryClient(RetryConfig{
				// Roughly 1 flipped bit per 4 KiB in BOTH directions:
				// connections die on CRC mismatches and the retry layer
				// must reconnect, transparently.
				Dial:             faultinject.FlipDialer(addr, uint64(w)*31+7, 4096),
				MaxReadAttempts:  32,
				MaxWriteAttempts: 8,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       10 * time.Millisecond,
				OpTimeout:        5 * time.Second,
				Seed:             uint64(w) + 1,
			})
			if err != nil {
				rep.detail = err.Error()
				rep.mismatches++
				return
			}
			defer func() {
				rep.redials = rc.RetryStats().Redials
				rc.Close()
			}()

			base := int64(w) * region
			mirror := make([]byte, region)
			copy(mirror, pattern[base:base+region])
			valid := make([]bool, region)
			for i := range valid {
				valid[i] = true
			}
			rng := rand.New(rand.NewSource(int64(w)*631 + 9))
			buf := make([]byte, opLen)

			for op := 0; op < minOps; op++ {
				off := rng.Int63n(region - opLen)
				if rng.Intn(100) < 60 {
					n, err := rc.ReadAt(buf[:opLen], base+off)
					if err != nil {
						// No beyond-capability faults are injected, so even
						// a corrupt classification would be a bug — but a
						// read that errors at least never lied.
						rep.readFails++
						if Classify(err) == ClassCorrupt {
							rep.mismatches++
							rep.detail = fmt.Sprintf("worker %d: corrupt verdict without beyond-t injection: %v", w, err)
							return
						}
						continue
					}
					for i := 0; i < n; i++ {
						if valid[off+int64(i)] && buf[i] != mirror[off+int64(i)] {
							rep.mismatches++
							rep.detail = fmt.Sprintf("worker %d: silent corruption at %d (op %d)", w, base+off+int64(i), op)
							return
						}
					}
				} else {
					rng.Read(buf[:opLen])
					n, err := rc.WriteAt(buf[:opLen], base+off)
					if err == nil && n == opLen {
						copy(mirror[off:off+opLen], buf[:opLen])
						for i := int64(0); i < opLen; i++ {
							valid[off+i] = true
						}
					} else {
						rep.writeFails++
						for i := int64(0); i < opLen; i++ {
							valid[off+i] = false
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(reports)

	var totalReadFails, totalWriteFails int
	var totalRedials uint64
	for rep := range reports {
		if rep.mismatches != 0 {
			t.Fatalf("worker %d: %s", rep.worker, rep.detail)
		}
		totalReadFails += rep.readFails
		totalWriteFails += rep.writeFails
		totalRedials += rep.redials
	}

	// The faults must actually have fired, and the integrity machinery
	// must have caught and healed them.
	var storedFlips, correctedBits, readRepairs uint64
	for _, fi := range fis {
		storedFlips += fi.Stats().BitFlips
	}
	for _, s := range g.shards {
		correctedBits += s.integ.correctedBits.Value()
		readRepairs += s.integ.readRepairs.Value()
	}
	scrub := g.ScrubStats()
	t.Logf("soak: storedFlips=%d correctedBits=%d readRepairs=%d frameCRC=%d redials=%d readFails=%d writeFails=%d verify={clean:%d corrected:%d uncorrectable:%d}",
		storedFlips, correctedBits, readRepairs, srv.metrics.frameCRCMismatch.Value(),
		totalRedials, totalReadFails, totalWriteFails,
		scrub.VerifyClean, scrub.VerifyCorrected, scrub.VerifyUncorrectable)

	if storedFlips == 0 {
		t.Error("no stored bits were flipped; the soak did not exercise the BCH layer")
	}
	if correctedBits == 0 {
		t.Error("no bits were corrected; flips were injected but never decoded")
	}
	if readRepairs == 0 {
		t.Error("no read-repairs performed")
	}
	if srv.metrics.frameCRCMismatch.Value() == 0 {
		t.Error("server saw no frame CRC mismatches; wire flips did not reach it")
	}
	if totalRedials <= clients {
		t.Errorf("total redials = %d, want > %d (wire corruption must force reconnects)", totalRedials, clients)
	}
	if scrub.VerifyClean == 0 {
		t.Error("verify scrubber never saw a clean block")
	}
	if scrub.VerifyUncorrectable != 0 {
		t.Errorf("verify scrubber reported %d uncorrectable blocks with only within-t faults injected", scrub.VerifyUncorrectable)
	}
}

// TestWireCRCKillsConnTyped pins the client-visible contract of a CRC
// mismatch: the blocking call fails with ErrConnFailed AND ErrFrameCRC
// (transient), never a payload silently delivered. A hand-rolled server
// over a pipe answers the first request with a frame whose body is
// corrupted after the checksum was computed.
func TestWireCRCKillsConnTyped(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	go func() {
		defer srvSide.Close()
		req, err := readFrameBytes(srvSide, DefaultMaxFrame)
		if err != nil {
			return
		}
		r, err := parseRequest(req)
		if err != nil {
			return
		}
		resp := respBytes(response{id: r.id, status: StatusOK, payload: make([]byte, 64)})
		resp[len(resp)-1] ^= 0x40 // body bit flips in flight; CRC is stale
		srvSide.Write(resp)
	}()

	c := NewClient(cliSide)
	defer c.Close()

	_, rerr := c.ReadAt(make([]byte, 64), 0)
	if rerr == nil {
		t.Fatal("read returned a payload whose frame failed its checksum")
	}
	if !errors.Is(rerr, ErrConnFailed) || !errors.Is(rerr, ErrFrameCRC) {
		t.Fatalf("error = %v, want ErrConnFailed wrapping ErrFrameCRC", rerr)
	}
	if Classify(rerr) != ClassTransient {
		t.Fatalf("classified %v, want transient", Classify(rerr))
	}
}
