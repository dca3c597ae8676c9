package pcmserve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer brings up a loopback server over a fresh Shards device
// and returns its address. Cleanup shuts the server down gracefully.
func startServer(t *testing.T, g *Shards, cfg ServerConfig) string {
	t.Helper()
	srv := NewServer(g, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// TestServerLoopback is the acceptance-criteria integration test: ≥ 4
// concurrent clients against a ≥ 4-shard server, read-after-write
// contents verified across shard boundaries, and STATS op counts that
// sum to the issued requests. Run under -race it also proves the
// serving stack free of data races.
func TestServerLoopback(t *testing.T) {
	g := testShards(t, 4, 8, 8) // shardSize = 512 B, total 2 KiB
	addr := startServer(t, g, ServerConfig{})

	const clients = 4
	const itersPerClient = 12
	region := g.Size() / clients
	shardSize := g.Size() / int64(g.NumShards())

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := int64(w) * region
			buf := make([]byte, 100) // straddles block and shard edges
			got := make([]byte, len(buf))
			for iter := 0; iter < itersPerClient; iter++ {
				for i := range buf {
					buf[i] = byte(w*37 + iter*11 + i)
				}
				off := base + int64(iter*13)%(region-int64(len(buf)))
				if _, err := c.WriteAt(buf, off); err != nil {
					errs <- err
					return
				}
				if _, err := c.ReadAt(got, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- errors.New("read-after-write mismatch over the wire")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A request region deliberately straddling a shard boundary,
	// checked byte for byte from a separate client.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	cross := make([]byte, 64)
	for i := range cross {
		cross[i] = byte(200 + i)
	}
	crossOff := shardSize*2 - 32 // half in shard 1, half in shard 2
	if _, err := c.WriteAt(cross, crossOff); err != nil {
		t.Fatalf("cross-shard WriteAt: %v", err)
	}
	got := make([]byte, len(cross))
	if _, err := c.ReadAt(got, crossOff); err != nil {
		t.Fatalf("cross-shard ReadAt: %v", err)
	}
	if !bytes.Equal(got, cross) {
		t.Fatal("cross-shard readback mismatch")
	}

	// Advance simulated time over the wire.
	if err := c.Advance(60); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	// STATS: request-level op counts must sum to everything issued.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	wantReads := uint64(clients*itersPerClient + 1)
	wantWrites := uint64(clients*itersPerClient + 1)
	if st.Reads != wantReads {
		t.Errorf("Stats.Reads = %d, want %d", st.Reads, wantReads)
	}
	if st.Writes != wantWrites {
		t.Errorf("Stats.Writes = %d, want %d", st.Writes, wantWrites)
	}
	if st.Advances != 1 {
		t.Errorf("Stats.Advances = %d, want 1", st.Advances)
	}
	if st.Errors != 0 {
		t.Errorf("Stats.Errors = %d, want 0", st.Errors)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Stats.Shards has %d entries, want 4", len(st.Shards))
	}
	// Per-shard write counts must account for every write span: all
	// writes were single-shard except the cross-shard one (2 spans).
	var shardWrites uint64
	for _, ss := range st.Shards {
		shardWrites += ss.Writes
	}
	if want := wantWrites + 1; shardWrites != want {
		t.Errorf("sum of per-shard writes = %d, want %d", shardWrites, want)
	}
}

// TestClientPipelining issues many concurrent requests on ONE client
// connection; responses may interleave and return out of order.
func TestClientPipelining(t *testing.T) {
	g := testShards(t, 4, 8, 8)
	addr := startServer(t, g, ServerConfig{MaxInflight: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * 128
			buf := bytes.Repeat([]byte{byte(i + 1)}, 128)
			if _, err := c.WriteAt(buf, off); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(buf))
			if _, err := c.ReadAt(got, off); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, buf) {
				errs <- errors.New("pipelined read-after-write mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWireEOFAndErrors exercises the protocol's EOF and error paths.
func TestWireEOFAndErrors(t *testing.T) {
	g := testShards(t, 2, 2, 4)
	addr := startServer(t, g, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	size := g.Size()
	p := make([]byte, 50)
	n, err := c.ReadAt(p, size-10)
	if n != 10 || err != io.EOF {
		t.Fatalf("remote ReadAt past end = %d, %v; want 10, io.EOF", n, err)
	}
	if n, err := c.ReadAt(p, size+5); n != 0 || err != io.EOF {
		t.Fatalf("remote ReadAt beyond end = %d, %v; want 0, io.EOF", n, err)
	}
	if _, err := c.WriteAt(p, size-10); err == nil {
		t.Fatal("remote overlong WriteAt succeeded, want error")
	}
	// The connection must survive an in-band error response.
	if _, err := c.WriteAt(p, 0); err != nil {
		t.Fatalf("WriteAt after error response: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Errors != 1 {
		t.Errorf("Stats.Errors = %d, want 1 (the rejected write)", st.Errors)
	}
}

// TestGracefulShutdown verifies Shutdown drains an in-flight request
// rather than dropping it.
func TestGracefulShutdown(t *testing.T) {
	g := testShards(t, 4, 4, 8)
	srv := NewServer(g, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Prove the conn works, then shut down and verify the server exits.
	if _, err := c.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New requests on the old connection now fail.
	if _, err := c.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("ReadAt after shutdown succeeded")
	}
}

// TestProtocolRoundTrip fuzzes the codec helpers directly.
func TestProtocolRoundTrip(t *testing.T) {
	const trace = 0xDEADBEEFCAFE
	exts := []wireExt{{}, {ext: true, deadlineUs: 2500, class: classBackground}}
	for _, ext := range exts {
		reqs := [][]byte{
			reqBytes(request{id: 7, op: OpRead, trace: trace, wireExt: ext, off: 1024, n: 512}),
			reqBytes(request{id: 8, op: OpWrite, trace: trace, wireExt: ext, off: 64, data: []byte("hello pcm")}),
			reqBytes(request{id: 9, op: OpAdvance, trace: trace, wireExt: ext, dt: 3.5}),
			reqBytes(request{id: 10, op: OpStats, trace: trace, wireExt: ext}),
		}
		for i, fr := range reqs {
			body, err := readFrameBytes(bytes.NewReader(fr), DefaultMaxFrame)
			if err != nil {
				t.Fatalf("req %d: readFrame: %v", i, err)
			}
			req, err := parseRequest(body)
			if err != nil {
				t.Fatalf("req %d: parseRequest: %v", i, err)
			}
			if req.id != uint64(7+i) {
				t.Errorf("req %d: id = %d, want %d", i, req.id, 7+i)
			}
			if req.trace != trace {
				t.Errorf("req %d: trace = %#x, want %#x", i, req.trace, uint64(trace))
			}
			if req.ext != ext.ext {
				t.Errorf("req %d: ext = %v, want %v", i, req.ext, ext.ext)
			}
			if ext.ext && (req.deadlineUs != ext.deadlineUs || req.class != ext.class) {
				t.Errorf("req %d: ext header = (%d, %d), want (%d, %d)",
					i, req.deadlineUs, req.class, ext.deadlineUs, ext.class)
			}
		}
	}
	if _, err := parseRequest([]byte{1, 2, 3}); err == nil {
		t.Error("short request parsed")
	}
	// Oversized frame rejected before allocation.
	big := reqBytes(request{id: 1, op: OpWrite, data: make([]byte, 1024)})
	if _, err := readFrameBytes(bytes.NewReader(big), 64); err == nil {
		t.Error("oversized frame accepted")
	}
}
