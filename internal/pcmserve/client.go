package pcmserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxChunk is the largest read or write payload the client puts in one
// frame; larger ReadAt/WriteAt calls are split into sequential chunks.
// Extended-header writes shave extHeaderBytes (rounded up to 64 for
// slack) off the chunk so the frame stays inside DefaultMaxFrame,
// which predates the header and must not move (old peers enforce it).
const maxChunk = 1 << 20

// classKey tags a context as carrying background work.
type classKey struct{}

// WithBackground marks ctx's requests as background class: servers shed
// them first under queue pressure (refresh, scrub, read-repair,
// anti-entropy, membership transfers ride this).
func WithBackground(ctx context.Context) context.Context {
	return context.WithValue(ctx, classKey{}, true)
}

// IsBackground reports whether ctx was tagged by WithBackground.
func IsBackground(ctx context.Context) bool {
	b, _ := ctx.Value(classKey{}).(bool)
	return b
}

// Client is a pipelined pcmserve client over ONE connection. It is safe
// for concurrent use: any number of goroutines may issue requests, each
// call blocking only its own goroutine while responses are matched back
// by request id.
//
// A Client does not survive its connection: once the conn dies every
// call fails with a sticky error. RetryClient layers reconnection and
// retry policy on top.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]chan response
	err     error // sticky; set when the connection dies
	closed  bool

	nextID     atomic.Uint64
	opTimeout  atomic.Int64 // nanoseconds; 0 = none
	readerDone chan struct{}

	// legacy latches when a peer rejects the extended header (deadline +
	// class): from then on this client sends legacy frames. RetryClient
	// shares one latch across redials so the downgrade is probed once
	// per peer, not once per connection.
	legacy *atomic.Bool
}

var _ io.ReaderAt = (*Client)(nil)
var _ io.WriterAt = (*Client)(nil)

// Dial connects to a pcmserve server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful for tests and
// custom transports). The client owns conn from here on.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriter(conn),
		pending:    make(map[uint64]chan response),
		readerDone: make(chan struct{}),
		legacy:     new(atomic.Bool),
	}
	go c.readLoop()
	return c
}

// reqExt builds the extended header for one request (ext false when
// the peer latched legacy). The deadline field carries the budget
// REMAINING at send time in µs (the server restarts the clock at
// receipt, so one-way latency eats into the budget exactly once).
func (c *Client) reqExt(ctx context.Context) wireExt {
	if c.legacy.Load() {
		return wireExt{}
	}
	e := wireExt{ext: true}
	if IsBackground(ctx) {
		e.class = classBackground
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			e.deadlineUs = uint64(rem / time.Microsecond)
			if e.deadlineUs == 0 {
				e.deadlineUs = 1
			}
		} else {
			e.deadlineUs = 1 // already expired; server fast-fails typed
		}
	}
	return e
}

// call stamps req with a fresh id, the context's trace and the extended
// header, and runs the round trip, plus the legacy-downgrade probe: a
// peer predating the extended header answers a flagged op with a
// generic "unknown op" error and closes the connection. The latch
// flips, the typed failure invalidates the connection upstream, and the
// retry lands with legacy framing. The caller owns the returned
// response and must release it.
func (c *Client) call(ctx context.Context, req *request) (response, error) {
	req.id = c.nextID.Add(1)
	req.trace = obs.TraceFromContext(ctx)
	req.wireExt = c.reqExt(ctx)
	resp, err := c.roundTrip(ctx, req)
	if err != nil && req.ext {
		var re *RemoteError
		if errors.As(err, &re) && re.Code == CodeGeneric && strings.Contains(re.Msg, "unknown op") {
			c.legacy.Store(true)
			// RemoteError rides as text only: the caller must see a dead
			// conn (redial), not an in-band verdict (conn reuse).
			return response{}, fmt.Errorf("%w: peer rejected extended header, latched legacy framing: %v", ErrConnFailed, re)
		}
	}
	return resp, err
}

// SetOpTimeout bounds every subsequent deadline-less operation (the
// plain ReadAt/WriteAt/Advance/Stats API): each op gets a context with
// this timeout, so a stalled server fails the call instead of blocking
// it forever. Zero (the default) disables the bound. Context-taking
// variants are unaffected.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTimeout.Store(int64(d)) }

// opCtx derives the context for a deadline-less API call.
func (c *Client) opCtx() (context.Context, context.CancelFunc) {
	if d := time.Duration(c.opTimeout.Load()); d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// readLoop routes response frames to waiting callers by request id.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	for {
		body, fb, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		resp, err := parseResponse(body)
		if err != nil {
			fb.release()
			c.fail(err)
			return
		}
		resp.buf = fb
		c.pmu.Lock()
		ch, ok := c.pending[resp.id]
		delete(c.pending, resp.id)
		c.pmu.Unlock()
		if ok {
			ch <- resp // the frame buffer now belongs to the waiter
		} else {
			resp.release() // abandoned call: nobody will read it
		}
	}
}

// fail marks the client dead and wakes every waiter.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.err == nil {
		switch {
		case c.closed:
			c.err = fmt.Errorf("%w: %w", ErrConnFailed, ErrClosed)
		case errors.Is(err, ErrFrameCRC):
			// Keep the typed identity: callers distinguishing wire
			// corruption from plain disconnects rely on errors.Is, and
			// ErrFrameCRC has no aliasing hazard.
			c.err = fmt.Errorf("%w: %w", ErrConnFailed, ErrFrameCRC)
		default:
			// The cause goes in as text only: a peer close is io.EOF, and
			// wrapping it would alias a dead conn with end-of-device.
			c.err = fmt.Errorf("%w: %v", ErrConnFailed, err)
		}
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch) // a closed channel signals "see c.err"
	}
}

// Close tears down the connection; outstanding calls fail. It is
// idempotent and concurrent-safe: exactly one caller closes the conn
// and awaits the reader, every later call returns ErrClosed.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return ErrClosed
	}
	c.closed = true
	c.pmu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// waiterPool recycles the one-slot channels calls wait on. A channel
// goes back only from the normal completion path — its single reply
// received, its pending entry already deleted by the reader, so no one
// else can hold it. A call abandoned by its context never recycles: the
// reader may already have picked the channel up and a late reply
// parked in it would reach whichever call drew it next. Channels closed
// by fail are dead and dropped too.
var waiterPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// roundTrip encodes req straight into the connection's write buffer
// and waits for its response, abandoning the wait (but not the
// server-side work) when ctx ends. On success the caller owns the
// response's buffer; on error there is nothing to release.
func (c *Client) roundTrip(ctx context.Context, req *request) (response, error) {
	ch := waiterPool.Get().(chan response)
	c.pmu.Lock()
	if c.err != nil || c.closed {
		err := c.err
		c.pmu.Unlock()
		waiterPool.Put(ch) // never registered
		if err == nil {
			err = ErrClosed
		}
		return response{}, err
	}
	c.pending[req.id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	werr := writeRequest(c.bw, req)
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.pmu.Lock()
		delete(c.pending, req.id)
		c.pmu.Unlock()
		return response{}, fmt.Errorf("pcmserve: send: %w", werr)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			c.pmu.Lock()
			err := c.err
			c.pmu.Unlock()
			return response{}, err
		}
		waiterPool.Put(ch)
		if resp.status == StatusErr {
			err := decodeWireError(resp.payload)
			resp.release()
			return response{}, err
		}
		return resp, nil
	case <-ctx.Done():
		// Unregister so the late response (if any) is dropped; the
		// request may still execute server-side.
		c.pmu.Lock()
		delete(c.pending, req.id)
		c.pmu.Unlock()
		return response{}, fmt.Errorf("pcmserve: request %d abandoned: %w", req.id, ctx.Err())
	}
}

// ReadAt implements io.ReaderAt against the remote device, preserving
// its EOF semantics, bounded by the SetOpTimeout deadline if one is
// set. Calls larger than 1 MiB are split into chunks.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	ctx, cancel := c.opCtx()
	defer cancel()
	return c.ReadAtCtx(ctx, p, off)
}

// ReadAtCtx is ReadAt under a caller context: when ctx ends the call
// returns immediately with ctx's error (the wait is abandoned; reads
// are idempotent so nothing is lost). A trace ID attached to ctx via
// internal/obs rides the request frames to the server, where it keys
// span records, the sampled trace log, and flight-recorder entries.
func (c *Client) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		chunk := len(p) - n
		if chunk > maxChunk {
			chunk = maxChunk
		}
		req := request{op: OpRead, off: off + int64(n), n: uint32(chunk)}
		resp, err := c.call(ctx, &req)
		if err != nil {
			return n, err
		}
		got, status := len(resp.payload), resp.status
		if got > chunk {
			resp.release()
			return n, fmt.Errorf("pcmserve: server returned %d bytes for a %d-byte read", got, chunk)
		}
		n += copy(p[n:], resp.payload)
		resp.release() // copied out; the frame buffer goes back to the pool
		if status == StatusEOF {
			return n, io.EOF
		}
		if got < chunk {
			return n, io.ErrUnexpectedEOF
		}
	}
	return n, nil
}

// WriteAt implements io.WriterAt against the remote device, bounded by
// the SetOpTimeout deadline if one is set. Calls larger than 1 MiB are
// split into chunks.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	ctx, cancel := c.opCtx()
	defer cancel()
	return c.WriteAtCtx(ctx, p, off)
}

// WriteAtCtx is WriteAt under a caller context. An abandoned write may
// still apply server-side; callers needing certainty must read back or
// resubmit (RetryClient does the latter with bounded attempts). A
// trace ID attached to ctx via internal/obs rides the request frames.
func (c *Client) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(p) {
		// The latch only ever flips to legacy, so a frame sized without
		// headroom can never pick the extended header up afterwards.
		limit := maxChunk
		if !c.legacy.Load() {
			limit = maxChunk - 64 // leave room for the extended header
		}
		chunk := len(p) - n
		if chunk > limit {
			chunk = limit
		}
		req := request{op: OpWrite, off: off + int64(n), data: p[n : n+chunk]}
		resp, err := c.call(ctx, &req)
		if err != nil {
			return n, err
		}
		if len(resp.payload) != 4 {
			resp.release()
			return n, fmt.Errorf("pcmserve: malformed WRITE response (%d bytes)", len(resp.payload))
		}
		wrote := int(binary.BigEndian.Uint32(resp.payload))
		resp.release()
		n += wrote
		if wrote < chunk {
			return n, io.ErrShortWrite
		}
	}
	return n, nil
}

// RangeDigest is one chunk's verdict from a HASH_RANGE exchange.
type RangeDigest struct {
	// Records is how many records the chunk covers.
	Records int
	// Unreadable marks a chunk the server could not read; its Digest is
	// meaningless and callers must treat the chunk as divergent.
	Unreadable bool
	// Digest is the FNV-1a 64 hash of the chunk's raw bytes.
	Digest uint64
}

// HashRangeCtx asks the server to digest count records of recordBytes
// each starting at off, split into at most fanout contiguous chunks.
// The server never ships the range over the wire — only one digest per
// chunk — so comparing replicas costs O(fanout), not O(bytes). Peers
// without the op return an error satisfying
// errors.Is(err, ErrUnsupported).
func (c *Client) HashRangeCtx(ctx context.Context, off int64, recordBytes, count, fanout int) ([]RangeDigest, error) {
	if recordBytes <= 0 || count <= 0 || fanout <= 0 {
		return nil, fmt.Errorf("pcmserve: HashRange rec=%d count=%d fanout=%d: all must be positive",
			recordBytes, count, fanout)
	}
	if int64(recordBytes)*int64(count) > maxRangeBytes {
		return nil, fmt.Errorf("pcmserve: HashRange covers %d bytes, limit %d",
			int64(recordBytes)*int64(count), maxRangeBytes)
	}
	req := request{op: OpHashRange, off: off,
		recordBytes: uint32(recordBytes), count: uint32(count), fanout: uint32(fanout)}
	resp, err := c.call(ctx, &req)
	if err != nil {
		return nil, err
	}
	defer resp.release()
	if len(resp.payload) == 0 || len(resp.payload)%13 != 0 {
		return nil, fmt.Errorf("pcmserve: malformed HASH_RANGE response (%d bytes)", len(resp.payload))
	}
	out := make([]RangeDigest, 0, len(resp.payload)/13)
	covered := 0
	for p := resp.payload; len(p) > 0; p = p[13:] {
		d := RangeDigest{
			Records:    int(binary.BigEndian.Uint32(p)),
			Unreadable: p[4] != 0,
			Digest:     binary.BigEndian.Uint64(p[5:]),
		}
		covered += d.Records
		out = append(out, d)
	}
	if covered != count {
		return nil, fmt.Errorf("pcmserve: HASH_RANGE response covers %d records, want %d", covered, count)
	}
	return out, nil
}

// ReadStrideCtx reads the first recordBytes of count records spaced
// stride bytes apart starting at off — one round trip where per-record
// reads would cost count. It returns one slice per record, nil for
// records the server could not read. Peers without the op return an
// error satisfying errors.Is(err, ErrUnsupported).
func (c *Client) ReadStrideCtx(ctx context.Context, off int64, stride, recordBytes, count int) ([][]byte, error) {
	if recordBytes <= 0 || count <= 0 || stride < recordBytes {
		return nil, fmt.Errorf("pcmserve: ReadStride rec=%d count=%d stride=%d: need rec>0, count>0, stride≥rec",
			recordBytes, count, stride)
	}
	if int64(count)+int64(count)*int64(recordBytes) > maxChunk {
		return nil, fmt.Errorf("pcmserve: ReadStride reply %d bytes exceeds frame budget",
			int64(count)+int64(count)*int64(recordBytes))
	}
	req := request{op: OpReadStride, off: off,
		stride: uint32(stride), recordBytes: uint32(recordBytes), count: uint32(count)}
	resp, err := c.call(ctx, &req)
	if err != nil {
		return nil, err
	}
	defer resp.release()
	want := count + count*recordBytes
	if len(resp.payload) != want {
		return nil, fmt.Errorf("pcmserve: malformed READ_STRIDE response (%d bytes, want %d)", len(resp.payload), want)
	}
	// The returned records outlive this call, and the reply's frame
	// buffer is about to be recycled: copy them out of it.
	flags := resp.payload[:count]
	records := append([]byte(nil), resp.payload[count:]...)
	out := make([][]byte, count)
	for i := 0; i < count; i++ {
		if flags[i] != 0 {
			continue
		}
		out[i] = records[i*recordBytes : (i+1)*recordBytes]
	}
	return out, nil
}

// Advance moves the remote device's simulated time forward by dt
// seconds (driving refresh where the architecture needs it).
func (c *Client) Advance(dt float64) error {
	ctx, cancel := c.opCtx()
	defer cancel()
	return c.AdvanceCtx(ctx, dt)
}

// AdvanceCtx is Advance under a caller context.
func (c *Client) AdvanceCtx(ctx context.Context, dt float64) error {
	req := request{op: OpAdvance, dt: dt}
	resp, err := c.call(ctx, &req)
	resp.release()
	return err
}

// Stats fetches the server's observability snapshot via the STATS op.
func (c *Client) Stats() (Stats, error) {
	ctx, cancel := c.opCtx()
	defer cancel()
	return c.StatsCtx(ctx)
}

// StatsCtx is Stats under a caller context.
func (c *Client) StatsCtx(ctx context.Context) (Stats, error) {
	req := request{op: OpStats}
	resp, err := c.call(ctx, &req)
	if err != nil {
		return Stats{}, err
	}
	defer resp.release()
	var st Stats
	if err := json.Unmarshal(resp.payload, &st); err != nil {
		return Stats{}, fmt.Errorf("pcmserve: decoding STATS response: %w", err)
	}
	return st, nil
}
