package pcmserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("pcmserve: server closed")

// ServerConfig tunes the serving layer. The zero value is usable.
type ServerConfig struct {
	// MaxInflight bounds concurrently executing requests per
	// connection (default 32). Together with the bounded shard queues
	// this is the backpressure budget: when it is exhausted the
	// connection reader stops consuming frames and TCP flow control
	// pushes back on the client.
	MaxInflight int
	// IdleTimeout closes a connection that sends no frame for this
	// long (default 2 minutes; negative disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (default 30 s; negative
	// disables).
	WriteTimeout time.Duration
	// MaxFrame bounds a single request or response frame
	// (default DefaultMaxFrame).
	MaxFrame uint32
	// ExpvarName, when non-empty, publishes the server's Stats through
	// expvar under this name (e.g. "pcmserve"). Names are global to
	// the process; publishing the same name twice is a no-op.
	ExpvarName string
	// DisableRangeOps answers the vectored anti-entropy ops
	// (OpHashRange, OpReadStride) with CodeUnsupported, emulating a
	// peer predating them. Cluster clients use the verdict to fall back
	// to the per-slot sweep; this flag exists to exercise that path.
	DisableRangeOps bool
	// DisableExtHeader rejects requests carrying the extended header
	// (deadline + admission class) exactly the way a server predating it
	// does: a generic "unknown op" error followed by connection close.
	// Clients use the verdict to latch into legacy framing; this flag
	// exists to exercise that fallback.
	DisableExtHeader bool
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.MaxInflight == 0 {
		out.MaxInflight = 32
	}
	if out.IdleTimeout == 0 {
		out.IdleTimeout = 2 * time.Minute
	}
	if out.WriteTimeout == 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.MaxFrame == 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	return out
}

// Server serves a Shards device over length-prefixed TCP framing.
type Server struct {
	shards  *Shards
	cfg     ServerConfig
	metrics *serverMetrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool

	connWG sync.WaitGroup
}

// NewServer wraps an assembled Shards device. The caller retains
// ownership of shards (Shutdown does not close it).
func NewServer(shards *Shards, cfg ServerConfig) *Server {
	s := &Server{
		shards:  shards,
		cfg:     cfg.withDefaults(),
		metrics: newServerMetrics(shards.obs.reg),
		conns:   make(map[net.Conn]struct{}),
	}
	shards.obs.reg.GaugeFunc("pcmserve_connections_active",
		"Currently open client connections.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	if name := s.cfg.ExpvarName; name != "" {
		publishExpvar(name, s)
	}
	return s
}

// expvarMu serializes the get-then-publish check; expvar.Publish
// panics on duplicate names.
var expvarMu sync.Mutex

func publishExpvar(name string, s *Server) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return s.Stats() }))
}

// Stats combines request-level counters with the per-shard snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		Device:       s.shards.Name(),
		SizeBytes:    s.shards.Size(),
		Reads:        s.metrics.reads.Value(),
		Writes:       s.metrics.writes.Value(),
		Advances:     s.metrics.advances.Value(),
		StatsOps:     s.metrics.statsOps.Value(),
		HashRanges:   s.metrics.hashRanges.Value(),
		ReadStrides:  s.metrics.readStrides.Value(),
		Errors:       s.metrics.errors.Value(),
		BytesRead:    s.metrics.bytesRead.Value(),
		BytesWritten: s.metrics.bytesWritten.Value(),
		ActiveConns:  active,
		TotalConns:   int64(s.metrics.totalConns.Value()),
		SlowOps:      s.shards.obs.traces.SlowTotal(),
		Overload:     s.shards.OverloadStats(),
		Scrub:        s.shards.ScrubStats(),
		Integrity:    s.shards.IntegrityStats(),
		Live:         s.shards.LiveStats(),
		Shards:       s.shards.Snapshot(),
	}
}

// AdminHandler returns the admin HTTP plane for this server: /metrics
// (Prometheus text exposition of every instrument in the shared
// registry), /healthz (503 when any shard is dead), /tracez (sampled
// traces and the slow-op log), /debug/flightrecorder (live per-shard
// flight-recorder snapshots), and /debug/pprof. Mount it on a separate
// listener from the data plane.
func (s *Server) AdminHandler() http.Handler {
	return obs.AdminHandler(obs.AdminConfig{
		Registry: s.shards.obs.reg,
		Health:   s.healthReport,
		Traces:   s.shards.obs.traces,
		Dumps:    s.shards.RecorderSnapshots,
	})
}

func (s *Server) healthReport() obs.HealthReport {
	report := obs.HealthReport{Healthy: true}
	for i := 0; i < s.shards.NumShards(); i++ {
		h := s.shards.Health(i)
		if h == Dead {
			report.Healthy = false
		}
		report.Components = append(report.Components, obs.ComponentHealth{
			Name:  "shard/" + strconv.Itoa(i),
			State: h.String(),
		})
	}
	return report
}

// Serve accepts connections on ln until Shutdown. It always closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	defer ln.Close()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.metrics.totalConns.Inc()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown stops accepting, interrupts idle connection readers, waits
// for in-flight requests to drain, and force-closes any connection
// still open when ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock every connection reader; handleConn treats a deadline
	// error during shutdown as "finish in-flight work and exit".
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	// Keep nudging: a reader that re-armed its idle deadline just
	// before the first nudge landed would otherwise sleep out its full
	// idle timeout before noticing the shutdown.
	nudge := time.NewTicker(20 * time.Millisecond)
	defer nudge.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-nudge.C:
			s.mu.Lock()
			for c := range s.conns {
				c.SetReadDeadline(time.Now())
			}
			s.mu.Unlock()
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			<-done
			return ctx.Err()
		}
	}
}

// handler is one in-flight request's state on a connection. Handlers
// are built lazily up to MaxInflight per connection and recycled through
// the connection's idle channel, which doubles as the inflight
// semaphore: taking one admits a request, returning it frees the slot.
type handler struct {
	s    *Server
	out  chan<- response
	idle chan<- *handler
	req  request
	meta opMeta
	buf  *frameBuf // the request frame's pooled buffer (req.data aliases it)
	// run is serve bound once at construction, so spawning the request
	// goroutine does not allocate a closure per request.
	run func()
}

// serve executes the request, queues its response, and frees the slot.
// The request's frame buffer travels with the response — READ reuses it
// as the destination — and the writer releases it after encoding.
func (h *handler) serve() {
	resp := h.s.execute(&h.req, h.meta, h.buf)
	resp.buf = h.buf
	h.req, h.buf = request{}, nil
	h.out <- resp
	h.idle <- h
}

// handleConn runs the per-connection reader loop plus a writer
// goroutine. Responses may be sent out of order; the request id keys
// them back to callers.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	out := make(chan response, s.cfg.MaxInflight)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		bw := bufio.NewWriter(conn)
		for resp := range out {
			if s.cfg.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			err := writeResponse(bw, &resp)
			resp.release() // encoded (or undeliverable): the buffer's last use
			// Flush when no more responses are immediately ready:
			// batches pipelined responses into fewer packets.
			if err == nil && len(out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				// Keep draining so request handlers never block on a
				// dead connection's response channel.
				for resp := range out {
					resp.release()
				}
				return
			}
		}
		bw.Flush()
	}()

	idle := make(chan *handler, s.cfg.MaxInflight)
	handlers := 0
	br := bufio.NewReader(conn)
	for {
		// Re-check shutdown every frame: a busy connection can keep
		// finding whole frames in the bufio buffer without ever touching
		// the socket, so the deadline nudge alone would never reach it
		// and Shutdown would hang until the client went idle.
		s.mu.Lock()
		down := s.shutdown
		s.mu.Unlock()
		if down {
			break
		}
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		body, fb, err := readFrame(br, s.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrFrameCRC) {
				s.metrics.frameCRCMismatch.Inc()
			}
			break // EOF, CRC mismatch, idle timeout, or shutdown nudge
		}
		req, err := parseRequest(body)
		if err != nil {
			// The id parsed (frames shorter than the header are
			// rejected by readFrame), so the error can be returned
			// in-band before closing.
			fb.release()
			out <- errResponse(req.id, err)
			break
		}
		if req.ext && s.cfg.DisableExtHeader {
			// Byte-for-byte what an old server says to a flagged op:
			// generic error, then connection close.
			fb.release()
			out <- errResponse(req.id, fmt.Errorf("pcmserve: unknown op %d", req.op|opFlagExt))
			break
		}
		// The deadline clock starts at receipt: the µs budget in the
		// frame is what the client had left when it sent the request.
		meta := opMeta{trace: req.trace}
		if req.ext {
			meta.sheddable = true
			if req.class == classBackground {
				meta.class = classBackground
			}
			if req.deadlineUs > 0 {
				meta.deadline = time.Now().Add(time.Duration(req.deadlineUs) * time.Microsecond)
			}
		}
		// Backpressure: cap concurrent handlers. A free slot is reused;
		// below the cap a new one is built; at the cap the reader blocks.
		var h *handler
		select {
		case h = <-idle:
		default:
			if handlers < cap(idle) {
				h = &handler{s: s, out: out, idle: idle}
				h.run = h.serve
				handlers++
			} else {
				h = <-idle
			}
		}
		h.req, h.meta, h.buf = req, meta, fb
		go h.run()
	}
	// Drain in-flight handlers before closing the response stream.
	for ; handlers > 0; handlers-- {
		<-idle
	}
	close(out)
	writerWG.Wait()
}

// execute runs one request against the sharded device and builds its
// response. buf is the request frame's pooled buffer (nil for an
// oversized frame), which READ and WRITE reuse for their reply payload.
func (s *Server) execute(req *request, meta opMeta, buf *frameBuf) response {
	if !meta.deadline.IsZero() && time.Now().After(meta.deadline) {
		// The budget was spent waiting on the inflight semaphore; answer
		// typed without touching a shard queue.
		s.shards.adm.expired.Inc()
		s.metrics.errors.Inc()
		return errResponse(req.id, ErrDeadlineExceeded)
	}
	switch req.op {
	case OpRead:
		if req.n > s.cfg.MaxFrame-headerBytes {
			err := fmt.Errorf("pcmserve: read length %d exceeds frame limit", req.n)
			s.metrics.countOp(OpRead, 0, err)
			return errResponse(req.id, err)
		}
		// The request is fully parsed, so its frame buffer is free to
		// receive the bytes read; only larger reads allocate.
		var dst []byte
		if buf != nil && req.n <= frameBufBytes {
			dst = buf[:req.n]
		} else {
			dst = make([]byte, req.n)
		}
		n, err := s.shards.readAtMeta(meta, dst, req.off)
		if err == io.EOF {
			s.metrics.countOp(OpRead, n, nil)
			return response{id: req.id, status: StatusEOF, payload: dst[:n]}
		}
		s.metrics.countOp(OpRead, n, err)
		if err != nil {
			return errResponse(req.id, err)
		}
		return response{id: req.id, status: StatusOK, payload: dst[:n]}
	case OpWrite:
		n, err := s.shards.writeAtMeta(meta, req.data, req.off)
		s.metrics.countOp(OpWrite, n, err)
		if err != nil {
			return errResponse(req.id, err)
		}
		// Every shard span has completed, so the payload is dead and the
		// frame buffer can carry the byte count back.
		var ack []byte
		if buf != nil {
			ack = buf[:4]
		} else {
			ack = make([]byte, 4)
		}
		binary.BigEndian.PutUint32(ack, uint32(n))
		return response{id: req.id, status: StatusOK, payload: ack}
	case OpAdvance:
		err := s.shards.Advance(req.dt)
		s.metrics.countOp(OpAdvance, 0, err)
		if err != nil {
			return errResponse(req.id, err)
		}
		return response{id: req.id, status: StatusOK}
	case OpStats:
		st := s.Stats()
		s.metrics.countOp(OpStats, 0, nil)
		payload, err := json.Marshal(st)
		if err != nil {
			return errResponse(req.id, err)
		}
		return response{id: req.id, status: StatusOK, payload: payload}
	case OpHashRange:
		if s.cfg.DisableRangeOps {
			err := fmt.Errorf("pcmserve: HASH_RANGE disabled: %w", ErrUnsupported)
			s.metrics.countOp(OpHashRange, 0, err)
			return errResponse(req.id, err)
		}
		return s.hashRange(req, meta)
	case OpReadStride:
		if s.cfg.DisableRangeOps {
			err := fmt.Errorf("pcmserve: READ_STRIDE disabled: %w", ErrUnsupported)
			s.metrics.countOp(OpReadStride, 0, err)
			return errResponse(req.id, err)
		}
		return s.readStride(req, meta)
	}
	err := fmt.Errorf("pcmserve: unknown op %d", req.op)
	s.metrics.errors.Inc()
	return errResponse(req.id, err)
}

// maxRangeBytes bounds the bytes one HASH_RANGE request may digest
// (server-local work, never shipped over the wire), keeping a single
// handler's latency bounded. Callers split larger ranges.
const maxRangeBytes = 16 << 20

// hashRange digests req.count records of req.recordBytes each starting
// at req.off, split into at most req.fanout contiguous chunks, and
// returns one FNV-1a 64 digest per chunk. A chunk whose bytes cannot
// be read is flagged unreadable (digest 0) instead of failing the
// request: the anti-entropy caller treats it as divergent and descends.
func (s *Server) hashRange(req *request, meta opMeta) response {
	if req.recordBytes == 0 || req.count == 0 || req.fanout == 0 {
		err := fmt.Errorf("pcmserve: HASH_RANGE rec=%d count=%d fanout=%d: all must be positive",
			req.recordBytes, req.count, req.fanout)
		s.metrics.countOp(OpHashRange, 0, err)
		return errResponse(req.id, err)
	}
	total := uint64(req.recordBytes) * uint64(req.count)
	if total > maxRangeBytes {
		err := fmt.Errorf("pcmserve: HASH_RANGE covers %d bytes, limit %d", total, maxRangeBytes)
		s.metrics.countOp(OpHashRange, 0, err)
		return errResponse(req.id, err)
	}
	fanout := req.fanout
	if fanout > req.count {
		fanout = req.count
	}
	if fanout > 1024 {
		fanout = 1024
	}
	// Chunk i covers base (+1 for the first rem chunks) records.
	base, rem := req.count/fanout, req.count%fanout
	body := make([]byte, 0, 13*fanout)
	scratch := getFrameBuf()
	defer scratch.release()
	buf := scratch[:]
	h := fnv.New64a()
	off := req.off
	hashed := 0
	for i := uint32(0); i < fanout; i++ {
		records := base
		if i < rem {
			records++
		}
		chunkBytes := int64(records) * int64(req.recordBytes)
		h.Reset()
		flag := uint8(0)
		for done := int64(0); done < chunkBytes; {
			n := chunkBytes - done
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			rn, err := s.shards.readAtMeta(meta, buf[:n], off+done)
			if err != nil || int64(rn) != n {
				flag = 1
				break
			}
			h.Write(buf[:n])
			hashed += int(n)
			done += n
		}
		var digest uint64
		if flag == 0 {
			digest = h.Sum64()
		}
		var chunk [13]byte
		binary.BigEndian.PutUint32(chunk[:], records)
		chunk[4] = flag
		binary.BigEndian.PutUint64(chunk[5:], digest)
		body = append(body, chunk[:]...)
		off += chunkBytes
	}
	s.metrics.countOp(OpHashRange, hashed, nil)
	return response{id: req.id, status: StatusOK, payload: body}
}

// readStride reads the first req.recordBytes of req.count records
// spaced req.stride bytes apart, returning per-record readable flags
// followed by the concatenated record bytes (unreadable records are
// zero-filled so offsets stay aligned).
func (s *Server) readStride(req *request, meta opMeta) response {
	if req.recordBytes == 0 || req.count == 0 || req.stride < req.recordBytes {
		err := fmt.Errorf("pcmserve: READ_STRIDE rec=%d count=%d stride=%d: need rec>0, count>0, stride≥rec",
			req.recordBytes, req.count, req.stride)
		s.metrics.countOp(OpReadStride, 0, err)
		return errResponse(req.id, err)
	}
	payload := uint64(req.count) + uint64(req.count)*uint64(req.recordBytes)
	if payload > uint64(s.cfg.MaxFrame)-headerBytes {
		err := fmt.Errorf("pcmserve: READ_STRIDE reply %d bytes exceeds frame limit", payload)
		s.metrics.countOp(OpReadStride, 0, err)
		return errResponse(req.id, err)
	}
	reply := make([]byte, payload)
	flags, records := reply[:req.count], reply[req.count:]
	moved := 0
	for i := uint32(0); i < req.count; i++ {
		dst := records[uint64(i)*uint64(req.recordBytes):][:req.recordBytes]
		off := req.off + int64(i)*int64(req.stride)
		n, err := s.shards.readAtMeta(meta, dst, off)
		if err != nil || n != len(dst) {
			flags[i] = 1
			clear(dst)
			continue
		}
		moved += n
	}
	s.metrics.countOp(OpReadStride, moved, nil)
	return response{id: req.id, status: StatusOK, payload: reply}
}
