package pcmserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Wire format. Every message — request or response — is one
// length-prefixed, checksummed frame:
//
//	uint32  frame length N (bytes after the checksum, big-endian)
//	uint32  CRC32-C (Castagnoli) of the N body bytes
//	uint64  request id (chosen by the client, echoed by the server)
//	uint8   op (request) / status (response)
//	uint64  trace id (requests only; 0 = untraced)
//	...     op-specific body
//
// The checksum covers everything after itself (id, op/status, and the
// op-specific body — not the length word, whose corruption surfaces as
// a bounds error or a misparse of the next frame). A mismatch means
// bits flipped in flight; the reader cannot resynchronize mid-stream,
// so both sides treat it as a dead connection: the client fails over
// to ErrFrameCRC→ErrConnFailed (transient — the retry layer
// reconnects), the server drops the connection.
//
// The trace id is the observability correlation key: the client
// allocates it (or inherits it from a context via internal/obs), and
// the server propagates it through the shard queues into span records,
// the sampled trace log, and the per-shard flight recorder. Responses
// do not carry it — the client already knows the trace of each request
// id it has in flight.
//
// Request bodies:
//
//	OpRead        uint64 offset, uint32 length
//	OpWrite       uint64 offset, then the data to write (to frame end)
//	OpAdvance     uint64 IEEE-754 bits of the float64 seconds to advance
//	OpStats       empty
//	OpHashRange   uint64 offset, uint32 recordBytes, uint32 recordCount,
//	              uint32 fanout — digest recordCount records of
//	              recordBytes each, split into up to fanout contiguous
//	              chunks (Merkle anti-entropy descent)
//	OpReadStride  uint64 offset, uint32 stride, uint32 recordBytes,
//	              uint32 recordCount — read the first recordBytes of
//	              every stride-spaced record (vectored trailer fetch)
//
// Response bodies:
//
//	StatusOK   OpRead → the bytes read; OpWrite → uint32 bytes written;
//	           OpAdvance → empty; OpStats → JSON-encoded Stats;
//	           OpHashRange → per chunk: uint32 recordCount, uint8 flag
//	           (0 ok, 1 unreadable), uint64 FNV-1a digest of the chunk's
//	           raw bytes; OpReadStride → recordCount flag bytes (0 ok,
//	           1 unreadable), then the recordCount×recordBytes
//	           concatenated records (unreadable ones zero-filled)
//	StatusEOF  OpRead only: the bytes read before end-of-device
//	           (the client surfaces io.EOF)
//	StatusErr  uint8 sentinel code (see errors.go), then the UTF-8
//	           error message; the client rebuilds a RemoteError that
//	           unwraps to the coded sentinel, so errors.Is works
//	           across the network
//
// Request ids let many requests be in flight on one connection and let
// responses return out of order (pipelining); the client matches them
// back to waiters.

// Operations.
const (
	OpRead    uint8 = 1
	OpWrite   uint8 = 2
	OpAdvance uint8 = 3
	OpStats   uint8 = 4
	// OpHashRange and OpReadStride are the vectored anti-entropy ops
	// (added for cluster membership changes). Servers predating them —
	// or running with ServerConfig.DisableRangeOps — answer with a
	// CodeUnsupported error; clients fall back to per-slot sweeps.
	OpHashRange  uint8 = 5
	OpReadStride uint8 = 6
)

// opFlagExt marks a request frame that carries the extended header —
// 9 extra bytes after the trace id: a uint64 deadline budget in
// microseconds (0 = none) and a uint8 admission class. The flag is
// OR'd into the op byte, so an old server sees an unknown op, answers
// with a typed error, and the new client latches into legacy framing
// (version gating without touching the frame layout old peers parse).
const opFlagExt uint8 = 0x80

// extHeaderBytes is the size of the extended request header.
const extHeaderBytes = 8 + 1

// Admission classes carried in the extended header. Background work
// (refresh, scrub, read-repair, anti-entropy, membership transfers)
// is shed first under queue pressure; foreground keeps its priority.
const (
	classForeground uint8 = 0
	classBackground uint8 = 1
)

// wireExt is one request's extended header; ext false means legacy
// framing. It travels by value inside request.
type wireExt struct {
	ext        bool
	deadlineUs uint64 // remaining budget in µs at send time; 0 = none
	class      uint8  // classForeground or classBackground
}

// Response statuses.
const (
	StatusOK  uint8 = 0
	StatusErr uint8 = 1
	StatusEOF uint8 = 2
)

// headerBytes is the fixed id+status prefix inside a response frame
// (and the minimum parseable frame).
const headerBytes = 8 + 1

// reqHeaderBytes is the fixed id+op+trace prefix inside a request
// frame.
const reqHeaderBytes = headerBytes + 8

// DefaultMaxFrame bounds a single frame (1 MiB of payload plus
// request header); larger reads and writes must be issued in pieces.
const DefaultMaxFrame = 1<<20 + reqHeaderBytes + 12

// castagnoli is the CRC32-C table shared by framers and parsers; the
// Castagnoli polynomial has hardware support (SSE4.2, ARMv8 CRC) and
// better error-detection properties than IEEE for short messages.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameBufBytes is the size of a pooled frame buffer. Frame bodies up
// to this size — every 64 B block op, cluster slot and fragment, with
// room to spare — are read into recycled buffers; anything larger gets
// a one-shot allocation the collector reclaims, so a 1 MiB frame is
// never pinned in the pool. The pool keeps as many buffers as the
// deepest burst of in-flight requests needed (a lagging connection runs
// up to MaxInflight of them), so the size is what bounds the heap it
// holds: 1 KiB keeps that within a few percent of a node's live heap,
// where 4 KiB cost over 10 % on the cluster benchmarks.
const frameBufBytes = 1 << 10

// frameBuf is one pooled buffer. Pooling the array pointer (not a
// slice) keeps Get and Put free of interface boxing allocations.
type frameBuf [frameBufBytes]byte

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }

// release returns the buffer to the pool. The caller must hold the only
// live reference: every byte it needs has been copied out. A nil buffer
// (an oversized, unpooled frame) is a no-op.
func (b *frameBuf) release() {
	if b != nil {
		frameBufPool.Put(b)
	}
}

// readFrame reads one length-prefixed frame body (everything after the
// length and checksum words), verifying the CRC before any byte is
// used. A body that fits lands in a pooled buffer, returned alongside
// it: ownership passes to the caller, who releases it once the bytes
// are copied out. Larger bodies get a fresh slice and a nil buffer. On
// error both are nil.
func readFrame(r *bufio.Reader, maxFrame uint32) ([]byte, *frameBuf, error) {
	hdr, err := r.Peek(8)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	wantCRC := binary.BigEndian.Uint32(hdr[4:])
	r.Discard(8) // cannot fail: Peek buffered these bytes
	if n < headerBytes {
		return nil, nil, fmt.Errorf("pcmserve: frame length %d below header size", n)
	}
	if n > maxFrame {
		return nil, nil, fmt.Errorf("pcmserve: frame length %d exceeds limit %d", n, maxFrame)
	}
	var fb *frameBuf
	var body []byte
	if n <= frameBufBytes {
		fb = getFrameBuf()
		body = fb[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		fb.release()
		return nil, nil, err
	}
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		fb.release()
		return nil, nil, fmt.Errorf("pcmserve: frame body CRC %08x, header says %08x: %w",
			got, wantCRC, ErrFrameCRC)
	}
	return body, fb, nil
}

// maxFrameHead is the widest fixed part of any frame: the length and
// checksum words, id, op, trace, the extended header, and the largest
// fixed op body (HASH_RANGE / READ_STRIDE, 20 bytes).
const maxFrameHead = 8 + reqHeaderBytes + extHeaderBytes + 20

// beginFrame starts a frame directly in bw's free space — no per-frame
// buffer — and returns the slice to append the fixed fields to, with
// the length and checksum words reserved at its front. The caller
// appends at most maxFrameHead-8 bytes and hands the slice to endFrame
// before touching bw again; whoever serializes writes on bw (the
// client's write lock, the server's writer goroutine) holds across both.
func beginFrame(bw *bufio.Writer) ([]byte, error) {
	if bw.Available() < maxFrameHead {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}
	return bw.AvailableBuffer()[:8], nil
}

// endFrame completes the frame begun by beginFrame: head is the slice
// it returned plus the appended fixed fields, tail the variable payload
// (written from the caller's slice, never copied into a frame buffer).
// The CRC runs incrementally over both.
func endFrame(bw *bufio.Writer, head, tail []byte) error {
	crc := crc32.Update(crc32.Update(0, castagnoli, head[8:]), castagnoli, tail)
	binary.BigEndian.PutUint32(head, uint32(len(head)-8+len(tail)))
	binary.BigEndian.PutUint32(head[4:], crc)
	if _, err := bw.Write(head); err != nil {
		return err
	}
	_, err := bw.Write(tail)
	return err
}

// writeRequest encodes r as one frame into bw; it is parseRequest's
// exact inverse for every op.
func writeRequest(bw *bufio.Writer, r *request) error {
	b, err := beginFrame(bw)
	if err != nil {
		return err
	}
	op := r.op
	if r.ext {
		op |= opFlagExt
	}
	b = binary.BigEndian.AppendUint64(b, r.id)
	b = append(b, op)
	b = binary.BigEndian.AppendUint64(b, r.trace)
	if r.ext {
		b = binary.BigEndian.AppendUint64(b, r.deadlineUs)
		b = append(b, r.class)
	}
	var tail []byte
	switch r.op {
	case OpRead:
		b = binary.BigEndian.AppendUint64(b, uint64(r.off))
		b = binary.BigEndian.AppendUint32(b, r.n)
	case OpWrite:
		b = binary.BigEndian.AppendUint64(b, uint64(r.off))
		tail = r.data
	case OpAdvance:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.dt))
	case OpStats:
	case OpHashRange:
		b = binary.BigEndian.AppendUint64(b, uint64(r.off))
		b = binary.BigEndian.AppendUint32(b, r.recordBytes)
		b = binary.BigEndian.AppendUint32(b, r.count)
		b = binary.BigEndian.AppendUint32(b, r.fanout)
	case OpReadStride:
		b = binary.BigEndian.AppendUint64(b, uint64(r.off))
		b = binary.BigEndian.AppendUint32(b, r.stride)
		b = binary.BigEndian.AppendUint32(b, r.recordBytes)
		b = binary.BigEndian.AppendUint32(b, r.count)
	default:
		return fmt.Errorf("pcmserve: cannot encode unknown op %d", r.op)
	}
	return endFrame(bw, b, tail)
}

// request is a decoded client request.
type request struct {
	id    uint64
	op    uint8
	trace uint64
	off   int64
	n     uint32  // OpRead: bytes wanted
	data  []byte  // OpWrite: payload (aliases the frame buffer)
	dt    float64 // OpAdvance

	// Extended header (opFlagExt requests only).
	wireExt

	// Vectored anti-entropy ops.
	recordBytes uint32 // OpHashRange, OpReadStride: bytes per record
	count       uint32 // OpHashRange, OpReadStride: records covered
	fanout      uint32 // OpHashRange: max chunks in the reply
	stride      uint32 // OpReadStride: spacing between record starts
}

// parseRequest decodes a frame body produced by writeRequest.
func parseRequest(buf []byte) (request, error) {
	var req request
	if len(buf) < headerBytes {
		return req, fmt.Errorf("pcmserve: short request frame (%d bytes)", len(buf))
	}
	req.id = binary.BigEndian.Uint64(buf)
	req.op = buf[8]
	if len(buf) < reqHeaderBytes {
		return req, fmt.Errorf("pcmserve: request frame %d bytes, below header size %d", len(buf), reqHeaderBytes)
	}
	req.trace = binary.BigEndian.Uint64(buf[headerBytes:])
	body := buf[reqHeaderBytes:]
	if req.op&opFlagExt != 0 {
		if len(body) < extHeaderBytes {
			return req, fmt.Errorf("pcmserve: extended request frame %d bytes, below ext header size %d",
				len(buf), reqHeaderBytes+extHeaderBytes)
		}
		req.ext = true
		req.deadlineUs = binary.BigEndian.Uint64(body)
		req.class = body[8]
		req.op &^= opFlagExt
		body = body[extHeaderBytes:]
	}
	switch req.op {
	case OpRead:
		if len(body) != 12 {
			return req, fmt.Errorf("pcmserve: READ body %d bytes, want 12", len(body))
		}
		req.off = int64(binary.BigEndian.Uint64(body))
		req.n = binary.BigEndian.Uint32(body[8:])
	case OpWrite:
		if len(body) < 8 {
			return req, fmt.Errorf("pcmserve: WRITE body %d bytes, want ≥ 8", len(body))
		}
		req.off = int64(binary.BigEndian.Uint64(body))
		req.data = body[8:]
	case OpAdvance:
		if len(body) != 8 {
			return req, fmt.Errorf("pcmserve: ADVANCE body %d bytes, want 8", len(body))
		}
		req.dt = math.Float64frombits(binary.BigEndian.Uint64(body))
	case OpStats:
		if len(body) != 0 {
			return req, fmt.Errorf("pcmserve: STATS body %d bytes, want 0", len(body))
		}
	case OpHashRange:
		if len(body) != 20 {
			return req, fmt.Errorf("pcmserve: HASH_RANGE body %d bytes, want 20", len(body))
		}
		req.off = int64(binary.BigEndian.Uint64(body))
		req.recordBytes = binary.BigEndian.Uint32(body[8:])
		req.count = binary.BigEndian.Uint32(body[12:])
		req.fanout = binary.BigEndian.Uint32(body[16:])
	case OpReadStride:
		if len(body) != 20 {
			return req, fmt.Errorf("pcmserve: READ_STRIDE body %d bytes, want 20", len(body))
		}
		req.off = int64(binary.BigEndian.Uint64(body))
		req.stride = binary.BigEndian.Uint32(body[8:])
		req.recordBytes = binary.BigEndian.Uint32(body[12:])
		req.count = binary.BigEndian.Uint32(body[16:])
	default:
		return req, fmt.Errorf("pcmserve: unknown op %d", req.op)
	}
	return req, nil
}

// response is one server response, on either side of the wire. buf,
// when non-nil, is the pooled buffer payload aliases; whoever holds the
// response owns it and releases it after the last use of payload (the
// client caller once it has copied the bytes out, the server's writer
// once the frame is encoded).
type response struct {
	id      uint64
	status  uint8
	payload []byte
	buf     *frameBuf
}

// release returns the response's pooled buffer; payload is dead after.
func (r *response) release() {
	r.buf.release()
	r.buf, r.payload = nil, nil
}

// writeResponse encodes r as one frame into bw (parseResponse's
// inverse). It does not release r.
func writeResponse(bw *bufio.Writer, r *response) error {
	b, err := beginFrame(bw)
	if err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint64(b, r.id)
	b = append(b, r.status)
	return endFrame(bw, b, r.payload)
}

// parseResponse decodes a frame body produced by writeResponse. The
// payload aliases buf.
func parseResponse(buf []byte) (response, error) {
	if len(buf) < headerBytes {
		return response{}, fmt.Errorf("pcmserve: short response frame (%d bytes)", len(buf))
	}
	return response{
		id:      binary.BigEndian.Uint64(buf),
		status:  buf[8],
		payload: buf[headerBytes:],
	}, nil
}
