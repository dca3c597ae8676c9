package pcmserve

import (
	"encoding/binary"
	"errors"
	"io"
	"time"

	"repro/internal/core"
)

// Wire error codes carried in the first byte of a StatusErr payload.
// They let errors.Is work across the network: the client rebuilds a
// RemoteError that unwraps to the matching sentinel, so the retry layer
// can classify failures without parsing message strings.
const (
	// CodeGeneric is any server error without a more specific sentinel
	// (bounds violations, protocol misuse): permanent, not retryable.
	CodeGeneric uint8 = 0
	// CodeUncorrectable maps to core.ErrUncorrectable: the block's
	// accumulated errors exceed ECC capability (data integrity loss).
	CodeUncorrectable uint8 = 1
	// CodeShardUnavailable maps to ErrShardUnavailable: the owning
	// shard is restarting or dead; idempotent requests may be retried.
	CodeShardUnavailable uint8 = 2
	// CodeClosed maps to ErrClosed: the serving stack is shutting down.
	CodeClosed uint8 = 3
	// CodeUnsupported maps to ErrUnsupported: the server does not
	// implement the requested op (an older build, or range ops disabled).
	// Permanent — callers fall back to a compatible code path.
	CodeUnsupported uint8 = 4
	// CodeOverloaded maps to ErrOverloaded: the request was shed by
	// admission control instead of queued. Transient; the payload
	// carries a uint32 retry-after hint in microseconds after the code
	// byte.
	CodeOverloaded uint8 = 5
	// CodeDeadlineExceeded maps to ErrDeadlineExceeded: the request's
	// wire deadline expired before the shard executed it (dropped at
	// dequeue, never run). Transient — but only worth retrying with a
	// fresh deadline.
	CodeDeadlineExceeded uint8 = 6
)

// ErrShardUnavailable reports a request that hit a shard whose owner
// goroutine is restarting after a panic (retryable) or has been
// declared dead after exhausting its restart budget.
var ErrShardUnavailable = errors.New("pcmserve: shard unavailable")

// ErrFrameCRC reports a frame whose body failed its CRC32-C check:
// bits flipped in flight. The stream cannot be resynchronized, so the
// connection is torn down; the fault is transient (reconnect and
// retry), never a data-integrity verdict on the stored bytes.
var ErrFrameCRC = errors.New("pcmserve: frame checksum mismatch")

// ErrUnsupported reports an op the server does not implement — an
// older peer, or one running with ServerConfig.DisableRangeOps. It is
// a capability verdict, not a fault: the node is alive and the caller
// should use a compatible code path (e.g. the per-slot anti-entropy
// sweep instead of Merkle exchange) rather than retry.
var ErrUnsupported = errors.New("pcmserve: operation not supported by peer")

// ErrOverloaded reports a request shed by admission control: the shard
// queue was saturated and the server chose to fail fast rather than
// block the connection. Transient — the server is alive and telling
// the caller to back off; use RetryAfter to read its hint.
var ErrOverloaded = errors.New("pcmserve: overloaded, request shed")

// ErrDeadlineExceeded reports a request whose wire deadline expired
// before a shard executed it: the server dropped it at dequeue (work
// nobody is waiting for is never run). Transient, but retrying with
// the same stale deadline would only be dropped again.
var ErrDeadlineExceeded = errors.New("pcmserve: request deadline exceeded")

// ErrRetryBudgetExhausted is a client-side verdict: the retry budget's
// token bucket is empty, so the retry layer stopped retrying to avoid
// amplifying an overload. It wraps the last underlying failure.
var ErrRetryBudgetExhausted = errors.New("pcmserve: retry budget exhausted")

// ErrConnFailed marks a connection-level failure: the transport died
// before a response arrived, so the request outcome is unknown. The
// underlying cause is recorded as text only — deliberately NOT wrapped —
// because a peer close surfaces as io.EOF, and wrapping it would make a
// dead connection satisfy errors.Is(err, io.EOF), the io.ReaderAt
// end-of-device marker.
var ErrConnFailed = errors.New("pcmserve: connection failed")

// RemoteError is a server-side failure reconstructed on the client. It
// unwraps to the sentinel matching its wire code, so
// errors.Is(err, core.ErrUncorrectable) and friends hold across the
// network.
type RemoteError struct {
	Code uint8
	Msg  string
	// RetryAfterUs is the server's back-off hint in microseconds,
	// carried only with CodeOverloaded (0 otherwise).
	RetryAfterUs uint32
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap maps the wire code back to its sentinel.
func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case CodeUncorrectable:
		return core.ErrUncorrectable
	case CodeShardUnavailable:
		return ErrShardUnavailable
	case CodeClosed:
		return ErrClosed
	case CodeUnsupported:
		return ErrUnsupported
	case CodeOverloaded:
		return ErrOverloaded
	case CodeDeadlineExceeded:
		return ErrDeadlineExceeded
	}
	return nil
}

// OverloadError is the server-side form of an admission rejection,
// carrying the shard's estimate of when capacity will free up. The
// wire layer flattens it into a CodeOverloaded frame; clients see a
// RemoteError that unwraps to ErrOverloaded with RetryAfterUs set.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return "pcmserve: overloaded, request shed (retry after " + e.RetryAfter.String() + ")"
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the back-off hint from an overload error — the
// server-side OverloadError or its client-side RemoteError image —
// and 0 when err carries none.
func RetryAfter(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	var re *RemoteError
	if errors.As(err, &re) && re.Code == CodeOverloaded {
		return time.Duration(re.RetryAfterUs) * time.Microsecond
	}
	return 0
}

// errCode picks the wire code for a server-side error.
func errCode(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrUncorrectable):
		return CodeUncorrectable
	case errors.Is(err, ErrShardUnavailable):
		return CodeShardUnavailable
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrUnsupported):
		return CodeUnsupported
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	}
	return CodeGeneric
}

// errResponse builds a StatusErr response: one code byte, then the
// message. CodeOverloaded inserts a uint32 retry-after hint (µs)
// between the code and the message.
func errResponse(id uint64, err error) response {
	code := errCode(err)
	msg := err.Error()
	payload := append(make([]byte, 0, 1+4+len(msg)), code)
	if code == CodeOverloaded {
		us := uint64(RetryAfter(err) / time.Microsecond)
		if us > uint64(^uint32(0)) {
			us = uint64(^uint32(0))
		}
		payload = binary.BigEndian.AppendUint32(payload, uint32(us))
	}
	return response{id: id, status: StatusErr, payload: append(payload, msg...)}
}

// decodeWireError rebuilds the typed error from a StatusErr payload.
func decodeWireError(payload []byte) error {
	if len(payload) == 0 {
		return &RemoteError{Code: CodeGeneric, Msg: "pcmserve: empty error payload"}
	}
	re := &RemoteError{Code: payload[0]}
	rest := payload[1:]
	if re.Code == CodeOverloaded && len(rest) >= 4 {
		re.RetryAfterUs = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	}
	re.Msg = string(rest)
	return re
}

// ErrorClass groups failures by what a caller should do about them.
type ErrorClass int

const (
	// ClassTransient failures (connection loss, shard restarts, server
	// shutdown) may succeed on retry, possibly after reconnecting.
	ClassTransient ErrorClass = iota
	// ClassPermanent failures (bounds violations, protocol misuse,
	// io.EOF device-end semantics) will fail identically on retry.
	ClassPermanent
	// ClassCorrupt failures carry core.ErrUncorrectable: the data is
	// lost and retrying cannot recover it; surface, never retry.
	ClassCorrupt
)

// String implements fmt.Stringer.
func (c ErrorClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Classify maps an error returned by the client (or the Shards layer)
// to its retry class. io.EOF is the device-end marker of io.ReaderAt,
// not a failure, and classifies permanent so no retry loop chases it.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassPermanent
	case errors.Is(err, core.ErrUncorrectable):
		return ClassCorrupt
	case errors.Is(err, ErrShardUnavailable):
		return ClassTransient
	case errors.Is(err, ErrClosed):
		return ClassTransient
	case errors.Is(err, ErrConnFailed):
		return ClassTransient
	case errors.Is(err, ErrFrameCRC):
		return ClassTransient
	case errors.Is(err, ErrUnsupported):
		return ClassPermanent
	case errors.Is(err, ErrOverloaded):
		// Shed, not executed: safe and worthwhile to retry after backing
		// off — but checked before the RemoteError fallback below, which
		// would call any in-band rejection permanent.
		return ClassTransient
	case errors.Is(err, ErrDeadlineExceeded):
		return ClassTransient
	case errors.Is(err, io.EOF):
		return ClassPermanent
	}
	var re *RemoteError
	if errors.As(err, &re) {
		// The server executed the request and rejected it; retrying the
		// same request gives the same answer.
		return ClassPermanent
	}
	// Everything else is connection-level (dial failures, resets,
	// truncated frames): retry after reconnecting.
	return ClassTransient
}
