package pcmserve

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"
)

// frameBytes runs one of the production encoders against an in-memory
// connection buffer and returns the full frame it wrote (length and
// checksum words included).
func frameBytes(encode func(*bufio.Writer) error) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := encode(bw); err != nil {
		panic(err)
	}
	bw.Flush()
	return buf.Bytes()
}

func reqBytes(r request) []byte {
	return frameBytes(func(bw *bufio.Writer) error { return writeRequest(bw, &r) })
}

func respBytes(r response) []byte {
	return frameBytes(func(bw *bufio.Writer) error { return writeResponse(bw, &r) })
}

// readFrameBytes runs readFrame over an in-memory stream. The pooled
// buffer, if any, is deliberately not released: the returned body
// aliases it.
func readFrameBytes(r io.Reader, maxFrame uint32) ([]byte, error) {
	body, _, err := readFrame(bufio.NewReader(r), maxFrame)
	return body, err
}

// TestWireGoldenBytes pins the wire format to the bytes the pre-pooling
// encoder (frame / encode*Req / errFrame, one []byte per frame)
// produced: the hex below was captured from that code before it was
// removed. Any difference is a wire-compatibility break with deployed
// peers, not a test to update.
func TestWireGoldenBytes(t *testing.T) {
	ext := wireExt{ext: true, deadlineUs: 1500, class: classBackground}
	pay := bytes.Repeat([]byte{0x5A}, 16)
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"read legacy", reqBytes(request{id: 0x0102030405060708, op: OpRead, trace: 0xABCD, off: 128, n: 64}),
			"0000001d243d3a54010203040506070801000000000000abcd000000000000008000000040"},
		{"read ext", reqBytes(request{id: 0x0102030405060708, op: OpRead, trace: 0xABCD, wireExt: ext, off: 128, n: 64}),
			"000000264b2b3412010203040506070881000000000000abcd00000000000005dc01000000000000008000000040"},
		{"write legacy", reqBytes(request{id: 2, op: OpWrite, off: 64, data: pay}),
			"0000002979b95504000000000000000202000000000000000000000000000000405a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"},
		{"write ext", reqBytes(request{id: 2, op: OpWrite, trace: 7, wireExt: ext, off: 64, data: pay}),
			"00000032ae7caa3e000000000000000282000000000000000700000000000005dc0100000000000000405a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"},
		{"advance ext", reqBytes(request{id: 3, op: OpAdvance, trace: 7, wireExt: ext, dt: 0.5}),
			"00000022edadb0ad000000000000000383000000000000000700000000000005dc013fe0000000000000"},
		{"stats legacy", reqBytes(request{id: 4, op: OpStats}),
			"00000011274f145d0000000000000004040000000000000000"},
		{"hash range ext", reqBytes(request{id: 11, op: OpHashRange, wireExt: ext, off: 160, recordBytes: 80, count: 1024, fanout: 8}),
			"0000002e9a9ba496000000000000000b85000000000000000000000000000005dc0100000000000000a0000000500000040000000008"},
		{"read stride legacy", reqBytes(request{id: 12, op: OpReadStride, trace: 0xFEED, off: 64, stride: 80, recordBytes: 16, count: 34}),
			"00000025f602c366000000000000000c06000000000000feed0000000000000040000000500000001000000022"},
		{"ok read", respBytes(response{id: 5, status: StatusOK, payload: bytes.Repeat([]byte{0x11}, 16)}),
			"00000019565682af00000000000000050011111111111111111111111111111111"},
		{"eof read", respBytes(response{id: 5, status: StatusEOF, payload: []byte{1, 2, 3}}),
			"0000000cdd0716a4000000000000000502010203"},
		{"ok write", respBytes(response{id: 6, status: StatusOK, payload: []byte{0, 0, 0, 64}}),
			"0000000d94592fec00000000000000060000000040"},
		{"ok empty", respBytes(response{id: 7, status: StatusOK}),
			"00000009c188a1e6000000000000000700"},
		{"err generic", respBytes(errResponse(8, errors.New("some failure"))),
			"000000168071ce9800000000000000080100736f6d65206661696c757265"},
		{"err overloaded", respBytes(errResponse(9, &OverloadError{RetryAfter: 3 * time.Millisecond})),
			"00000042c5f0f5380000000000000009010500000bb870636d73657276653a206f7665726c6f616465642c207265717565737420736865642028726574727920616674657220336d7329"},
		{"err deadline", respBytes(errResponse(10, ErrDeadlineExceeded)),
			"0000002d0d7bd8ae000000000000000a010670636d73657276653a207265717565737420646561646c696e65206578636565646564"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestWriteFrameAcrossFlushBoundary fills the write buffer to every
// residue near its capacity before encoding a frame, so the head lands
// on both sides of the forced flush, and checks the stream still
// decodes to the same frames in order.
func TestWriteFrameAcrossFlushBoundary(t *testing.T) {
	pay := bytes.Repeat([]byte{0xC3}, 64)
	for pad := 4096 - 2*maxFrameHead; pad <= 4096; pad++ {
		var buf bytes.Buffer
		bw := bufio.NewWriterSize(&buf, 4096)
		bw.Write(make([]byte, pad))
		w := request{id: 9, op: OpWrite, trace: 3, wireExt: wireExt{ext: true, deadlineUs: 7}, off: 640, data: pay}
		if err := writeRequest(bw, &w); err != nil {
			t.Fatal(err)
		}
		if err := writeResponse(bw, &response{id: 9, status: StatusOK, payload: pay}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		br := bufio.NewReader(bytes.NewReader(buf.Bytes()[pad:]))
		body, fb, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("pad %d: request: %v", pad, err)
		}
		req, err := parseRequest(body)
		if err != nil || req.id != 9 || req.off != 640 || req.deadlineUs != 7 || !bytes.Equal(req.data, pay) {
			t.Fatalf("pad %d: request decoded to %+v, %v", pad, req, err)
		}
		fb.release()
		body, fb, err = readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("pad %d: response: %v", pad, err)
		}
		resp, err := parseResponse(body)
		if err != nil || resp.id != 9 || !bytes.Equal(resp.payload, pay) {
			t.Fatalf("pad %d: response decoded to %+v, %v", pad, resp, err)
		}
		fb.release()
	}
}

// TestReadFrameOversizedNotPooled checks the pool's capacity cap: a body
// larger than a pooled buffer is read into a one-shot allocation with no
// pooled buffer attached, so nothing large is ever pinned.
func TestReadFrameOversizedNotPooled(t *testing.T) {
	for _, n := range []int{frameBufBytes - reqHeaderBytes - 8, frameBufBytes - reqHeaderBytes - 8 + 1, 64 << 10} {
		fr := reqBytes(request{id: 1, op: OpWrite, data: make([]byte, n)})
		body, fb, err := readFrame(bufio.NewReader(bytes.NewReader(fr)), DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if pooled := fb != nil; pooled != (len(body) <= frameBufBytes) {
			t.Errorf("%d-byte body: pooled = %v", len(body), pooled)
		}
		fb.release()
	}
}
