package pcmserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds returns representative wire inputs: one valid frame per
// request op, a response frame, and hostile mutants (truncations,
// corrupted CRC, lying length prefixes). The same set seeds the fuzzer
// and backs the checked-in corpus under testdata/fuzz/FuzzDecodeFrame.
func fuzzSeeds() [][]byte {
	seeds := [][]byte{
		reqBytes(request{id: 1, op: OpRead, trace: 0xABCD, off: 128, n: 64}),
		reqBytes(request{id: 2, op: OpWrite, off: 64, data: bytes.Repeat([]byte{0x5A}, 64)}),
		reqBytes(request{id: 3, op: OpAdvance, trace: 7, dt: 0.5}),
		reqBytes(request{id: 4, op: OpStats}),
		respBytes(response{id: 5, status: StatusOK, payload: bytes.Repeat([]byte{0x11}, 32)}),
		respBytes(errResponse(6, errors.New("some failure"))),
	}
	// Truncated mid-header and mid-body.
	full := reqBytes(request{id: 7, op: OpRead, n: 16})
	seeds = append(seeds, full[:3], full[:9], full[:len(full)-2])
	// Corrupted CRC word and corrupted body.
	badCRC := append([]byte(nil), full...)
	badCRC[5] ^= 0xFF
	badBody := append([]byte(nil), full...)
	badBody[len(badBody)-1] ^= 0x01
	seeds = append(seeds, badCRC, badBody)
	// Lying length prefixes: zero, below header, huge, and a length
	// claiming more bytes than follow.
	for _, n := range []uint32{0, headerBytes - 1, 1 << 31, 1 << 20} {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		seeds = append(seeds, append(hdr[:], 0xEE, 0xEE))
	}
	// Vectored anti-entropy ops (appended so the mutant indices above
	// stay stable).
	seeds = append(seeds,
		reqBytes(request{id: 11, op: OpHashRange, off: 160, recordBytes: 80, count: 1024, fanout: 8}),
		reqBytes(request{id: 12, op: OpReadStride, trace: 0xFEED, off: 64, stride: 80, recordBytes: 16, count: 34}),
	)
	// Extended-header requests: deadline budget + admission class after
	// the trace word, flagged in the op byte. One truncated mid-ext.
	seeds = append(seeds,
		reqBytes(request{id: 13, op: OpRead, trace: 5, wireExt: wireExt{ext: true, deadlineUs: 1500, class: classBackground}, off: 128, n: 64}),
		reqBytes(request{id: 14, op: OpWrite, wireExt: wireExt{ext: true}, off: 64, data: bytes.Repeat([]byte{0x7C}, 64)}),
	)
	extFull := reqBytes(request{id: 15, op: OpRead, wireExt: wireExt{ext: true, deadlineUs: 9}, n: 16})
	seeds = append(seeds, extFull[:len(extFull)-extHeaderBytes-9])
	return seeds
}

// FuzzDecodeFrame drives arbitrary bytes through the full inbound wire
// path — readFrame, then both parsers — asserting it never panics and
// that frames surviving the CRC check uphold the parser contracts.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, fb, err := readFrame(bufio.NewReader(bytes.NewReader(data)), DefaultMaxFrame)
		if err != nil {
			// Rejected input must carry a diagnosable cause: either the
			// typed CRC sentinel or an I/O/length error.
			if buf != nil || fb != nil {
				t.Fatal("readFrame returned a buffer alongside an error")
			}
			return
		}
		defer fb.release()
		if len(buf) < headerBytes {
			t.Fatalf("readFrame accepted a %d-byte frame below header size", len(buf))
		}
		if (fb != nil) != (len(buf) <= frameBufBytes) {
			t.Fatalf("%d-byte body: pooled buffer = %v", len(buf), fb != nil)
		}
		// Responses have no op-specific validation beyond the header, so
		// any CRC-valid frame must parse as one without error or panic.
		if _, err := parseResponse(buf); err != nil {
			t.Fatalf("parseResponse rejected a CRC-valid frame: %v", err)
		}
		req, err := parseRequest(buf)
		if err != nil {
			return
		}
		// A frame that parses as a request must re-encode to the exact
		// bytes read off the wire (the codec is canonical).
		switch req.op {
		case OpRead, OpWrite, OpAdvance, OpStats, OpHashRange, OpReadStride:
		default:
			t.Fatalf("parseRequest accepted unknown op %d", req.op)
		}
		if re := reqBytes(req); !bytes.Equal(re[8:], buf) {
			// NaN float bit patterns are the one legitimate asymmetry:
			// Float64frombits/Float64bits round-trip every pattern, so
			// inequality here is a real codec bug.
			t.Fatalf("request did not re-encode canonically:\n got %x\nwant %x", re[8:], buf)
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzDecodeFrame from fuzzSeeds(). Run it after a wire
// format change:
//
//	PCMSERVE_WRITE_FUZZ_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/pcmserve
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PCMSERVE_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set PCMSERVE_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzSeedsStillParse pins the seed corpus to the current wire
// format: the valid seeds must parse, the mutants must be rejected with
// the right cause. If the format changes, regenerate testdata/fuzz.
func TestFuzzSeedsStillParse(t *testing.T) {
	seeds := fuzzSeeds()
	for i := 0; i < 6; i++ {
		if _, err := readFrameBytes(bytes.NewReader(seeds[i]), DefaultMaxFrame); err != nil {
			t.Errorf("valid seed %d rejected: %v", i, err)
		}
	}
	for i, wantCRC := range map[int]bool{6: false, 7: false, 8: false, 9: true, 10: true} {
		_, err := readFrameBytes(bytes.NewReader(seeds[i]), DefaultMaxFrame)
		if err == nil {
			t.Errorf("mutant seed %d accepted", i)
			continue
		}
		if got := errors.Is(err, ErrFrameCRC); got != wantCRC {
			t.Errorf("mutant seed %d: ErrFrameCRC = %v, want %v (err: %v)", i, got, wantCRC, err)
		}
		if wantCRC {
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Errorf("mutant seed %d: want a truncation error, got %v", i, err)
		}
	}
}
