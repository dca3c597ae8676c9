package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
)

const (
	blockBytes = core.BlockBytes
	// tailLimit is the latency limit of within_1ms_ratio.
	tailLimit = time.Millisecond
)

// rng is splitmix64: the whole op sequence (kind, block, payload) is a
// function of the seed, and drawing from it never allocates. It is the
// harness's own rather than internal/rng so that a change to the
// repository cannot change the benchmark's inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// target is one layer's public entry point, addressed in 64 B blocks.
// read may fill and return buf or return a slice of its own.
type target interface {
	read(blk int64, buf []byte) ([]byte, error)
	write(blk int64, data []byte) error
}

// span is one timed call in the traced pass; op is the index into the
// seeded sequence, which is what joins the rungs.
type span struct {
	op      uint32
	write   bool
	startNs int64
	durNs   int64
}

// caller is one closed-loop client: it owns the block range
// [base, base+n), mirrors every acknowledged write and checks every
// read against the mirror (cmd/pcmcluster's loadgen rule). All its
// recording state is preallocated, so a step allocates nothing.
type caller struct {
	tgt     target
	r       rng
	base, n int64
	mirror  []byte // n × 64 B, the last acknowledged content
	unknown []bool // last write failed: content undefined until the next ack
	buf     [blockBytes]byte
	payload [blockBytes]byte

	start     time.Time // of the current recording; spans count from it
	readH     hist
	writeH    hist
	attempted uint64
	failed    uint64 // typed errors
	within    uint64 // succeeded and verified within tailLimit
	wrong     uint64 // reads that returned bytes other than the mirror's
	acked     uint64 // acknowledged writes since construction, prefill included

	ops   uint32
	spans []span // traced pass only; filled up to its capacity
}

func newCaller(tgt target, seed uint64, base, n int64) *caller {
	return &caller{
		tgt:     tgt,
		r:       rng(seed),
		base:    base,
		n:       n,
		mirror:  make([]byte, n*blockBytes),
		unknown: make([]bool, n),
	}
}

func (c *caller) fillPayload() {
	for i := 0; i < blockBytes; i += 8 {
		binary.LittleEndian.PutUint64(c.payload[i:], c.r.next())
	}
}

// prefill writes every owned block through the target, passes times
// over.
func (c *caller) prefill(passes int) error {
	for p := 0; p < passes; p++ {
		for i := int64(0); i < c.n; i++ {
			c.fillPayload()
			if err := c.tgt.write(c.base+i, c.payload[:]); err != nil {
				return fmt.Errorf("prefill block %d: %w", c.base+i, err)
			}
			copy(c.mirror[i*blockBytes:], c.payload[:])
			c.acked++
		}
	}
	return nil
}

// beginRecording clears the counters and histograms and starts a
// measured interval; whatever warm-up recorded before it is dropped.
func (c *caller) beginRecording(start time.Time) {
	c.start = start
	c.readH, c.writeH = hist{}, hist{}
	c.attempted, c.failed, c.within, c.wrong = 0, 0, 0, 0
}

// runUntil issues ops back to back until the deadline passes.
func (c *caller) runUntil(deadline time.Time) {
	for now := time.Now(); now.Before(deadline); {
		now = c.step()
	}
}

// step draws the next op of the sequence, times the call, verifies the
// result and returns the completion time. The 50/50 read/write choice
// and the uniform block come from one draw; a write draws its payload
// before the clock starts.
func (c *caller) step() time.Time {
	v := c.r.next()
	isWrite := v&1 == 1
	i := int64((v >> 1) % uint64(c.n))
	slot := c.mirror[i*blockBytes : (i+1)*blockBytes]
	if isWrite {
		c.fillPayload()
	}

	var got []byte
	var err error
	t0 := time.Now()
	if isWrite {
		err = c.tgt.write(c.base+i, c.payload[:])
	} else {
		got, err = c.tgt.read(c.base+i, c.buf[:])
	}
	end := time.Now()
	dur := end.Sub(t0)

	ok := err == nil
	switch {
	case isWrite && ok:
		copy(slot, c.payload[:])
		c.unknown[i] = false
		c.acked++
	case isWrite:
		c.unknown[i] = true
	case ok && !c.unknown[i] && !bytes.Equal(got, slot):
		ok = false
		c.wrong++
	}

	if c.spans != nil && len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, span{op: c.ops, write: isWrite, startNs: t0.Sub(c.start).Nanoseconds(), durNs: dur.Nanoseconds()})
	}
	c.ops++
	c.attempted++
	if err != nil {
		c.failed++
	}
	if !ok {
		return end
	}
	if isWrite {
		c.writeH.record(dur.Nanoseconds())
	} else {
		c.readH.record(dur.Nanoseconds())
	}
	if dur <= tailLimit {
		c.within++
	}
	return end
}
