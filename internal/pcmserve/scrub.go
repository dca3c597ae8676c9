package pcmserve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wearout"
)

// ScrubStats counts what the background scrubber has found and fixed;
// it is part of the Stats snapshot and the expvar export.
type ScrubStats struct {
	// Passes counts completed walks of the whole logical block space.
	Passes uint64 `json:"passes"`
	// Scrubbed counts block scrub operations performed.
	Scrubbed uint64 `json:"scrubbed"`
	// Repaired counts correctable blocks rewritten at nominal levels
	// (drift cleared before it could accumulate past ECC).
	Repaired uint64 `json:"repaired"`
	// Uncorrectable counts scrubs that found a block beyond ECC.
	Uncorrectable uint64 `json:"uncorrectable"`
	// Spared counts spare pairs consumed by mark-and-spare accounting
	// (one per uncorrectable event, per the paper's Section 6.4).
	Spared uint64 `json:"spared"`
	// Retired counts blocks whose failures exceeded the spare capacity
	// of the paper's mark-and-spare design (6 spare pairs per block).
	Retired uint64 `json:"retired"`
	// Skipped counts scrub slots dropped because the owning shard was
	// dead or the scrub op itself failed.
	Skipped uint64 `json:"skipped"`
	// Verify-pass outcomes (integrity layer + VerifyScrub): decoded
	// blocks found clean (no rewrite), corrected and repaired in place,
	// or beyond BCH capability (escalated by the integrity ladder).
	VerifyClean         uint64 `json:"verify_clean"`
	VerifyCorrected     uint64 `json:"verify_corrected"`
	VerifyUncorrectable uint64 `json:"verify_uncorrectable"`
	// PassHeadroomSeconds is the projected wall-clock time to finish
	// the current scrub pass at the configured cadence — the
	// refresh-interval headroom: it must stay below the drift window
	// the device can tolerate, or blocks go unrefreshed too long.
	PassHeadroomSeconds float64 `json:"pass_headroom_seconds"`
}

// scrubber walks the logical block space at a fixed cadence, issuing
// one opScrub per interval through the owning shard's queue so scrubs
// serialize with client traffic. Uncorrectable blocks are routed
// through internal/wearout mark-and-spare accounting: each failure
// marks one pair and consumes one spare; a block that exhausts the
// spare budget is retired (the ErrTooManyFailures condition).
type scrubber struct {
	g        *Shards
	interval time.Duration
	design   wearout.MarkAndSpare
	nBlocks  int64

	stop chan struct{}
	wg   sync.WaitGroup

	// cursor is the next logical block to scrub; the headroom gauge
	// derives pass-completion time from it.
	cursor atomic.Int64

	passes, scrubbed      *obs.Counter
	repairedDrift         *obs.Counter
	repairedUncorrectable *obs.Counter
	spared, retired       *obs.Counter
	skipped               *obs.Counter

	verifyClean         *obs.Counter
	verifyCorrected     *obs.Counter
	verifyUncorrectable *obs.Counter

	mu         sync.Mutex
	sparesUsed map[int64]int // logical block → spare pairs consumed
}

func newScrubber(g *Shards, interval time.Duration) *scrubber {
	sc := &scrubber{
		g:          g,
		interval:   interval,
		design:     wearout.PaperDesign(),
		nBlocks:    g.size / core.BlockBytes,
		stop:       make(chan struct{}),
		sparesUsed: make(map[int64]int),
	}
	reg := g.obs.reg
	sc.passes = reg.Counter("pcmserve_scrub_passes_total",
		"Completed scrub walks of the whole logical block space.")
	sc.scrubbed = reg.Counter("pcmserve_scrub_blocks_total",
		"Block scrub operations performed.")
	const repairsName = "pcmserve_scrub_repairs_total"
	const repairsHelp = "Blocks rewritten by the scrubber, by cause: drift (correctable, refreshed at nominal levels) or uncorrectable (content replaced, spare-accounted)."
	sc.repairedDrift = reg.Counter(repairsName, repairsHelp, obs.L("cause", "drift")...)
	sc.repairedUncorrectable = reg.Counter(repairsName, repairsHelp, obs.L("cause", "uncorrectable")...)
	sc.spared = reg.Counter("pcmserve_scrub_spared_total",
		"Spare pairs consumed by mark-and-spare accounting.")
	sc.retired = reg.Counter("pcmserve_scrub_retired_total",
		"Blocks retired after exhausting the mark-and-spare budget.")
	sc.skipped = reg.Counter("pcmserve_scrub_skipped_total",
		"Scrub slots dropped (dead shard or scrub op failure).")
	const verifyName = "pcmserve_scrub_verify_total"
	const verifyHelp = "Verify-pass scrub outcomes: decoded clean (no rewrite), corrected (repaired in place), or uncorrectable (escalated)."
	sc.verifyClean = reg.Counter(verifyName, verifyHelp, obs.L("outcome", "clean")...)
	sc.verifyCorrected = reg.Counter(verifyName, verifyHelp, obs.L("outcome", "corrected")...)
	sc.verifyUncorrectable = reg.Counter(verifyName, verifyHelp, obs.L("outcome", "uncorrectable")...)
	reg.GaugeFunc("pcmserve_scrub_pass_headroom_seconds",
		"Projected time to finish the current scrub pass at the configured cadence (the refresh-interval headroom).",
		sc.headroomSeconds)
	return sc
}

// headroomSeconds projects the remaining wall-clock time of the
// current pass: blocks still unvisited × the per-block cadence.
func (sc *scrubber) headroomSeconds() float64 {
	remaining := sc.nBlocks - sc.cursor.Load()
	if remaining < 0 {
		remaining = 0
	}
	return float64(remaining) * sc.interval.Seconds()
}

func (sc *scrubber) start() {
	sc.wg.Add(1)
	go sc.run()
}

func (sc *scrubber) snapshot() ScrubStats {
	return ScrubStats{
		Passes:              sc.passes.Value(),
		Scrubbed:            sc.scrubbed.Value(),
		Repaired:            sc.repairedDrift.Value(),
		Uncorrectable:       sc.repairedUncorrectable.Value(),
		Spared:              sc.spared.Value(),
		Retired:             sc.retired.Value(),
		Skipped:             sc.skipped.Value(),
		VerifyClean:         sc.verifyClean.Value(),
		VerifyCorrected:     sc.verifyCorrected.Value(),
		VerifyUncorrectable: sc.verifyUncorrectable.Value(),
		PassHeadroomSeconds: sc.headroomSeconds(),
	}
}

func (sc *scrubber) run() {
	defer sc.wg.Done()
	tick := time.NewTicker(sc.interval)
	defer tick.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-tick.C:
		}
		block := sc.cursor.Load()
		sc.scrubOne(block)
		block++
		if block >= sc.nBlocks {
			block = 0
			sc.passes.Inc()
		}
		sc.cursor.Store(block)
	}
}

// scrubOne scrubs the logical block with the given global index. The
// enqueue follows the dispatch locking discipline: the closed check and
// the admission happen under the read lock, so Close cannot close the
// queue out from under the send. Scrub is background work: admission
// sheds it at the high-water mark (counted as a skipped slot; the
// cursor revisits the block next pass) so a saturated queue spends its
// capacity on foreground requests.
func (sc *scrubber) scrubOne(block int64) {
	off := block * core.BlockBytes
	s := sc.g.shards[off/sc.g.shardSize]

	sc.g.mu.RLock()
	if sc.g.closed {
		sc.g.mu.RUnlock()
		return
	}
	if s.healthState() == Dead {
		sc.g.mu.RUnlock()
		sc.skipped.Inc()
		return
	}
	done := donePool.Get().(chan shardResult)
	err := s.admit(shardReq{op: opScrub, off: off % sc.g.shardSize, enq: time.Now(), done: done},
		opMeta{class: classBackground})
	sc.g.mu.RUnlock()
	if err != nil {
		donePool.Put(done) // refused: the shard never saw it
		sc.skipped.Inc()
		return
	}

	r := <-done
	donePool.Put(done)
	sc.scrubbed.Inc()
	switch r.scrub {
	case scrubRepaired:
		sc.repairedDrift.Inc()
	case scrubUncorrectable:
		sc.repairedUncorrectable.Inc()
		// Mark-and-spare: the failure marks one pair INV and shifts a
		// spare in. Past SparePairs the block is beyond the scheme's
		// capacity and is retired (counted once).
		sc.mu.Lock()
		sc.sparesUsed[block]++
		used := sc.sparesUsed[block]
		sc.mu.Unlock()
		if used <= sc.design.SparePairs {
			sc.spared.Inc()
		} else if used == sc.design.SparePairs+1 {
			sc.retired.Inc()
		}
	case scrubVerifyClean:
		sc.verifyClean.Inc()
	case scrubVerifyCorrected:
		sc.verifyCorrected.Inc()
	case scrubVerifyUncorrectable:
		// The integrity ladder already spared/remapped and replaced the
		// content; the scrubber only observes the outcome.
		sc.verifyUncorrectable.Inc()
	}
	if r.err != nil && !errors.Is(r.err, core.ErrUncorrectable) {
		sc.skipped.Inc()
	}
}
