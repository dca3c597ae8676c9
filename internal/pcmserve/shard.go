package pcmserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pcmlive"
)

// ShardDevice is the per-shard device contract: the byte-addressable
// surface of device.Device, which internal/faultinject can wrap to
// inject failures underneath the serving stack.
type ShardDevice interface {
	io.ReaderAt
	io.WriterAt
	Advance(dt float64) error
	Name() string
}

// ShardsConfig assembles a sharded device.
type ShardsConfig struct {
	// Shards is the number of independent device instances the byte
	// address space is partitioned across (default 4).
	Shards int
	// QueueDepth bounds each shard's request queue; a full queue blocks
	// legacy enqueuers, while classed admission sheds background work at
	// the high-water mark and fast-fails sheddable foreground requests
	// after AdmitWait (default 64).
	QueueDepth int
	// AdmitWait bounds how long a sheddable foreground request may wait
	// for queue space before admission fails it with ErrOverloaded
	// (default 2ms). Legacy requests (no extended header) keep blocking
	// indefinitely — old clients rely on that backpressure.
	AdmitWait time.Duration
	// BackgroundHighWater is the queue occupancy fraction at or above
	// which background work (scrub, refresh, and wire requests tagged
	// background) is shed instead of queued, in (0, 1] (default 0.5).
	// Background yields well before foreground feels pressure.
	BackgroundHighWater float64
	// Device configures each shard's device. Blocks is the PER-SHARD
	// block count; the sharded device's total capacity is
	// Shards × Blocks × 64 bytes. Seed is decorrelated per shard.
	Device device.Config

	// WrapDevice, when non-nil, wraps each freshly built shard device —
	// the hook internal/faultinject uses to sit underneath the shard
	// owner goroutine.
	WrapDevice func(shard int, dev ShardDevice) ShardDevice

	// MaxRestarts bounds how many times a shard owner goroutine is
	// restarted after panics before the shard is declared dead
	// (default 8; negative means never restart).
	MaxRestarts int
	// HealAfter is the number of completed operations after a restart
	// before a degraded shard is considered healthy again (default 16).
	HealAfter int

	// ScrubInterval enables the background scrubber: one block is
	// scrubbed (read, wearout-accounted, rewritten) every interval,
	// walking the whole logical space round-robin (0 disables).
	ScrubInterval time.Duration

	// Live, when non-nil, replaces each shard's device.Device with a
	// drift-backed pcmlive.Device and the fixed-cadence scrubber with
	// the budgeted pcmlive.Scheduler. Device.Blocks and Device.Seed
	// still apply (per-shard block count and decorrelated seeding); the
	// other device.Config knobs are ignored — the live device models
	// drift only. Mutually exclusive with ScrubInterval and VerifyScrub
	// (see LiveConfig).
	Live *LiveConfig

	// Integrity enables per-block extended-BCH protection with sideband
	// check bits (nil disables). It shrinks the client-visible capacity:
	// each shard's usable blocks drop to what its raw blocks can fund
	// once every 64-byte block also stores its check bits.
	Integrity *IntegrityConfig
	// VerifyScrub switches the scrubber from blind read-rewrite to a
	// decode pass that distinguishes clean, corrected, and uncorrectable
	// blocks, rewriting only when there is something to fix. Requires
	// Integrity.
	VerifyScrub bool

	// Obs tunes the observability layer (nil → defaults: a private
	// metrics registry, sampled traces, 256-entry flight recorders,
	// dumps to stderr).
	Obs *Observability
}

// Health is a shard's lifecycle state.
type Health int32

const (
	// Healthy shards serve normally.
	Healthy Health = iota
	// Degraded shards are serving again after a panic restart but have
	// not yet completed HealAfter operations.
	Degraded
	// Dead shards exhausted their restart budget; requests touching
	// them fail fast with ErrShardUnavailable.
	Dead
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("Health(%d)", int32(h))
}

// Shard-queue-internal operation codes (never on the wire).
const (
	opScrub   uint8 = 0xF0
	opRefresh uint8 = 0xF2 // 0xF1 is integrity's opRepair
)

// shardReq is one shard-local unit of work, always fully contained in
// the owning shard's address range.
type shardReq struct {
	op    uint8
	off   int64   // shard-local byte offset
	buf   []byte  // read destination / write source
	dt    float64 // OpAdvance only
	idx   int     // index of this span within the caller's request
	trace uint64  // request trace ID (0 = untraced)
	enq   time.Time
	// deadline is the request's absolute expiry; the owner drops the
	// request at dequeue (counted, never executed) once it has passed.
	// Zero means none.
	deadline time.Time
	// scrubSeq0 is the shard's scrub sequence at enqueue time; the
	// difference at completion is the scrub interference the request
	// observed.
	scrubSeq0 uint64
	done      chan<- shardResult
}

type shardResult struct {
	idx int // echoes shardReq.idx
	n   int
	err error
	// scrub reports the outcome of an opScrub request.
	scrub scrubOutcome
	// live reports the outcome of an opRefresh request.
	live pcmlive.Outcome
	// Span detail for traced requests: queue wait, device service
	// time, and scrub ops interleaved since enqueue.
	wait    time.Duration
	service time.Duration
	scrubs  uint32
}

// scrubOutcome describes what one block scrub found and did.
type scrubOutcome int

const (
	scrubNone scrubOutcome = iota
	// scrubRepaired: the block read back correctable and was rewritten
	// at nominal levels (drift cleared).
	scrubRepaired
	// scrubUncorrectable: the read was beyond ECC; the block was
	// rewritten (content replaced) and must be wearout-accounted.
	scrubUncorrectable

	// Verify-pass outcomes (integrity layer + VerifyScrub). The
	// integrity ladder has already done any repairing, spare accounting,
	// and remapping by the time these are reported, so the scrubber
	// only counts them.
	scrubVerifyClean
	scrubVerifyCorrected
	scrubVerifyUncorrectable
)

// opMeta carries a request's admission attributes into dispatch: who
// is waiting (trace), until when (deadline), at what priority (class),
// and whether admission may fast-fail it instead of blocking.
type opMeta struct {
	trace    uint64
	deadline time.Time // zero = none
	class    uint8     // classForeground or classBackground
	// sheddable marks foreground requests whose caller understands
	// ErrOverloaded (extended-header wire requests); legacy callers get
	// blocking backpressure instead.
	sheddable bool
	// ctx, when non-nil, lets a blocked enqueue abandon the wait on
	// cancellation instead of blocking forever on a full queue.
	ctx context.Context
}

// admitInstruments are the Shards-wide overload counters, shared by
// every shard.
type admitInstruments struct {
	shedBg, shedFg *obs.Counter
	expired        *obs.Counter
}

// shard owns one ShardDevice. Exactly one goroutine (runOnce inside
// supervise) touches the device at a time, honouring the
// internal/device concurrency contract; the supervisor restarts that
// goroutine's work loop when it panics.
type shard struct {
	index     int
	dev       ShardDevice
	ch        chan shardReq
	healAfter uint64

	// Classed admission: shared shed/expired counters, the background
	// high-water mark (queue length at which background work sheds),
	// the bounded wait for sheddable foreground enqueues, and an EWMA
	// of recent service time feeding the retry-after hint.
	adm           *admitInstruments
	bgHighWater   int
	admitWait     time.Duration
	serviceEwmaNs atomic.Int64

	// integ is the shard's integrity layer (nil when disabled);
	// verifyScrub selects the decode-based scrub pass.
	integ       *integrityDevice
	verifyScrub bool

	// liveDev is the shard's raw drift-backed device (nil outside live
	// mode). opRefresh targets it directly: refresh is a physical
	// operation on raw blocks, underneath any integrity mapping.
	liveDev *pcmlive.Device

	o   *serveObs
	rec *obs.FlightRecorder

	reads, writes, advances, errCount *obs.Counter
	readLat, writeLat                 *obs.Histogram

	health   atomic.Int32
	panics   atomic.Uint64
	restarts atomic.Uint64
	okStreak atomic.Uint64 // completed ops since the last restart

	// scrubSeq counts completed opScrub requests; the delta across a
	// request's queue residence is its scrub interference.
	scrubSeq atomic.Uint64

	// Cached device-level gauges, refreshed by the owner goroutine
	// after each operation so gauge collection never touches the
	// single-goroutine device from a scrape.
	remap          remapReporter // nil when the device stack has no remapping
	spareLeft      atomic.Int64
	blocksRemapped atomic.Int64

	// cur is the request being handled, held by value (a non-nil
	// cur.done marks one in flight); only the owner goroutine (and its
	// own recover) touches it, so no lock is needed.
	cur shardReq

	// scrubBuf is the owner goroutine's block scratch for scrubBlock.
	scrubBuf [core.BlockBytes]byte
}

func (s *shard) healthState() Health { return Health(s.health.Load()) }

// initInstruments registers the shard's metrics in the registry.
func (s *shard) initInstruments() {
	reg := s.o.reg
	si := strconv.Itoa(s.index)
	const opsName = "pcmserve_shard_ops_total"
	const opsHelp = "Operations executed by each shard's owner goroutine."
	s.reads = reg.Counter(opsName, opsHelp, obs.L("shard", si, "op", "read")...)
	s.writes = reg.Counter(opsName, opsHelp, obs.L("shard", si, "op", "write")...)
	s.advances = reg.Counter(opsName, opsHelp, obs.L("shard", si, "op", "advance")...)
	s.errCount = reg.Counter("pcmserve_shard_errors_total",
		"Failed shard operations (excluding io.EOF).", obs.L("shard", si)...)
	const latName = "pcmserve_shard_op_latency_seconds"
	const latHelp = "Device operation latency by shard and op."
	s.readLat = reg.Histogram(latName, latHelp, latBoundsSeconds, obs.L("shard", si, "op", "read")...)
	s.writeLat = reg.Histogram(latName, latHelp, latBoundsSeconds, obs.L("shard", si, "op", "write")...)
	reg.GaugeFunc("pcmserve_shard_health",
		"Supervisor state: 0 healthy, 1 degraded, 2 dead.",
		func() float64 { return float64(s.health.Load()) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_queue_depth",
		"Instantaneous bounded-queue occupancy.",
		func() float64 { return float64(len(s.ch)) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_queue_capacity",
		"Bounded-queue capacity (the backpressure limit).",
		func() float64 { return float64(cap(s.ch)) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_panics_total",
		"Recovered owner-goroutine panics.",
		func() float64 { return float64(s.panics.Load()) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_restarts_total",
		"Supervisor restarts of the owner loop.",
		func() float64 { return float64(s.restarts.Load()) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_spare_blocks",
		"FREE-p reserve blocks still available on the shard device.",
		func() float64 { return float64(s.spareLeft.Load()) }, obs.L("shard", si)...)
	reg.GaugeFunc("pcmserve_shard_blocks_remapped",
		"Worn blocks remapped into the FREE-p reserve so far.",
		func() float64 { return float64(s.blocksRemapped.Load()) }, obs.L("shard", si)...)
}

// refreshDeviceGauges re-caches remap occupancy. Called from the owner
// goroutine (and once before it starts), so the device is never
// touched concurrently.
func (s *shard) refreshDeviceGauges() {
	if s.remap == nil {
		return
	}
	left, remapped := s.remap.RemapStats()
	s.spareLeft.Store(int64(left))
	s.blocksRemapped.Store(int64(remapped))
}

// dump emits the flight-recorder window to the configured sink.
func (s *shard) dump(reason string) {
	s.o.sink(obs.Dump{
		Shard:  s.index,
		Reason: reason,
		Time:   time.Now().UnixNano(),
		Events: s.rec.Snapshot(),
	})
}

// retryAfterHint estimates when queue capacity frees up: the recent
// per-op service EWMA times the work queued ahead, clamped to
// [1ms, 500ms] so a cold EWMA or a monster queue still yields a sane
// back-off.
func (s *shard) retryAfterHint() time.Duration {
	ewma := time.Duration(s.serviceEwmaNs.Load())
	if ewma <= 0 {
		ewma = time.Millisecond
	}
	d := ewma * time.Duration(len(s.ch)+1)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

// admit applies classed admission for one shard-local request.
// Background work sheds at the high-water mark; sheddable foreground
// waits at most admitWait; legacy foreground blocks — but abandons the
// wait if its context dies first (a full queue must never pin a
// cancelled request's goroutine forever).
func (s *shard) admit(req shardReq, meta opMeta) error {
	var ctxDone <-chan struct{}
	if meta.ctx != nil {
		ctxDone = meta.ctx.Done()
	}
	if meta.class == classBackground {
		if len(s.ch) < s.bgHighWater {
			select {
			case s.ch <- req:
				return nil
			default:
			}
		}
		s.adm.shedBg.Inc()
		return &OverloadError{RetryAfter: s.retryAfterHint()}
	}
	if meta.sheddable {
		select {
		case s.ch <- req:
			return nil
		default:
		}
		timer := time.NewTimer(s.admitWait)
		defer timer.Stop()
		select {
		case s.ch <- req:
			return nil
		case <-ctxDone:
			return enqueueAbandoned(meta.ctx)
		case <-timer.C:
			s.adm.shedFg.Inc()
			return &OverloadError{RetryAfter: s.retryAfterHint()}
		}
	}
	if ctxDone == nil {
		s.ch <- req
		return nil
	}
	select {
	case s.ch <- req:
		return nil
	case <-ctxDone:
		return enqueueAbandoned(meta.ctx)
	}
}

// enqueueAbandoned types the error for an enqueue wait cut short by
// context cancellation.
func enqueueAbandoned(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("pcmserve: enqueue abandoned: %w", ErrDeadlineExceeded)
	}
	return fmt.Errorf("pcmserve: enqueue abandoned: %w", ctx.Err())
}

// handle executes one request against the device and replies on done.
func (s *shard) handle(req shardReq) {
	start := time.Now()
	var wait time.Duration
	if !req.enq.IsZero() {
		wait = start.Sub(req.enq)
	}
	var n int
	var err error
	outcome := scrubNone
	var liveOut pcmlive.Outcome
	switch req.op {
	case OpRead:
		n, err = s.dev.ReadAt(req.buf, req.off)
		s.reads.Inc()
		s.readLat.ObserveTrace(time.Since(start).Seconds(), req.trace)
	case OpWrite:
		n, err = s.dev.WriteAt(req.buf, req.off)
		s.writes.Inc()
		s.writeLat.ObserveTrace(time.Since(start).Seconds(), req.trace)
	case OpAdvance:
		err = s.dev.Advance(req.dt)
		s.advances.Inc()
	case opScrub:
		if s.integ != nil && s.verifyScrub {
			outcome, err = s.integ.verifyBlock(req.off)
		} else {
			outcome, err = s.scrubBlock(req.off)
		}
		s.scrubSeq.Add(1)
	case opRefresh:
		if s.liveDev == nil {
			err = fmt.Errorf("pcmserve: shard %d: refresh on non-live device", s.index)
		} else {
			liveOut, err = s.liveDev.RefreshBlock(int(req.off / core.BlockBytes))
		}
		// Refresh counts as scrub interference on foreground requests:
		// it occupies the owner exactly like an opScrub would.
		s.scrubSeq.Add(1)
	default:
		err = fmt.Errorf("pcmserve: shard %d: unknown op %d", s.index, req.op)
	}
	service := time.Since(start)
	// EWMA (α=1/8) of service time, feeding the retry-after hint; only
	// the owner goroutine writes it, so load-modify-store is safe.
	if old := s.serviceEwmaNs.Load(); old == 0 {
		s.serviceEwmaNs.Store(int64(service))
	} else {
		s.serviceEwmaNs.Store(old + (int64(service)-old)/8)
	}
	if err != nil && err != io.EOF {
		s.errCount.Inc()
	}
	s.rec.Record(obs.Event{
		TraceID: req.trace,
		Op:      req.op,
		Block:   req.off / core.BlockBytes,
		Latency: service,
		Class:   eventClass(err),
	})
	s.refreshDeviceGauges()
	if err != nil && s.o.dumpOnUncorrectable && errors.Is(err, core.ErrUncorrectable) {
		s.dump("uncorrectable error")
	}
	if s.healthState() == Degraded {
		if s.okStreak.Add(1) >= s.healAfter {
			s.health.CompareAndSwap(int32(Degraded), int32(Healthy))
		}
	}
	req.done <- shardResult{
		idx: req.idx, n: n, err: err, scrub: outcome, live: liveOut,
		wait: wait, service: service,
		scrubs: uint32(s.scrubSeq.Load() - req.scrubSeq0),
	}
}

// scrubBlock performs one atomic read-correct-rewrite cycle on the
// 64-byte block at shard-local offset off — the refresh operation of
// the paper's Section 4, executed inside the owner goroutine so it
// serializes with client traffic and can never interleave with a
// concurrent write. A correctable block is rewritten as read (returning
// every cell to nominal resistance); an uncorrectable one has its
// content replaced, containing the loss to this block, and is reported
// for mark-and-spare accounting.
func (s *shard) scrubBlock(off int64) (scrubOutcome, error) {
	buf := s.scrubBuf[:]
	_, rerr := s.dev.ReadAt(buf, off)
	switch {
	case rerr == nil:
		if _, werr := s.dev.WriteAt(buf, off); werr != nil {
			return scrubNone, fmt.Errorf("pcmserve: scrub rewrite at %d: %w", off, werr)
		}
		return scrubRepaired, nil
	case errors.Is(rerr, core.ErrUncorrectable):
		// The read buffer may hold garbage; rewrite zeros so the block
		// is usable again (data loss is the caller-visible event).
		clear(buf)
		if _, werr := s.dev.WriteAt(buf, off); werr != nil {
			return scrubUncorrectable, fmt.Errorf("pcmserve: scrub replace at %d: %w", off, werr)
		}
		return scrubUncorrectable, nil
	default:
		return scrubNone, fmt.Errorf("pcmserve: scrub read at %d: %w", off, rerr)
	}
}

// runOnce drains the queue until the channel closes (clean shutdown,
// returns false) or a panic escapes the device (returns true). A panic
// mid-request fails that request with ErrShardUnavailable so its waiter
// is never stranded; queued requests stay queued for the restarted
// loop.
func (s *shard) runOnce() (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			s.panics.Add(1)
			s.dump(fmt.Sprintf("panic: %v", r))
			if req := s.cur; req.done != nil {
				s.cur = shardReq{}
				req.done <- shardResult{
					idx: req.idx,
					err: fmt.Errorf("pcmserve: shard %d panicked: %v: %w", s.index, r, ErrShardUnavailable),
				}
			}
		}
	}()
	for req := range s.ch {
		if !req.deadline.IsZero() && time.Now().After(req.deadline) {
			// Nobody is waiting anymore: drop at dequeue, counted, never
			// executed — burning device time on it would steal capacity
			// from requests that can still meet their deadlines.
			s.adm.expired.Inc()
			req.done <- shardResult{
				idx: req.idx,
				err: fmt.Errorf("pcmserve: shard %d: expired in queue: %w", s.index, ErrDeadlineExceeded),
			}
			continue
		}
		s.cur = req
		s.handle(req)
		s.cur = shardReq{}
	}
	return false
}

// supervise owns the shard lifecycle: run, recover, restart with a
// bounded budget, and — once the budget is spent — fail everything fast
// until shutdown.
func (s *shard) supervise(g *Shards) {
	defer g.wg.Done()
	for {
		if !s.runOnce() {
			return // queue closed: clean shutdown
		}
		n := s.restarts.Add(1)
		if g.maxRestarts >= 0 && n > uint64(g.maxRestarts) {
			s.health.Store(int32(Dead))
			s.dump(fmt.Sprintf("shard dead after %d restarts", n-1))
			// Drain-and-fail so enqueuers (and queued waiters) are
			// never stranded behind a dead shard.
			for req := range s.ch {
				req.done <- shardResult{
					idx: req.idx,
					err: fmt.Errorf("pcmserve: shard %d dead after %d restarts: %w", s.index, n-1, ErrShardUnavailable),
				}
			}
			return
		}
		s.okStreak.Store(0)
		s.health.Store(int32(Degraded))
	}
}

// Shards partitions a byte address space across N ShardDevice
// instances, each drained by a supervised goroutine through a bounded
// queue. It implements io.ReaderAt/io.WriterAt over the combined space
// and, unlike a bare Device, is safe for concurrent use by any number
// of goroutines.
type Shards struct {
	shards      []*shard
	shardSize   int64 // bytes per shard
	size        int64 // total bytes
	maxRestarts int

	adm *admitInstruments

	obs   *serveObs
	scrub *scrubber
	live  *liveState // nil outside live mode

	mu     sync.RWMutex // guards closed vs. in-flight enqueues
	closed bool
	wg     sync.WaitGroup
}

var _ io.ReaderAt = (*Shards)(nil)
var _ io.WriterAt = (*Shards)(nil)

// ErrClosed is returned for operations on a closed Shards or Client.
var ErrClosed = errors.New("pcmserve: closed")

// NewShards builds the sharded device. Each shard gets its own
// device.Device with a decorrelated seed.
func NewShards(cfg ShardsConfig) (*Shards, error) {
	n := cfg.Shards
	if n == 0 {
		n = 4
	}
	if n < 1 {
		return nil, fmt.Errorf("pcmserve: shard count %d < 1", n)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 64
	}
	if depth < 1 {
		return nil, fmt.Errorf("pcmserve: queue depth %d < 1", depth)
	}
	if cfg.Device.Blocks < 1 {
		return nil, errors.New("pcmserve: need at least one block per shard")
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 8
	}
	healAfter := cfg.HealAfter
	if healAfter <= 0 {
		healAfter = 16
	}
	if cfg.VerifyScrub && cfg.Integrity == nil {
		return nil, errors.New("pcmserve: VerifyScrub requires Integrity")
	}
	admitWait := cfg.AdmitWait
	if admitWait == 0 {
		admitWait = 2 * time.Millisecond
	}
	if admitWait < 0 {
		return nil, fmt.Errorf("pcmserve: AdmitWait %v < 0", cfg.AdmitWait)
	}
	highWater := cfg.BackgroundHighWater
	if highWater == 0 {
		highWater = 0.5
	}
	if highWater < 0 || highWater > 1 {
		return nil, fmt.Errorf("pcmserve: BackgroundHighWater %g outside (0, 1]", cfg.BackgroundHighWater)
	}
	bgHighWater := int(highWater * float64(depth))
	if bgHighWater < 1 {
		bgHighWater = 1
	}
	if err := validateLive(cfg); err != nil {
		return nil, err
	}
	shardSize := int64(cfg.Device.Blocks) * core.BlockBytes
	var code *bch.Extended
	if cfg.Integrity != nil {
		var err error
		code, err = integrityCode(cfg.Integrity)
		if err != nil {
			return nil, fmt.Errorf("pcmserve: integrity: %w", err)
		}
		db := integrityDataBlocks(cfg.Device.Blocks, code)
		if db < 1 {
			return nil, fmt.Errorf("pcmserve: %d blocks per shard cannot fund one BCH-%d protected block",
				cfg.Device.Blocks, code.T())
		}
		shardSize = int64(db) * core.BlockBytes
	}
	g := &Shards{
		shards:      make([]*shard, n),
		shardSize:   shardSize,
		maxRestarts: maxRestarts,
		obs:         newServeObs(cfg.Obs),
	}
	g.size = g.shardSize * int64(n)
	const shedName = "pcmserve_shed_total"
	const shedHelp = "Requests rejected by classed admission instead of queued, by class."
	g.adm = &admitInstruments{
		shedBg: g.obs.reg.Counter(shedName, shedHelp, obs.L("class", "background")...),
		shedFg: g.obs.reg.Counter(shedName, shedHelp, obs.L("class", "foreground")...),
		expired: g.obs.reg.Counter("pcmserve_expired_dequeued_total",
			"Requests dropped at dequeue because their deadline had already passed (counted, never executed)."),
	}
	g.obs.reg.GaugeFunc("pcmserve_queue_pressure",
		"Peak shard queue occupancy fraction (len/cap) across shards.",
		func() float64 {
			peak := 0.0
			for _, s := range g.shards {
				if s == nil {
					continue
				}
				if f := float64(len(s.ch)) / float64(cap(s.ch)); f > peak {
					peak = f
				}
			}
			return peak
		})
	if cfg.Live != nil {
		ls, err := newLiveState(*cfg.Live, n, g.obs.reg)
		if err != nil {
			return nil, err
		}
		g.live = ls
	}
	for i := range g.shards {
		dcfg := cfg.Device
		// SplitMix64 increment keeps per-shard stochastic behaviour
		// decorrelated even for adjacent seeds.
		dcfg.Seed = cfg.Device.Seed + uint64(i)*0x9e3779b97f4a7c15
		var sd ShardDevice
		var liveDev *pcmlive.Device
		if g.live != nil {
			si := strconv.Itoa(i)
			stallHist := g.obs.reg.Histogram("pcmlive_foreground_stall_seconds",
				"Foreground write stalls behind the shared write budget (refresh-induced bank-busy time).",
				latBoundsSeconds, obs.L("shard", si)...)
			ld, err := pcmlive.NewDevice(pcmlive.DeviceConfig{
				Blocks:    cfg.Device.Blocks,
				Model:     g.live.model,
				Seed:      dcfg.Seed,
				TimeScale: g.live.cfg.TimeScale,
				Budget:    g.live.budget,
				OnStall:   func(stall time.Duration) { stallHist.Observe(stall.Seconds()) },
			})
			if err != nil {
				return nil, fmt.Errorf("pcmserve: shard %d: %w", i, err)
			}
			g.obs.reg.GaugeFunc("pcmlive_refresh_debt",
				"Written blocks currently older than the model-derived safe refresh age.",
				func() float64 { return float64(ld.DebtBlocks()) }, obs.L("shard", si)...)
			g.live.devs = append(g.live.devs, ld)
			liveDev, sd = ld, ld
		} else {
			dev, err := device.New(dcfg)
			if err != nil {
				return nil, fmt.Errorf("pcmserve: shard %d: %w", i, err)
			}
			sd = dev
		}
		if cfg.WrapDevice != nil {
			sd = cfg.WrapDevice(i, sd)
		}
		rec := obs.NewFlightRecorder(g.obs.recorderDepth)
		var integ *integrityDevice
		if code != nil {
			// Integrity sits OUTERMOST: injected stored-bit faults land
			// underneath it, so the decode ladder sees (and heals) them.
			var err error
			integ, err = newIntegrityDevice(sd, code, cfg.Device.Blocks, i, g.obs.reg, rec)
			if err != nil {
				return nil, err
			}
			sd = integ
		}
		s := &shard{
			index:       i,
			dev:         sd,
			ch:          make(chan shardReq, depth),
			healAfter:   uint64(healAfter),
			adm:         g.adm,
			bgHighWater: bgHighWater,
			admitWait:   admitWait,
			o:           g.obs,
			rec:         rec,
			integ:       integ,
			verifyScrub: cfg.VerifyScrub,
			liveDev:     liveDev,
		}
		s.remap, _ = sd.(remapReporter)
		s.refreshDeviceGauges() // seed gauges before the owner starts
		s.initInstruments()
		g.shards[i] = s
		g.wg.Add(1)
		go s.supervise(g)
	}
	if cfg.ScrubInterval > 0 {
		g.scrub = newScrubber(g, cfg.ScrubInterval)
		g.scrub.start()
	}
	if g.live != nil {
		g.live.registerGauges(g.obs.reg)
		if err := g.live.startScheduler(g); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// Size returns the combined capacity in bytes.
func (g *Shards) Size() int64 { return g.size }

// NumShards returns the shard count.
func (g *Shards) NumShards() int { return len(g.shards) }

// Name describes the per-shard device stack.
func (g *Shards) Name() string {
	return fmt.Sprintf("%d×%s", len(g.shards), g.shards[0].dev.Name())
}

// Health returns the lifecycle state of one shard.
func (g *Shards) Health(shard int) Health { return g.shards[shard].healthState() }

// Registry returns the metrics registry every instrument of this
// Shards (and any Server built over it) is registered in.
func (g *Shards) Registry() *obs.Registry { return g.obs.reg }

// Traces returns the sampled trace / slow-op log.
func (g *Shards) Traces() *obs.TraceLog { return g.obs.traces }

// RecorderSnapshots returns a live flight-recorder snapshot per shard,
// oldest events first. Safe to call concurrently with traffic.
func (g *Shards) RecorderSnapshots() []obs.Dump {
	out := make([]obs.Dump, len(g.shards))
	for i, s := range g.shards {
		out[i] = obs.Dump{
			Shard:  i,
			Reason: "live snapshot",
			Time:   time.Now().UnixNano(),
			Events: s.rec.Snapshot(),
		}
	}
	return out
}

// Close stops the refresh scheduler, the scrubber, and all shard
// goroutines after in-flight requests drain. Operations issued after
// Close return ErrClosed.
func (g *Shards) Close() error {
	// Stop the live refresh scheduler before closing the shard queues:
	// its pass goroutines enqueue refreshes under g.mu.RLock, so they
	// must be quiesced while the owners still drain (Stop is
	// idempotent, making concurrent Close calls safe).
	if g.live != nil && g.live.sched != nil {
		g.live.sched.Stop()
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	if g.scrub != nil {
		close(g.scrub.stop)
	}
	for _, s := range g.shards {
		close(s.ch)
	}
	g.mu.Unlock()
	if g.scrub != nil {
		g.scrub.wg.Wait()
	}
	g.wg.Wait()
	return nil
}

// span is one shard-local slice of a caller request.
type span struct {
	shard    int64
	localOff int64
	pos, n   int // range within the caller's buffer
}

// inlineSpans is how many spans a request may split into before
// dispatch leaves its stack-backed arrays and pooled channel for heap
// allocations. A request crosses a shard boundary only when it
// straddles one, so block-sized ops have one span and few have more
// than two.
const inlineSpans = 4

// splitSpans cuts [off, off+n) at shard boundaries, appending to spans.
func (g *Shards) splitSpans(spans []span, off int64, n int) []span {
	for pos := 0; pos < n; {
		abs := off + int64(pos)
		localOff := abs % g.shardSize
		sz := int(g.shardSize - localOff)
		if sz > n-pos {
			sz = n - pos
		}
		spans = append(spans, span{shard: abs / g.shardSize, localOff: localOff, pos: pos, n: sz})
		pos += sz
	}
	return spans
}

// donePool recycles the reply channels shard requests complete on
// (capacity inlineSpans, so an owner's send never blocks). A channel
// returns to the pool only after its taker has received every result it
// enqueued for — from then on no shard holds it.
var donePool = sync.Pool{New: func() any { return make(chan shardResult, inlineSpans) }}

// deadResult synthesizes the fast-fail reply for a span whose shard is
// dead, without touching its queue.
func deadResult(index, idx int) shardResult {
	return shardResult{
		idx: idx,
		err: fmt.Errorf("pcmserve: shard %d is dead: %w", index, ErrShardUnavailable),
	}
}

// dispatch splits the byte range [off, off+len(p)) into per-shard spans
// and admits them per class, then waits for every span. Spans owned by
// a dead shard fail fast with ErrShardUnavailable while the rest are
// served; spans refused by admission fail with ErrOverloaded (or the
// context's verdict) without touching the queue. A full queue still
// blocks legacy requests — backpressure propagates to the connection
// reader and ultimately to the client — while classed requests shed
// instead. It returns the number of contiguous bytes processed from
// the start of p and the first error in address order. A nonzero trace
// assembles the span details into a Trace observed by the trace log.
func (g *Shards) dispatch(op uint8, p []byte, off int64, meta opMeta) (int, error) {
	t0 := time.Now()
	var spanArr [inlineSpans]span
	spans := g.splitSpans(spanArr[:0], off, len(p))
	var resultArr [inlineSpans]shardResult
	var results []shardResult
	var done chan shardResult
	pooled := len(spans) <= inlineSpans
	if pooled {
		results = resultArr[:len(spans)]
		done = donePool.Get().(chan shardResult)
	} else {
		results = make([]shardResult, len(spans))
		done = make(chan shardResult, len(spans))
	}
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		if pooled {
			donePool.Put(done) // nothing was enqueued on it
		}
		return 0, ErrClosed
	}
	for i, sp := range spans {
		s := g.shards[sp.shard]
		if s.healthState() == Dead {
			done <- deadResult(s.index, i)
			continue
		}
		req := shardReq{
			op: op, off: sp.localOff, buf: p[sp.pos : sp.pos+sp.n], idx: i,
			trace: meta.trace, enq: t0, deadline: meta.deadline,
			scrubSeq0: s.scrubSeq.Load(),
			done:      done,
		}
		if err := s.admit(req, meta); err != nil {
			done <- shardResult{idx: i, err: err}
		}
	}
	g.mu.RUnlock()

	// Reassemble: spans complete out of order; file each result under
	// its span index, then report the contiguous prefix and the first
	// error in address order.
	for range spans {
		r := <-done
		results[r.idx] = r
	}
	if pooled {
		donePool.Put(done) // every enqueued span has answered
	}
	n := 0
	var firstErr error
	for _, r := range results {
		if firstErr == nil {
			n += r.n
			if r.err != nil {
				firstErr = r.err
			}
		}
	}
	g.observeTrace(meta.trace, op, off, len(p), t0, spans, results)
	return n, firstErr
}

// observeTrace assembles one request's span records and hands them to
// the trace log.
func (g *Shards) observeTrace(trace uint64, op uint8, off int64, n int, t0 time.Time, spans []span, results []shardResult) {
	if trace == 0 {
		return
	}
	t := obs.Trace{
		ID:     trace,
		Op:     opName(op),
		Offset: off,
		Bytes:  n,
		Start:  t0,
		Total:  time.Since(t0),
		Spans:  make([]obs.Span, 0, len(spans)),
	}
	for i, sp := range spans {
		r := results[i]
		errClass := ""
		if r.err != nil {
			errClass = Classify(r.err).String()
		}
		t.Spans = append(t.Spans, obs.Span{
			Shard:    int(sp.shard),
			Wait:     r.wait,
			Service:  r.service,
			ScrubOps: r.scrubs,
			Err:      errClass,
		})
	}
	g.obs.traces.Observe(t)
}

// ReadAt implements io.ReaderAt over the combined byte space with the
// same EOF semantics as device.Device: reads past the end return the
// available prefix and io.EOF.
func (g *Shards) ReadAt(p []byte, off int64) (int, error) {
	return g.readAtMeta(opMeta{}, p, off)
}

// ReadAtCtx is ReadAt with a context: a read blocked on a full shard
// queue abandons the wait with a typed error when ctx dies, instead of
// blocking forever.
func (g *Shards) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return g.readAtMeta(opMeta{ctx: ctx}, p, off)
}

// readAtTraced is ReadAt carrying the request's trace ID into the
// shard queues and span records.
func (g *Shards) readAtTraced(trace uint64, p []byte, off int64) (int, error) {
	return g.readAtMeta(opMeta{trace: trace}, p, off)
}

// readAtMeta is the admission-aware read entry point.
func (g *Shards) readAtMeta(meta opMeta, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pcmserve: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= g.size {
		return 0, io.EOF
	}
	eof := false
	if off+int64(len(p)) > g.size {
		p = p[:g.size-off]
		eof = true
	}
	n, err := g.dispatch(OpRead, p, off, meta)
	if err == nil && eof {
		err = io.EOF
	}
	return n, err
}

// WriteAt implements io.WriterAt. Writes beyond the device size are
// rejected whole, matching device.Device.
func (g *Shards) WriteAt(p []byte, off int64) (int, error) {
	return g.writeAtMeta(opMeta{}, p, off)
}

// WriteAtCtx is WriteAt with a context: a write blocked on a full
// shard queue abandons the wait with a typed error when ctx dies.
func (g *Shards) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return g.writeAtMeta(opMeta{ctx: ctx}, p, off)
}

// writeAtTraced is WriteAt carrying the request's trace ID.
func (g *Shards) writeAtTraced(trace uint64, p []byte, off int64) (int, error) {
	return g.writeAtMeta(opMeta{trace: trace}, p, off)
}

// writeAtMeta is the admission-aware write entry point.
func (g *Shards) writeAtMeta(meta opMeta, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pcmserve: negative offset")
	}
	if off+int64(len(p)) > g.size {
		return 0, fmt.Errorf("pcmserve: write [%d, %d) exceeds size %d", off, off+int64(len(p)), g.size)
	}
	if len(p) == 0 {
		return 0, nil
	}
	return g.dispatch(OpWrite, p, off, meta)
}

// Advance moves simulated time forward by dt seconds on every live
// shard, running any refresh work that falls due. It waits for all
// shards; a dead shard contributes an ErrShardUnavailable.
func (g *Shards) Advance(dt float64) error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrClosed
	}
	done := make(chan shardResult, len(g.shards))
	enq := time.Now()
	for _, s := range g.shards {
		if s.healthState() == Dead {
			done <- deadResult(s.index, 0)
			continue
		}
		s.ch <- shardReq{op: OpAdvance, dt: dt, enq: enq, done: done}
	}
	g.mu.RUnlock()
	var first error
	for range g.shards {
		if r := <-done; r.err != nil && first == nil {
			first = r.err
		}
	}
	return first
}

// Snapshot captures per-shard counters, health, queue gauges, device
// spare-pool occupancy, and latency histograms. Safe to call
// concurrently with traffic.
func (g *Shards) Snapshot() []ShardStats {
	bounds := HistBucketBoundsUs()
	out := make([]ShardStats, len(g.shards))
	for i, s := range g.shards {
		out[i] = ShardStats{
			Shard:                 i,
			Device:                s.dev.Name(),
			Health:                s.healthState().String(),
			Reads:                 s.reads.Value(),
			Writes:                s.writes.Value(),
			Advances:              s.advances.Value(),
			Errors:                s.errCount.Value(),
			Panics:                s.panics.Load(),
			Restarts:              s.restarts.Load(),
			QueueDepth:            len(s.ch),
			QueueCap:              cap(s.ch),
			SpareBlocksLeft:       int(s.spareLeft.Load()),
			BlocksRemapped:        int(s.blocksRemapped.Load()),
			LatencyBucketBoundsUs: bounds,
			ReadLatencyUs:         s.readLat.Counts(),
			WriteLatencyUs:        s.writeLat.Counts(),
		}
	}
	return out
}

// IntegrityStats aggregates the BCH layer's counters across shards
// (the zero value when integrity protection is disabled).
func (g *Shards) IntegrityStats() IntegrityStats {
	var st IntegrityStats
	for _, s := range g.shards {
		if s.integ == nil {
			return IntegrityStats{}
		}
		st.Enabled = true
		st.Code = fmt.Sprintf("bch%d+p", s.integ.code.T())
		st.CorrectedBits += s.integ.correctedBits.Value()
		st.ReadRepairs += s.integ.readRepairs.Value()
		st.Uncorrectable += s.integ.uncorrectable.Value()
		st.Spared += s.integ.spared.Value()
		st.Escalated += s.integ.escalated.Value()
	}
	return st
}

// OverloadStats snapshots the classed-admission counters.
func (g *Shards) OverloadStats() OverloadStats {
	peak := 0.0
	for _, s := range g.shards {
		if f := float64(len(s.ch)) / float64(cap(s.ch)); f > peak {
			peak = f
		}
	}
	return OverloadStats{
		ShedBackground:  g.adm.shedBg.Value(),
		ShedForeground:  g.adm.shedFg.Value(),
		ExpiredDequeued: g.adm.expired.Value(),
		QueuePressure:   peak,
	}
}

// ScrubStats returns the scrubber's counters (the zero value when
// scrubbing is disabled).
func (g *Shards) ScrubStats() ScrubStats {
	if g.scrub == nil {
		return ScrubStats{}
	}
	return g.scrub.snapshot()
}
