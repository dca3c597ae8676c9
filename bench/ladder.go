package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bch"
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecstripe"
	"repro/internal/gf2"
	"repro/internal/pcmcluster"
	"repro/internal/pcmlive"
	"repro/internal/pcmserve"
)

// The traced pass replays the one seeded op sequence against each
// layer's public entry point in turn, a single caller per rung. The
// rungs form two chains, bottom first:
//
//	pcmlive < shards < wire < quorum < coded
//	device < shards_classic < wire_classic
//
// A rung's self time is its median minus the median of the rung below,
// so the self times of a chain add up to its top rung by construction.
// The rungs are separate passes joined by op id: a budget, not a
// causal trace.

// maxSpans bounds the spans a rung keeps (ops 0..maxSpans-1 of the
// sequence); its medians come from every op of the rung.
const maxSpans = 4096

// rung is the outcome of one layer's pass.
type rung struct {
	name, parent string
	readNs       float64 // medians
	writeNs      float64
	ops          uint64
	allocsPerOp  float64
	spans        []span
}

type ladder struct {
	values    metricValues // every per-layer metric that does not depend on an end-to-end run
	rungs     []*rung
	attempted uint64
	failed    uint64
	wrong     uint64
}

func (l *ladder) find(name string) *rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	return nil
}

// chains lists, bottom rung first, the rungs whose times add up to
// each workload's whole op; the last one is the workload's top rung.
var chains = map[string][]string{
	"serve_live":    {"pcmlive", "shards", "wire"},
	"serve_classic": {"device", "shards_classic", "wire_classic"},
	"cluster_rf3":   {"pcmlive", "shards", "wire", "quorum"},
	"cluster_rs42":  {"pcmlive", "shards", "wire", "quorum", "coded"},
}

func topRung(workload string) string {
	chain := chains[workload]
	return chain[len(chain)-1]
}

// runRung prefills the target's blocks, then replays the sequence from
// its start for d and records every op.
func (l *ladder) runRung(name, parent string, tgt target, blocks int64, seed uint64, d time.Duration) (*rung, error) {
	c := newCaller(tgt, seed, 0, blocks)
	if err := c.prefill(1); err != nil {
		return nil, fmt.Errorf("rung %s: %w", name, err)
	}
	// Prefill drew one payload per block, and rungs differ in blocks:
	// restart the stream so that op i is the same draw on every rung.
	c.r = rng(seed)
	c.spans = make([]span, 0, maxSpans)
	start := time.Now()
	c.beginRecording(start)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	c.runUntil(time.Now().Add(d))
	runtime.ReadMemStats(&ms1)

	ops := c.readH.n + c.writeH.n
	if ops == 0 {
		return nil, fmt.Errorf("rung %s: no op completed in %v", name, d)
	}
	r := &rung{
		name: name, parent: parent,
		readNs: c.readH.quantile(0.5), writeNs: c.writeH.quantile(0.5),
		ops:         ops,
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		spans:       c.spans,
	}
	l.rungs = append(l.rungs, r)
	l.attempted += c.attempted
	l.failed += c.failed
	l.wrong += c.wrong
	return r, nil
}

// timeBatches times f for d in batches and returns the median per-call
// ns. The clock costs about as much as the cheapest codec call, so
// calls are timed a batch at a time; the batch is sized from one probe
// call to last some tens of microseconds.
func timeBatches(d time.Duration, f func()) float64 {
	t0 := time.Now()
	f()
	batch := int(50*time.Microsecond/(time.Since(t0)+1)) + 1
	var h hist
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		h.record(time.Since(t0).Nanoseconds())
	}
	return h.quantile(0.5) / float64(batch)
}

// sink keeps codec results alive so the calls are not optimised away.
var sink int

// codecRungs times the codecs on the paper's block geometries.
func (l *ladder) codecRungs(seed uint64, d time.Duration) error {
	r := rng(seed)
	for _, c := range []struct {
		name       string
		t, msgBits int
	}{{"bch1", 1, 708}, {"bch10", 10, 512}} {
		code := bch.Must(10, c.t, c.msgBits)
		msg := bitvec.New(c.msgBits)
		for i := 0; i < c.msgBits; i++ {
			msg.Set(i, uint(r.next())&1)
		}
		parity := code.Encode(msg)
		l.values["codec."+c.name+"_encode_ns"] = timeBatches(d, func() { sink += code.Encode(msg).Len() })
		// Decode corrects in place, so the same bit is flipped again
		// before every call: one error per codeword, as a drifted cell.
		want := msg.Clone()
		l.values["codec."+c.name+"_decode_ns"] = timeBatches(d, func() {
			msg.Flip(17)
			sink += code.Decode(msg, parity).Corrected
		})
		if !msg.Equal(want) {
			return fmt.Errorf("codec %s: decode did not restore the message", c.name)
		}
	}

	codec, err := ecstripe.NewCodec(4, 2)
	if err != nil {
		return err
	}
	block := make([]byte, blockBytes)
	for i := range block {
		block[i] = byte(r.next())
	}
	data, err := codec.Split(block)
	if err != nil {
		return err
	}
	parity, err := codec.Encode(data)
	if err != nil {
		return err
	}
	l.values["codec.rs42_encode_ns"] = timeBatches(d, func() {
		p, _ := codec.Encode(data)
		sink += len(p)
	})
	// Two data fragments lost: the worst case rs:4+2 still reads.
	survivors := []ecstripe.Fragment{{Index: 2, Data: data[2]}, {Index: 3, Data: data[3]}, {Index: 4, Data: parity[0]}, {Index: 5, Data: parity[1]}}
	var rebuilt [][]byte
	l.values["codec.rs42_reconstruct_ns"] = timeBatches(d, func() {
		rebuilt, _ = codec.Reconstruct(survivors)
		sink += len(rebuilt)
	})
	for i, frag := range rebuilt {
		if string(frag) != string(data[i]) {
			return fmt.Errorf("codec rs42: fragment %d reconstructed wrong", i)
		}
	}

	f := gf2.GF256()
	src, dst := make([]byte, 1024), make([]byte, 1024)
	for i := range src {
		src[i] = byte(r.next())
	}
	l.values["codec.gf256_muladd_ns_per_kb"] = timeBatches(d, func() { f.MulAddSlice(dst, src, 0x53) })
	sink += int(dst[0])
	return nil
}

// runLadder runs every rung for d and derives the per-layer metrics
// that do not depend on an end-to-end run.
func runLadder(cfg *config) (*ladder, error) {
	l := &ladder{values: metricValues{}}
	seed, d := cfg.seed, cfg.rungTime()

	// harness: the cost of drawing, timing, verifying and recording.
	const memBlocks = 4096
	var ms0, ms1 runtime.MemStats
	hc := newCaller(memTarget{make([]byte, memBlocks*blockBytes)}, seed, 0, memBlocks)
	if err := hc.prefill(1); err != nil {
		return nil, err
	}
	hc.beginRecording(time.Now())
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	hc.runUntil(t0.Add(d / 4))
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	l.values["harness.ns_per_op"] = float64(elapsed.Nanoseconds()) / float64(hc.attempted)
	l.values["harness.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(hc.attempted)
	l.attempted += hc.attempted
	l.wrong += hc.wrong

	if err := l.codecRungs(seed, d/8); err != nil {
		return nil, err
	}

	// Classic chain: device < shards_classic < wire_classic.
	dev, err := device.New(device.Config{Kind: device.ThreeLC, Blocks: classicPerShard, Seed: seed, DisableWearout: true})
	if err != nil {
		return nil, err
	}
	devRung, err := l.runRung("device", "shards_classic", rwTarget{dev, dev}, classicPerShard, seed, d)
	if err != nil {
		return nil, err
	}
	l.values["device.read_ns"], l.values["device.write_ns"] = devRung.readNs, devRung.writeNs
	l.values["device.allocs_per_op"] = devRung.allocsPerOp
	if _, _, _, err := l.serveRungs("shards_classic", "wire_classic", "", devRung, classicShards(seed), cfg); err != nil {
		return nil, err
	}

	// Live chain: pcmlive < shards < wire < quorum < coded.
	liveRung, err := l.pcmliveRung(cfg)
	if err != nil {
		return nil, err
	}
	sr, wr, st, err := l.serveRungs("shards", "wire", "quorum", liveRung, liveShards(seed, serveShards, liveBlocksPerShard, refreshDemand), cfg)
	if err != nil {
		return nil, err
	}
	l.values["shards.allocs_per_op"], l.values["wire.allocs_per_op"] = sr.allocsPerOp, wr.allocsPerOp
	l.values["pcmlive.refresh_per_s"] = st.refreshPerS
	l.values["pcmlive.skipped_budget"] = float64(st.live.SkippedBudget)
	l.values["pcmlive.deadline_misses"] = float64(st.live.DeadlineMisses)
	l.values["pcmlive.uncorrectable_reads"] = float64(st.live.UncorrectableReads)
	l.values["shards.shed_background"] = float64(st.overload.ShedBackground)
	l.values["shards.shed_foreground"] = float64(st.overload.ShedForeground)
	return l, l.clusterRungs(cfg)
}

// pcmliveRung times a bare live device metered by the write budget,
// then its refresh path.
func (l *ladder) pcmliveRung(cfg *config) (*rung, error) {
	lcfg, err := pcmlive.ConfigForLevels(4)
	if err != nil {
		return nil, err
	}
	model, err := pcmlive.NewErrorModel(lcfg)
	if err != nil {
		return nil, err
	}
	dev, err := pcmlive.NewDevice(pcmlive.DeviceConfig{
		Blocks:    liveBlocksPerShard,
		Model:     model,
		Seed:      cfg.seed,
		TimeScale: pcmlive.RecommendedTimeScale(refreshIntervalSim, liveBlocksPerShard, 1, refreshDemand),
		Budget:    pcmlive.NewBudget(writeBudget, 0),
	})
	if err != nil {
		return nil, err
	}
	r, err := l.runRung("pcmlive", "shards", rwTarget{dev, dev}, liveBlocksPerShard, cfg.seed, cfg.rungTime())
	if err != nil {
		return nil, err
	}
	l.values["pcmlive.read_ns"], l.values["pcmlive.write_ns"] = r.readNs, r.writeNs
	l.values["pcmlive.allocs_per_op"] = r.allocsPerOp

	var h hist
	b := 0
	for end := time.Now().Add(cfg.rungTime() / 4); time.Now().Before(end); b = (b + 1) % liveBlocksPerShard {
		t0 := time.Now()
		if _, err := dev.RefreshBlock(b); err != nil {
			return nil, fmt.Errorf("rung pcmlive: refresh block %d: %w", b, err)
		}
		h.record(time.Since(t0).Nanoseconds())
	}
	l.values["pcmlive.refresh_ns"] = h.quantile(0.5)
	return r, nil
}

// serveStats is what the node under the shards and wire rungs counted
// while they ran.
type serveStats struct {
	refreshPerS float64
	live        pcmserve.LiveStats
	overload    pcmserve.OverloadStats
}

// serveRungs starts one pcmserve node and times its Shards in-process,
// then a Client over loopback to the same node. below is the device
// rung the shards rung's self time is taken against, wireParent the
// rung above the wire rung.
func (l *ladder) serveRungs(shardsName, wireName, wireParent string, below *rung, scfg pcmserve.ShardsConfig, cfg *config) (sr, wr *rung, st serveStats, err error) {
	sys, err := buildServe(scfg, 1)
	if err != nil {
		return nil, nil, st, err
	}
	defer sys.close()
	shards := sys.nodes[0].shards
	t0 := time.Now()
	live0 := shards.LiveStats()

	if sr, err = l.runRung(shardsName, wireName, rwTarget{shards, shards}, sys.blocks, cfg.seed, cfg.rungTime()); err != nil {
		return nil, nil, st, err
	}
	if wr, err = l.runRung(wireName, wireParent, sys.targets[0], sys.blocks, cfg.seed, cfg.rungTime()); err != nil {
		return nil, nil, st, err
	}
	l.setRung(sr, below)
	l.setRung(wr, sr)
	refreshed := func(s pcmserve.LiveStats) uint64 { return s.RefreshClean + s.RefreshCorrected + s.RefreshUncorrectable }
	st.live, st.overload = shards.LiveStats(), shards.OverloadStats()
	st.refreshPerS = float64(refreshed(st.live)-refreshed(live0)) / time.Since(t0).Seconds()
	return sr, wr, st, nil
}

// setRung publishes a rung's medians and its self time over the rung
// below it.
func (l *ladder) setRung(r, below *rung) {
	l.values[r.name+".read_ns"], l.values[r.name+".write_ns"] = r.readNs, r.writeNs
	l.values[r.name+".self_read_ns"] = r.readNs - below.readNs
	l.values[r.name+".self_write_ns"] = r.writeNs - below.writeNs
}

// clusterRungs times rf:3 with the trace plane at its default and
// switched off, then rs:4+2.
func (l *ladder) clusterRungs(cfg *config) error {
	rf3 := pcmcluster.Config{ReplicationFactor: 3, WriteQuorum: 2, ReadQuorum: 2}
	clusterRung := func(name, parent string, nodes int, ccfg pcmcluster.Config) (*rung, pcmcluster.ClusterStats, error) {
		sys, err := buildCluster(cfg.seed, nodes, ccfg, 1)
		if err != nil {
			return nil, pcmcluster.ClusterStats{}, err
		}
		defer sys.close()
		r, err := l.runRung(name, parent, sys.targets[0], sys.blocks, cfg.seed, cfg.rungTime())
		if err != nil {
			return nil, pcmcluster.ClusterStats{}, err
		}
		if lost := sys.uncorrectable(); lost > 0 {
			return nil, pcmcluster.ClusterStats{}, fmt.Errorf("rung %s: %d uncorrectable reads on the nodes", name, lost)
		}
		return r, sys.cluster.Stats(), nil
	}

	qr, qs, err := clusterRung("quorum", "coded", 3, rf3)
	if err != nil {
		return err
	}
	l.setRung(qr, l.find("wire"))
	l.values["quorum.allocs_per_op"] = qr.allocsPerOp
	l.values["quorum.read_repairs"] = float64(qs.ReadRepairs)
	l.values["quorum.hints_queued"] = float64(qs.HintsQueued)
	l.values["quorum.slow_quorums"] = float64(qs.SlowQuorums)

	untraced := rf3
	untraced.DisableTracing = true
	ur, _, err := clusterRung("quorum_untraced", "", 3, untraced)
	if err != nil {
		return err
	}
	l.values["obs.trace_overhead_ratio"] = (qr.readNs + qr.writeNs) / (ur.readNs + ur.writeNs)

	cr, cs, err := clusterRung("coded", "", 6, pcmcluster.Config{Coding: "rs:4+2"})
	if err != nil {
		return err
	}
	l.setRung(cr, qr)
	l.values["coded.allocs_per_op"] = cr.allocsPerOp
	l.values["coded.hedged_per_kop"] = float64(cs.ECHedgedFanouts) / float64(cr.ops) * 1e3
	l.values["coded.reconstructions_per_kop"] = float64(cs.ECReconstructions) / float64(cr.ops) * 1e3
	return nil
}

// traceSpan is one line of trace.json.
type traceSpan struct {
	Rung    string `json:"rung"`
	Parent  string `json:"parent,omitempty"`
	Op      uint32 `json:"op"`
	Kind    string `json:"kind"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// writeTrace writes the spans kept in memory during the pass: one per
// rung per op id, each naming the rung one up as its parent.
func (l *ladder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintln(w, "[")
	first := true
	for _, r := range l.rungs {
		for _, s := range r.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			kind := "read"
			if s.write {
				kind = "write"
			}
			if err := enc.Encode(traceSpan{r.name, r.parent, s.op, kind, s.startNs, s.durNs}); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
