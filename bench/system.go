package main

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/pcmcluster"
	"repro/internal/pcmlive"
	"repro/internal/pcmserve"
)

// Sizes are part of the workload definitions (bench/README.md).
const (
	serveShards        = 4
	liveBlocksPerShard = 4096
	classicPerShard    = 512
	nodeBlocks         = 4096 // device blocks on each one-shard cluster node
	clusterBlocks      = 3072 // replicated 64 B blocks; fits an 80 B-slot node
	refreshIntervalSim = 1020 // the paper's 4LC refresh interval, sim seconds
	writeBudget        = 40e6 // the paper's 40 MB/s, wall bytes per second
	refreshDemand      = 1e6  // wall bytes per second refresh asks for, per system
)

// workload is one served system and the reason it is measured.
type workload struct {
	name  string
	why   string
	build func(seed uint64, callers int) (*system, error)
	// prefillPasses is how many times set-up writes the whole working
	// set, chosen so that setup_s is at least a second on every
	// workload and a timer tick or a scheduler hiccup is a small share.
	prefillPasses int
	// nominalStored is Cluster.StorageOverhead's payload-only figure,
	// printed beside the measured stored_bytes_per_user_byte.
	nominalStored float64
}

var workloads = []workload{
	{
		name: "serve_live",
		why:  "pcmserve over loopback on live 4LC shards: the device is ~2 us of a ~27 us op, so wire, framing and shard-queue changes show here and device-stack changes must not",
		build: func(seed uint64, callers int) (*system, error) {
			return buildServe(liveShards(seed, serveShards, liveBlocksPerShard, refreshDemand), callers)
		},
		prefillPasses: 5,
		nominalStored: 1,
	},
	{
		name: "serve_classic",
		why:  "same server on cell-level 3LC shards with BCH-1: the device does most of the work, so device, core and bch changes show here and wire changes at about a quarter strength",
		build: func(seed uint64, callers int) (*system, error) {
			return buildServe(classicShards(seed), callers)
		},
		prefillPasses: 1,
		nominalStored: 1,
	},
	{
		name: "cluster_rf3",
		why:  "pcmcluster rf:3 W=R=2 over three live nodes: quorum fan-out, winner election and three wire paths per op; a quorum-engine change shows here and never on serve_*",
		build: func(seed uint64, callers int) (*system, error) {
			return buildCluster(seed, 3, pcmcluster.Config{ReplicationFactor: 3, WriteQuorum: 2, ReadQuorum: 2}, callers)
		},
		prefillPasses: 5,
		nominalStored: 3,
	},
	{
		name: "cluster_rs42",
		why:  "pcmcluster rs:4+2 over six live nodes: ecstripe encode per write, hedged systematic reads and 33 B fragment slots; a coded-path change shows here and must leave cluster_rf3 flat",
		build: func(seed uint64, callers int) (*system, error) {
			return buildCluster(seed, 6, pcmcluster.Config{Coding: "rs:4+2"}, callers)
		},
		prefillPasses: 2,
		nominalStored: 1.5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// liveShards is drift-faithful 4LCo shards whose refresh asks for a
// fixed demand of wall write bandwidth out of the 40 MB/s budget.
func liveShards(seed uint64, shards, blocksPerShard int, demand float64) pcmserve.ShardsConfig {
	return pcmserve.ShardsConfig{
		Shards: shards,
		Device: device.Config{Blocks: blocksPerShard, Seed: seed},
		Live: &pcmserve.LiveConfig{
			Levels:                 4,
			RefreshIntervalSeconds: refreshIntervalSim,
			WriteBudgetBytesPerSec: writeBudget,
			TimeScale:              pcmlive.RecommendedTimeScale(refreshIntervalSim, blocksPerShard, shards, demand),
		},
	}
}

// classicShards is the cell-level 3LC stack with BCH-1.
func classicShards(seed uint64) pcmserve.ShardsConfig {
	return pcmserve.ShardsConfig{
		Shards: serveShards,
		Device: device.Config{Kind: device.ThreeLC, Blocks: classicPerShard, Seed: seed, DisableWearout: true},
	}
}

// countingDevice adds up the bytes the serving stack hands a shard
// device to store; it is what stored_bytes_per_user_byte divides.
type countingDevice struct {
	pcmserve.ShardDevice
	written *atomic.Int64
}

func (d countingDevice) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.ShardDevice.WriteAt(p, off)
	d.written.Add(int64(n))
	return n, err
}

// node is one in-process pcmserve server on a loopback port.
type node struct {
	shards *pcmserve.Shards
	srv    *pcmserve.Server
	addr   string
	served chan struct{}
}

func startNode(cfg pcmserve.ShardsConfig, written *atomic.Int64) (*node, error) {
	cfg.WrapDevice = func(_ int, dev pcmserve.ShardDevice) pcmserve.ShardDevice {
		return countingDevice{dev, written}
	}
	shards, err := pcmserve.NewShards(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shards.Close()
		return nil, err
	}
	n := &node{
		shards: shards,
		srv:    pcmserve.NewServer(shards, pcmserve.ServerConfig{}),
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns ErrServerClosed at stop
	}()
	return n, nil
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a conn still open at the timeout is force-closed
	<-n.served
	n.shards.Close()
}

// system is one built workload: a target per caller, the working set,
// and everything close has to stop.
type system struct {
	targets []target
	blocks  int64
	nodes   []*node
	clients []*pcmserve.Client
	cluster *pcmcluster.Cluster
	written atomic.Int64
}

func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, n := range s.nodes {
		n.stop()
	}
}

// uncorrectable sums drift-induced data loss over the live nodes; the
// refresh scheduler exists to keep it at zero.
func (s *system) uncorrectable() uint64 {
	var n uint64
	for _, nd := range s.nodes {
		n += nd.shards.LiveStats().UncorrectableReads
	}
	return n
}

// buildServe starts one server and dials one connection per caller.
func buildServe(cfg pcmserve.ShardsConfig, callers int) (*system, error) {
	s := &system{}
	n, err := startNode(cfg, &s.written)
	if err != nil {
		return nil, err
	}
	s.nodes = []*node{n}
	s.blocks = n.shards.Size() / blockBytes
	for i := 0; i < callers; i++ {
		c, err := pcmserve.Dial(n.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		s.targets = append(s.targets, rwTarget{c, c})
	}
	return s, nil
}

// buildCluster starts the nodes and one Cluster over them; the callers
// share it, and through it one pipelined connection per node, the way
// cmd/pcmcluster's loadgen does. cfg carries the redundancy scheme.
func buildCluster(seed uint64, nodes int, cfg pcmcluster.Config, callers int) (*system, error) {
	s := &system{blocks: clusterBlocks}
	for i := 0; i < nodes; i++ {
		n, err := startNode(liveShards(seed+uint64(i)*1000, 1, nodeBlocks, refreshDemand/float64(nodes)), &s.written)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		cfg.Nodes = append(cfg.Nodes, n.addr)
	}
	cfg.Blocks = clusterBlocks
	cfg.Seed = seed
	cfg.AntiEntropyInterval = 0 // steady-state foreground traffic only
	c, err := pcmcluster.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.cluster = c
	for i := 0; i < callers; i++ {
		s.targets = append(s.targets, clusterTarget{c})
	}
	return s, nil
}

// rwTarget adapts anything byte-addressable (a device, Shards, a
// Client) to 64 B block ops.
type rwTarget struct {
	r io.ReaderAt
	w io.WriterAt
}

func (t rwTarget) read(blk int64, buf []byte) ([]byte, error) {
	_, err := t.r.ReadAt(buf, blk*blockBytes)
	return buf, err
}

func (t rwTarget) write(blk int64, data []byte) error {
	_, err := t.w.WriteAt(data, blk*blockBytes)
	return err
}

type clusterTarget struct{ c *pcmcluster.Cluster }

func (t clusterTarget) read(blk int64, _ []byte) ([]byte, error) {
	return t.c.ReadBlock(context.Background(), blk)
}

func (t clusterTarget) write(blk int64, data []byte) error {
	return t.c.WriteBlock(context.Background(), blk, data)
}

// memTarget is the harness's own floor: a block copy and nothing else.
type memTarget struct{ mem []byte }

func (t memTarget) read(blk int64, buf []byte) ([]byte, error) {
	copy(buf, t.mem[blk*blockBytes:])
	return buf, nil
}

func (t memTarget) write(blk int64, data []byte) error {
	copy(t.mem[blk*blockBytes:(blk+1)*blockBytes], data)
	return nil
}

// splitRange gives caller i of k its disjoint share of n blocks.
func splitRange(n int64, i, k int) (base, size int64) {
	base = n * int64(i) / int64(k)
	return base, n*int64(i+1)/int64(k) - base
}

// newCallers gives every target of the system its caller and its
// share of the working set; callers draw from decorrelated streams of
// the one seed.
func newCallers(s *system, seed uint64) []*caller {
	cs := make([]*caller, len(s.targets))
	for i, t := range s.targets {
		base, size := splitRange(s.blocks, i, len(s.targets))
		cs[i] = newCaller(t, seed+uint64(i)*0x9e3779b97f4a7c15, base, size)
	}
	return cs
}
