package main

// metricSpec is one row of BENCHMARK.json. The tables below are the
// source the harness prints units and selfcheck bounds from; the smoke
// test asserts BENCHMARK.json says the same, so the two cannot drift.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the served stack sees, per workload.
// A bound is the share by which the metric may worsen before a change
// counts as a regression. The timing metrics carry 0.25: on the two
// shared cores this was sized on, ten runs of identical code spread
// (interquartile range over median) 2-9 % in a calm quarter of an hour
// and up to 17 % in a busy one, and a bound has to sit well above that
// to mean anything (README.md, "Noise").
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"within_1ms_ratio", "ratio", "higher", 0.02},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced pass: one group per module, bottom rung first.
var perLayer = []metricSpec{
	{Name: "codec.bch1_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.bch1_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.bch10_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.bch10_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.rs42_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.rs42_reconstruct_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.gf256_muladd_ns_per_kb", Unit: "ns/KB", Better: "lower"},

	{Name: "device.read_ns", Unit: "ns", Better: "lower"},
	{Name: "device.write_ns", Unit: "ns", Better: "lower"},
	{Name: "device.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "pcmlive.read_ns", Unit: "ns", Better: "lower"},
	{Name: "pcmlive.write_ns", Unit: "ns", Better: "lower"},
	{Name: "pcmlive.refresh_ns", Unit: "ns", Better: "lower"},
	{Name: "pcmlive.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "pcmlive.refresh_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pcmlive.skipped_budget", Unit: "count", Better: "lower"},
	{Name: "pcmlive.deadline_misses", Unit: "count", Better: "lower"},
	{Name: "pcmlive.uncorrectable_reads", Unit: "count", Better: "lower"},

	{Name: "shards.read_ns", Unit: "ns", Better: "lower"},
	{Name: "shards.write_ns", Unit: "ns", Better: "lower"},
	{Name: "shards.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "shards.self_write_ns", Unit: "ns", Better: "lower"},
	{Name: "shards.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "shards.shed_background", Unit: "count", Better: "lower"},
	{Name: "shards.shed_foreground", Unit: "count", Better: "lower"},

	{Name: "wire.read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.self_write_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "shards_classic.read_ns", Unit: "ns", Better: "lower"},
	{Name: "shards_classic.write_ns", Unit: "ns", Better: "lower"},
	{Name: "shards_classic.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "shards_classic.self_write_ns", Unit: "ns", Better: "lower"},
	{Name: "wire_classic.read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire_classic.write_ns", Unit: "ns", Better: "lower"},
	{Name: "wire_classic.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire_classic.self_write_ns", Unit: "ns", Better: "lower"},

	{Name: "quorum.read_ns", Unit: "ns", Better: "lower"},
	{Name: "quorum.write_ns", Unit: "ns", Better: "lower"},
	{Name: "quorum.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "quorum.self_write_ns", Unit: "ns", Better: "lower"},
	{Name: "quorum.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "quorum.read_repairs", Unit: "count", Better: "lower"},
	{Name: "quorum.hints_queued", Unit: "count", Better: "lower"},
	{Name: "quorum.slow_quorums", Unit: "count", Better: "lower"},

	{Name: "coded.read_ns", Unit: "ns", Better: "lower"},
	{Name: "coded.write_ns", Unit: "ns", Better: "lower"},
	{Name: "coded.self_read_ns", Unit: "ns", Better: "lower"},
	{Name: "coded.self_write_ns", Unit: "ns", Better: "lower"},
	{Name: "coded.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "coded.hedged_per_kop", Unit: "count", Better: "lower"},
	{Name: "coded.reconstructions_per_kop", Unit: "count", Better: "lower"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "tail.p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.p999_us", Unit: "us", Better: "lower"},
	{Name: "tail.samples", Unit: "count", Better: "higher"},

	{Name: "harness.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "harness.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "harness.ladder_top_vs_e2e_ratio", Unit: "ratio", Better: "higher"},
}

// metricValues maps a metric name to its measured value.
type metricValues map[string]float64
