package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// A repeat's measured time is cut into cycles of two windows: a loaded
// one, every caller at once, and an unloaded one, one caller alone.
// Throughput, CPU, allocations, the 1 ms ratio and the tail are read
// off the loaded windows, the read and write medians off the unloaded
// ones, and each metric is the median over its windows. On two shared
// cores a few-second phase of two callers settles into one of two
// scheduling modes and its median moved 15-17 % from run to run; many
// short windows sample both modes in every run, and a caller alone has
// one mode only. Warm-up, every caller, is discarded.
const (
	cycleLen    = 600 * time.Millisecond
	warmupShare = 0.15
)

// repeat is one build-prefill-warm-measure cycle of one workload, run
// in a process of its own.
type repeat struct {
	Values    metricValues `json:"values"` // the nine end-to-end metrics
	P99Us     float64      `json:"p99_us"` // loaded phase, reads and writes together
	P999Us    float64      `json:"p999_us"`
	Loaded    uint64       `json:"loaded"` // verified ops behind the loaded-phase metrics
	Reads     uint64       `json:"reads"`  // samples behind read_p50_us
	Writes    uint64       `json:"writes"`
	Attempted uint64       `json:"attempted"`
	Failed    uint64       `json:"failed"`     // typed errors
	Wrong     uint64       `json:"wrong"`      // reads that returned other bytes than the last acknowledged write
	LostReads uint64       `json:"lost_reads"` // pcmlive uncorrectable reads on any node
}

// eachCaller runs f on every caller concurrently and returns the first
// error.
func eachCaller(cs []*caller, f func(*caller) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runFor drives every caller until d from now has passed.
func runFor(cs []*caller, d time.Duration) {
	end := time.Now().Add(d)
	_ = eachCaller(cs, func(c *caller) error { c.runUntil(end); return nil })
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runRepeat builds a fresh system, prefills the whole working set
// through the callers' own targets, forces a GC, warms up and then
// measures the loaded and the unloaded phase. Tracing inside the
// harness is off here: nothing but the preallocated histograms
// records.
func runRepeat(w workload, seed uint64, callers int, measure time.Duration) (*repeat, error) {
	t0 := time.Now()
	sys, err := w.build(seed, callers)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	defer sys.close()
	cs := newCallers(sys, seed)
	if err := eachCaller(cs, func(c *caller) error { return c.prefill(w.prefillPasses) }); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	setup := time.Since(t0)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heapMB := float64(ms0.HeapAlloc) / 1e6

	runFor(cs, time.Duration(float64(measure)*warmupShare))

	cycles := max(1, int((measure+cycleLen/2)/cycleLen))
	window := measure / time.Duration(2*cycles)
	r := &repeat{}
	var tail hist
	var opsPerS, cpuUs, readP50, writeP50 []float64
	var within, mallocs, loadedAttempted uint64
	solo := cs[:1]
	for i := 0; i < cycles; i++ {
		runtime.ReadMemStats(&ms0)
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, c := range cs {
			c.beginRecording(start)
		}
		runFor(cs, window)
		elapsed := time.Since(start)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		var ok uint64
		for _, c := range cs {
			tail.merge(&c.readH)
			tail.merge(&c.writeH)
			ok += c.readH.n + c.writeH.n
			loadedAttempted += c.attempted
			r.Failed += c.failed
			r.Wrong += c.wrong
			within += c.within
		}
		if ok == 0 {
			return nil, fmt.Errorf("%s: no op completed in a %v window", w.name, window)
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
		opsPerS = append(opsPerS, float64(ok)/elapsed.Seconds())
		cpuUs = append(cpuUs, float64((cpu1-cpu0).Microseconds())/float64(ok))

		solo[0].beginRecording(time.Now())
		runFor(solo, window)
		if solo[0].readH.n == 0 || solo[0].writeH.n == 0 {
			return nil, fmt.Errorf("%s: a %v window of one caller saw no read or no write", w.name, window)
		}
		readP50 = append(readP50, solo[0].readH.quantile(0.5)/1e3)
		writeP50 = append(writeP50, solo[0].writeH.quantile(0.5)/1e3)
		r.Reads += solo[0].readH.n
		r.Writes += solo[0].writeH.n
		r.Attempted += solo[0].attempted
		r.Failed += solo[0].failed
		r.Wrong += solo[0].wrong
	}
	r.Loaded = tail.n
	r.Attempted += loadedAttempted
	r.LostReads = sys.uncorrectable()

	var acked uint64
	for _, c := range cs {
		acked += c.acked
	}
	r.P99Us, r.P999Us = tail.quantile(0.99)/1e3, tail.quantile(0.999)/1e3
	r.Values = metricValues{
		"ops_per_s":                  median(opsPerS),
		"read_p50_us":                median(readP50),
		"write_p50_us":               median(writeP50),
		"within_1ms_ratio":           float64(within) / float64(loadedAttempted),
		"cpu_us_per_op":              median(cpuUs),
		"allocs_per_op":              float64(mallocs) / float64(r.Loaded),
		"live_heap_mb":               heapMB,
		"stored_bytes_per_user_byte": float64(sys.written.Load()) / float64(acked*blockBytes),
		"setup_s":                    setup.Seconds(),
	}
	return r, nil
}

// childEnv marks a process started to run one repeat and print it.
const childEnv = "PCMBENCH_REPEAT_CHILD"

// spawnRepeat runs one repeat in a fresh process of this same binary,
// so that every repeat pays the process-wide one-time costs (lazily
// built code tables, the classic stack's cached level mapping, heap
// growth) that a second repeat in one process would skip: setup_s and
// live_heap_mb are then a cold start's, and repeats are independent.
func spawnRepeat(cfg *config, w workload) (*repeat, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10), "-measure", cfg.measure.String())
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: repeat process: %w", w.name, err)
	}
	r := &repeat{}
	if err := json.Unmarshal(bytes.TrimSpace(out), r); err != nil {
		return nil, fmt.Errorf("%s: repeat process output: %w", w.name, err)
	}
	return r, nil
}

// runChild is the repeat process: one repeat, printed as JSON.
func runChild(cfg *config) error {
	if len(cfg.workloads) != 1 {
		return fmt.Errorf("a repeat process takes exactly one workload, got %d", len(cfg.workloads))
	}
	r, err := runRepeat(cfg.workloads[0], cfg.seed, cfg.callers, cfg.measure)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// e2eResult is a workload's repeats and the median of each metric.
type e2eResult struct {
	workload workload
	repeats  []*repeat
	values   metricValues
	p99Us    float64
	p999Us   float64
	samples  float64 // ops behind p99Us and p999Us, median over repeats
}

func (e *e2eResult) totals() (attempted, failed, wrong, lost uint64) {
	for _, r := range e.repeats {
		attempted += r.Attempted
		failed += r.Failed
		wrong += r.Wrong
		lost += r.LostReads
	}
	return
}

func (e *e2eResult) summarize() {
	pick := func(f func(*repeat) float64) float64 {
		vs := make([]float64, len(e.repeats))
		for i, r := range e.repeats {
			vs[i] = f(r)
		}
		return median(vs)
	}
	e.values = metricValues{}
	for _, m := range endToEnd {
		name := m.Name
		e.values[name] = pick(func(r *repeat) float64 { return r.Values[name] })
	}
	e.p99Us = pick(func(r *repeat) float64 { return r.P99Us })
	e.p999Us = pick(func(r *repeat) float64 { return r.P999Us })
	e.samples = pick(func(r *repeat) float64 { return float64(r.Loaded) })
}

// runEndToEnd measures every workload `repeats` times. Repeats are
// interleaved round-robin across workloads, so a neighbour's burst on
// the shared machine lands on different workloads rather than on all
// repeats of one.
func runEndToEnd(cfg *config) ([]*e2eResult, error) {
	results := make([]*e2eResult, len(cfg.workloads))
	for i, w := range cfg.workloads {
		results[i] = &e2eResult{workload: w}
	}
	for rep := 0; rep < cfg.repeats; rep++ {
		for _, e := range results {
			r, err := spawnRepeat(cfg, e.workload)
			if err != nil {
				return nil, err
			}
			e.repeats = append(e.repeats, r)
			cfg.logf("%-14s repeat %d/%d: %9.0f ops/s (n=%d)  read p50 %7.1f us (n=%d)  write p50 %7.1f us (n=%d)  setup %.3f s  failed %d/%d",
				e.workload.name, rep+1, cfg.repeats, r.Values["ops_per_s"], r.Loaded,
				r.Values["read_p50_us"], r.Reads, r.Values["write_p50_us"], r.Writes,
				r.Values["setup_s"], r.Failed, r.Attempted)
		}
	}
	for _, e := range results {
		e.summarize()
	}
	return results, nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
