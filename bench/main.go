// Command bench is the repository's benchmark: four closed-loop
// serving workloads measured end to end, and one traced pass that
// times the same seeded op sequence against each layer's public entry
// point. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed      uint64
	workloads []workload
	repeats   int
	measure   time.Duration // per repeat, loaded plus unloaded windows; a rung gets three tenths
	endToEnd  bool
	traced    bool
	callers   int
	traceFile string
	log       io.Writer
	began     time.Time
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// rungTime is how long each rung of the traced pass runs.
func (c *config) rungTime() time.Duration { return c.measure * 3 / 10 }

// results is everything one invocation measured.
type results struct {
	e2e    []*e2eResult // one repeat each when only the traced pass was asked for
	ladder *ladder      // nil when only the untraced runs ran
}

func main() {
	var (
		seed      = flag.Uint64("seed", 20130817, "seed of the generated op sequence")
		names     = flag.String("workload", "", "comma-separated subset of workloads (default all)")
		repeats   = flag.Int("repeats", 3, "fresh-process repeats per workload; metrics are medians over them")
		measure   = flag.Duration("measure", 10*time.Second, "measured time per repeat, half under every caller and half under one; a traced rung gets three tenths of it")
		seconds   = flag.Float64("seconds", 0, "total measured seconds per workload; sets -measure to seconds/repeats")
		trace     = flag.String("trace", "", "0: untraced end-to-end runs only; 1: traced per-layer pass only; default both")
		out       = flag.String("out", "", "also write every result to this JSON file")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and fail if any metric differs by more than its bound")
	)
	flag.Parse()
	cfg := &config{
		began:     time.Now(),
		seed:      *seed,
		repeats:   *repeats,
		measure:   *measure,
		endToEnd:  *trace != "1",
		traced:    *trace != "0",
		callers:   min(2, runtime.NumCPU()),
		traceFile: "out/trace.json",
		log:       os.Stdout,
	}
	if err := cfg.parse(*names, *seconds, *trace, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		if err := runChild(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.logf("bench: seed %d, %d callers, %d repeats x %v, %s, %d cpus, %s", cfg.seed, cfg.callers,
		cfg.repeats, cfg.measure, runtime.Version(), runtime.NumCPU(), cpuModel())

	var err error
	if *selfcheck {
		err = runSelfcheck(cfg)
	} else {
		err = runOnce(cfg, *out, *trace != "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (c *config) parse(names string, seconds float64, trace string, extra []string) error {
	switch {
	case len(extra) > 0:
		return fmt.Errorf("unexpected argument %q", extra[0])
	case trace != "" && trace != "0" && trace != "1":
		return fmt.Errorf("-trace takes 0 or 1, got %q", trace)
	case c.repeats < 1:
		return fmt.Errorf("-repeats must be at least 1, got %d", c.repeats)
	case seconds < 0:
		return fmt.Errorf("-seconds must not be negative, got %g", seconds)
	}
	if seconds > 0 {
		c.measure = time.Duration(seconds / float64(c.repeats) * float64(time.Second))
	}
	if c.measure < 10*time.Millisecond {
		return fmt.Errorf("-measure must be at least 10ms, got %v", c.measure)
	}
	c.workloads = workloads
	if names != "" {
		c.workloads = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			c.workloads = append(c.workloads, w)
		}
	}
	return nil
}

// run measures what cfg selects. A traced-only invocation still runs
// each workload once end to end: tail.* and the ladder-to-end-to-end
// ratio are taken from it.
func run(cfg *config) (*results, error) {
	res := &results{}
	e2eCfg := *cfg
	if !cfg.endToEnd {
		e2eCfg.repeats = 1
	}
	var err error
	if res.e2e, err = runEndToEnd(&e2eCfg); err != nil {
		return nil, err
	}
	if cfg.traced {
		if res.ladder, err = runLadder(cfg); err != nil {
			return nil, err
		}
		if err := res.ladder.writeTrace(cfg.traceFile); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// perLayerValues returns every per-layer metric as seen from one
// workload: the ladder's, that workload's tail, and its top rung over
// its end-to-end read median.
func (r *results) perLayerValues(e *e2eResult) metricValues {
	vs := metricValues{
		"tail.p99_us":  e.p99Us,
		"tail.p999_us": e.p999Us,
		"tail.samples": e.samples,
	}
	for k, v := range r.ladder.values {
		vs[k] = v
	}
	top := r.ladder.find(topRung(e.workload.name))
	vs["harness.ladder_top_vs_e2e_ratio"] = top.readNs / 1e3 / e.values["read_p50_us"]
	return vs
}

// check applies the correctness gate to everything measured.
func (r *results) check() (attempted, failed uint64, err error) {
	var problems []string
	for _, e := range r.e2e {
		a, f, wrong, lost := e.totals()
		attempted, failed = attempted+a, failed+f
		if wrong > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d reads returned bytes other than the last acknowledged write", e.workload.name, wrong))
		}
		if lost > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d uncorrectable reads on live nodes", e.workload.name, lost))
		}
	}
	if l := r.ladder; l != nil {
		attempted, failed = attempted+l.attempted, failed+l.failed
		if l.wrong > 0 {
			problems = append(problems, fmt.Sprintf("traced pass: %d reads returned wrong bytes", l.wrong))
		}
		if n := l.values["pcmlive.uncorrectable_reads"]; n > 0 {
			problems = append(problems, fmt.Sprintf("traced pass: pcmlive.uncorrectable_reads = %g", n))
		}
		// A whole run's stray runtime allocations over millions of ops
		// read as ~1e-6; anything near one per op is the harness's own.
		if n := l.values["harness.allocs_per_op"]; n > 0.01 {
			problems = append(problems, fmt.Sprintf("traced pass: harness.allocs_per_op = %g, the harness must not allocate per op", n))
		}
	}
	if len(problems) > 0 {
		return attempted, failed, fmt.Errorf("correctness gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return attempted, failed, nil
}

// runOnce measures, prints every metric by name and unit and applies
// the correctness gate. With driverLine set and one workload selected
// it ends with the one-line JSON object the benchmark driver reads.
func runOnce(cfg *config, outFile string, driverLine bool) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	res.print(cfg)
	attempted, failed, gateErr := res.check()
	if outFile != "" {
		if err := res.writeJSON(cfg, outFile); err != nil {
			return err
		}
	}
	cfg.logf("bench: total wall time %.1f s", time.Since(cfg.began).Seconds())
	if gateErr != nil {
		return gateErr
	}
	if driverLine && len(cfg.workloads) == 1 {
		specs, values := endToEnd, res.e2e[0].values
		if cfg.traced {
			specs, values = perLayer, res.perLayerValues(res.e2e[0])
		}
		return printDriverLine(os.Stdout, specs, values, attempted, failed)
	}
	return nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, specs []metricSpec, values metricValues, attempted, failed uint64) error {
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted uint64                  `json:"attempted"`
		Failed    uint64                  `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{true, attempted, failed, map[string]driverMetric{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", m.Name)
		}
		line.Metrics[m.Name] = driverMetric{v, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

func (r *results) print(cfg *config) {
	if cfg.endToEnd {
		cfg.logf("\nend to end (median of %d repeats; tracing off)", cfg.repeats)
		for _, e := range r.e2e {
			attempted, failed, _, _ := e.totals()
			cfg.logf("%s: ops_attempted %d, ops_failed %d, nominal stored/user %.2f", e.workload.name, attempted, failed, e.workload.nominalStored)
			for _, m := range endToEnd {
				per := make([]string, len(e.repeats))
				for i, rep := range e.repeats {
					per[i] = fmt.Sprintf("%.6g", rep.Values[m.Name])
				}
				cfg.logf("  %-28s %14.6g %-6s [%s]", m.Name, e.values[m.Name], m.Unit, strings.Join(per, " "))
			}
		}
	}
	if r.ladder == nil {
		return
	}
	cfg.logf("\nper layer (traced pass, one caller, %v per rung; spans in %s)", cfg.rungTime(), cfg.traceFile)
	for _, m := range perLayer {
		if v, ok := r.ladder.values[m.Name]; ok {
			cfg.logf("  %-34s %14.6g %s", m.Name, v, m.Unit)
		}
	}
	for _, e := range r.e2e {
		vs := r.perLayerValues(e)
		cfg.logf("%s: tail.p99_us %.1f, tail.p999_us %.1f (tail.samples %.0f), harness.ladder_top_vs_e2e_ratio %.3f",
			e.workload.name, vs["tail.p99_us"], vs["tail.p999_us"], vs["tail.samples"], vs["harness.ladder_top_vs_e2e_ratio"])
		for _, kind := range []string{"read", "write"} {
			chain := chains[e.workload.name]
			parts := []string{fmt.Sprintf("%s %.0f", chain[0], vs[chain[0]+"."+kind+"_ns"])}
			for _, name := range chain[1:] {
				parts = append(parts, fmt.Sprintf("%s %.0f", name, vs[name+".self_"+kind+"_ns"]))
			}
			cfg.logf("  %-5s budget, ns: %s = %.0f", kind, strings.Join(parts, " + "), vs[topRung(e.workload.name)+"."+kind+"_ns"])
		}
	}
}

// writeJSON writes every measured value, per-repeat values included.
func (r *results) writeJSON(cfg *config, path string) error {
	type workloadOut struct {
		EndToEnd  metricValues         `json:"end_to_end,omitempty"`
		Repeats   map[string][]float64 `json:"repeats,omitempty"`
		PerLayer  metricValues         `json:"per_layer,omitempty"`
		Attempted uint64               `json:"ops_attempted"`
		Failed    uint64               `json:"ops_failed"`
	}
	doc := struct {
		Seed      uint64                 `json:"seed"`
		Callers   int                    `json:"callers"`
		Repeats   int                    `json:"repeats"`
		MeasureS  float64                `json:"measure_s"`
		Go        string                 `json:"go"`
		CPUs      int                    `json:"cpus"`
		CPUModel  string                 `json:"cpu_model"`
		Workloads map[string]workloadOut `json:"workloads"`
	}{cfg.seed, cfg.callers, cfg.repeats, cfg.measure.Seconds(), runtime.Version(), runtime.NumCPU(), cpuModel(), map[string]workloadOut{}}
	for _, e := range r.e2e {
		var o workloadOut
		o.Attempted, o.Failed, _, _ = e.totals()
		if cfg.endToEnd {
			o.EndToEnd = e.values
			o.Repeats = map[string][]float64{}
			for _, m := range endToEnd {
				for _, rep := range e.repeats {
					o.Repeats[m.Name] = append(o.Repeats[m.Name], rep.Values[m.Name])
				}
			}
		}
		if r.ladder != nil {
			o.PerLayer = r.perLayerValues(e)
		}
		doc.Workloads[e.workload.name] = o
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSelfcheck runs the end-to-end set twice on this binary and fails
// if any metric's two medians differ by more than its bound.
func runSelfcheck(cfg *config) error {
	cfg.endToEnd, cfg.traced = true, false
	var sets [2]*results
	for i := range sets {
		cfg.logf("\nselfcheck: set %d of 2", i+1)
		res, err := run(cfg)
		if err != nil {
			return err
		}
		if _, _, err := res.check(); err != nil {
			return err
		}
		sets[i] = res
	}
	cfg.logf("\n%-14s %-28s %14s %14s %9s %7s", "workload", "metric", "first", "second", "diff", "bound")
	var over []string
	for i, e := range sets[0].e2e {
		for _, m := range endToEnd {
			a, b := e.values[m.Name], sets[1].e2e[i].values[m.Name]
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if diff > m.Bound {
				verdict = "  OVER"
				over = append(over, e.workload.name+"/"+m.Name)
			}
			cfg.logf("%-14s %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s", e.workload.name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	cfg.logf("bench: total wall time %.1f s", time.Since(cfg.began).Seconds())
	if len(over) > 0 {
		return fmt.Errorf("selfcheck: two sets of the same code differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

// cpuModel names the processor for the ledger rows in README.md.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown cpu"
}
