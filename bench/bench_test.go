package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary: the
// end-to-end repeats re-execute os.Executable, which here is the test.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the harness has to agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSmoke runs every workload once and the traced pass at a fraction
// of the real durations and checks that what the harness emits is what
// BENCHMARK.json declares: every workload and metric exactly once, a
// finite value, the declared unit, nothing undeclared, no failed op.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the harness table:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness table:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	cfg := &config{
		seed:      20130817,
		workloads: workloads,
		repeats:   1,
		measure:   334 * time.Millisecond, // 200 ms loaded, 134 ms unloaded, 100 ms per rung
		endToEnd:  true,
		traced:    true,
		callers:   min(2, runtime.NumCPU()),
		traceFile: traceFile,
		log:       io.Discard,
		began:     time.Now(),
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, err := res.check()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || attempted == 0 {
		t.Fatalf("ops_failed = %d of %d attempted, want 0 of some", failed, attempted)
	}

	for _, e := range res.e2e {
		if a, f, _, _ := e.totals(); f != 0 || a == 0 {
			t.Errorf("%s: ops_failed = %d of %d", e.workload.name, f, a)
		}
		checkDriverLine(t, e.workload.name+" end_to_end", endToEnd, e.values)
		layer := res.perLayerValues(e)
		checkDriverLine(t, e.workload.name+" per_layer", perLayer, layer)

		// The chain's self times add up to its top rung by construction.
		for _, kind := range []string{"read", "write"} {
			chain := chains[e.workload.name]
			sum := layer[chain[0]+"."+kind+"_ns"]
			for _, name := range chain[1:] {
				sum += layer[name+".self_"+kind+"_ns"]
			}
			top := layer[topRung(e.workload.name)+"."+kind+"_ns"]
			if math.Abs(sum-top) > 1e-6*top {
				t.Errorf("%s %s: ladder sums to %g ns, top rung is %g ns", e.workload.name, kind, sum, top)
			}
		}
	}
	checkTrace(t, traceFile, res.ladder)
}

// checkDriverLine prints the driver's result line for one metric group
// and checks it carries exactly the declared names, each once, with a
// finite value and the declared unit.
func checkDriverLine(t *testing.T, what string, specs []metricSpec, values metricValues) {
	t.Helper()
	var buf bytes.Buffer
	if err := printDriverLine(&buf, specs, values, 1, 0); err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	var line struct {
		Correct   bool   `json:"correct"`
		Attempted uint64 `json:"attempted"`
		Failed    uint64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Errorf("%s: result line: %v", what, err)
		return
	}
	if !line.Correct {
		t.Errorf("%s: correct is false", what)
	}
	if len(line.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(line.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", what, m.Name)
		case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: %s has no finite value", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s unit %q, declared %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	for name, v := range values {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("%s: harness measured %s = %g, which BENCHMARK.json does not declare", what, name, v)
		}
	}
}

// checkTrace reads trace.json back: every rung has one span per op id
// from 0 up, and every span below a chain's top names its parent.
func checkTrace(t *testing.T, path string, l *ladder) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []traceSpan
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	next := map[string]uint32{}
	for _, s := range spans {
		if s.Op != next[s.Rung] {
			t.Fatalf("rung %s: span for op %d where op %d was due", s.Rung, s.Op, next[s.Rung])
		}
		next[s.Rung]++
		if s.DurNs <= 0 || (s.Kind != "read" && s.Kind != "write") {
			t.Fatalf("rung %s op %d: bad span %+v", s.Rung, s.Op, s)
		}
		if want := l.find(s.Rung).parent; s.Parent != want {
			t.Fatalf("rung %s op %d: parent %q, want %q", s.Rung, s.Op, s.Parent, want)
		}
	}
	for _, chain := range chains {
		for i, name := range chain {
			if next[name] == 0 {
				t.Errorf("rung %s has no span in trace.json", name)
			}
			if i+1 < len(chain) && l.find(name).parent != chain[i+1] {
				t.Errorf("rung %s: parent %q, want the rung one up, %q", name, l.find(name).parent, chain[i+1])
			}
		}
	}
}
