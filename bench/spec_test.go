package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The lists in spec.go are what the binary prints; BENCHMARK.json is
// what the driver expects. They must not drift apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	// 4 + 22 runs per workload, each with set-up and checks, in 3420 s.
	if budget := (4 + 22*len(workloads)) * (f.RunSeconds + 13); budget > 3420-200 {
		t.Errorf("run_seconds %d leaves no room: %d s of runs", f.RunSeconds, budget)
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their why differs)", i, f.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			if !bounded {
				w.Bound = 0
			}
			if got[i] != w {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

func TestNamesUnitsAndBounds(t *testing.T) {
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
		for _, k := range w.cycle {
			if k != 'w' && k != 's' && k != 'r' {
				t.Errorf("workload %s: cycle %q has an unknown op", w.name, w.cycle)
			}
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		use(d.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// A one-second lan_mix run end to end: it must serve operations, fail
// none and pass every output check. Timings are not asserted.
func TestSmokeLanMix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a cluster and runs for a few seconds")
	}
	w, ok := findWorkload("lan_mix")
	if !ok {
		t.Fatal("no lan_mix workload")
	}
	res, err := runWorkload(w, 1, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed != 0 || len(res.violations) != 0 {
		t.Fatalf("attempted %d, failed %d, violations %v", res.attempted, res.failed, res.violations)
	}
	for _, d := range endToEnd {
		if v, ok := res.metrics[d.Name]; !ok || v == 0 {
			t.Errorf("metric %s missing or zero: %v", d.Name, v)
		}
	}
}
