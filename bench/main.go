// Command bench is the repository benchmark: it drives the unchanged
// product code through its exported API on the emulated WAN, checks what
// the system returned, and prints every metric BENCHMARK.json names.
// README.md explains the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxRun bounds the whole process: whatever hangs, the benchmark ends.
const maxRun = 170 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = flag.Int64("seed", 1, "seed for value bytes, key names and cycle offsets")
		seconds   = flag.Int("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
		repeat    = flag.Int("repeat", 1, "run the selected workloads N times (seeds seed, seed+1, ...) and print median and quartiles")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of max(5, repeat) runs and fail if their medians differ by more than a metric's bound")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for trace.json and temporary files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--selfcheck]")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	window := time.Duration(*seconds) * time.Second

	// Nothing may outlive the command: the watchdog ends a hung run, and
	// every path below leaves through os.Exit so a goroutine the product
	// leaked cannot keep the process alive.
	runs := len(selected) * *repeat
	if *selfcheck {
		runs = len(selected) * 2 * max(5, *repeat)
	}
	time.AfterFunc(time.Duration(runs)*maxRun, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded its time limit")
		os.Exit(3)
	})

	var code int
	switch {
	case *selfcheck:
		code = runSelfcheck(selected, *seed, window, max(5, *repeat))
	case *repeat > 1:
		code = runRepeat(selected, *seed, window, *repeat)
	default:
		code = runOnce(selected, *seed, window, *trace == 1, *outDir)
	}
	os.Exit(code)
}

// runOnce runs each selected workload once and prints, per workload, a
// readable table followed by the one-line JSON result.
func runOnce(selected []workload, seed int64, window time.Duration, traced bool, outDir string) int {
	code := 0
	if traced {
		window = tracedWindow(window)
	}
	for _, w := range selected {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		res, err := runWorkload(w, seed, window, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defs := endToEnd
		if traced {
			defs = perLayer
			if err := runProbes(res, w, tr, outDir); err != nil {
				fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
				return 1
			}
			// Every cluster, channel and listener is stopped by now.
			time.Sleep(100 * time.Millisecond)
			res.metrics["loadgen.goroutines_left"] = float64(runtime.NumGoroutine())
			path := filepath.Join(outDir, "trace.json")
			if err := tr.write(path, machineMeta(w)); err != nil {
				fmt.Fprintf(os.Stderr, "bench: write trace: %v\n", err)
				return 1
			}
			fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		}
		if !printResult(res, w, defs, traced) {
			code = 1
		}
	}
	return code
}

// tracedWindow is the workload window of a traced run: half the
// requested time, the other half being spent in the layer probes.
func tracedWindow(window time.Duration) time.Duration {
	return max(window/2, 2*time.Second)
}

// printResult prints the table and the JSON line; it reports whether
// the run counts as correct.
func printResult(res *runResult, w workload, defs []metricDef, traced bool) bool {
	meta, _ := json.Marshal(machineMeta(w))
	fmt.Printf("== %s seed=%d window=%v traced=%v  %s\n", res.workload, res.seed, res.window, traced, meta)
	fmt.Printf("   ops attempted=%d failed=%d  client->agreement RTT=%.1f ms  steal=%.0f ms\n",
		res.attempted, res.failed, res.rttMS, res.stealMS)
	ok := res.correct()
	metrics := map[string]any{}
	for _, d := range defs {
		v, have := res.metrics[d.Name]
		if !have {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", d.Name)
			ok = false
			continue
		}
		line := fmt.Sprintf("   %-32s %14.4f %-6s", d.Name, v, d.Unit)
		if n, has := res.samples[d.Name]; has {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, v := range res.violations {
		fmt.Fprintf(os.Stderr, "bench: output check failed: %s\n", v)
	}
	for _, name := range res.thin {
		fmt.Fprintf(os.Stderr, "bench: %s has fewer than %d samples beyond its percentile; raise --seconds\n", name, minTail)
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
	return ok
}

// series collects one metric's values over repeated runs.
type series map[string]map[string][]float64 // workload -> metric -> values

func (s series) add(res *runResult) {
	if s[res.workload] == nil {
		s[res.workload] = map[string][]float64{}
	}
	for _, d := range endToEnd {
		s[res.workload][d.Name] = append(s[res.workload][d.Name], res.metrics[d.Name])
	}
}

// runSet runs every selected workload once with the given seed and adds
// the results to s; it reports whether all runs were correct.
func runSet(selected []workload, seed int64, window time.Duration, label string, s series) bool {
	ok := true
	for _, w := range selected {
		res, err := runWorkload(w, seed, window, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return false
		}
		s.add(res)
		fmt.Printf("%s %-12s seed=%d steal=%.0fms failed=%d/%d", label, w.name, seed, res.stealMS, res.failed, res.attempted)
		for _, d := range endToEnd {
			fmt.Printf(" %s=%.4f", d.Name, res.metrics[d.Name])
		}
		fmt.Println()
		for _, v := range res.violations {
			fmt.Fprintf(os.Stderr, "bench: output check failed: %s\n", v)
		}
		ok = ok && res.correct()
	}
	return ok
}

func runRepeat(selected []workload, seed int64, window time.Duration, n int) int {
	s := series{}
	ok := true
	for i := 0; i < n; i++ {
		ok = runSet(selected, seed+int64(i), window, fmt.Sprintf("run %d/%d", i+1, n), s) && ok
	}
	fmt.Printf("\n%-12s %-22s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			v := s[w.name][d.Name]
			q1, q3 := quartiles(v)
			fmt.Printf("%-12s %-22s %12.4f %12.4f %12.4f %7.1f%% %7.0f%%\n", w.name, d.Name, q1, median(v), q3, 100*spread(v), 100*d.Bound)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runSelfcheck proves the bounds on this machine: two sets of n runs of
// the same code, interleaved A1 B1 A2 B2 ... so that a busy neighbour
// hits both alike, must agree within every metric's bound.
func runSelfcheck(selected []workload, seed int64, window time.Duration, n int) int {
	a, b := series{}, series{}
	ok := true
	for i := 0; i < n; i++ {
		ok = runSet(selected, seed+int64(i), window, fmt.Sprintf("A%d", i+1), a) && ok
		ok = runSet(selected, seed+int64(n+i), window, fmt.Sprintf("B%d", i+1), b) && ok
	}
	fmt.Printf("\n%-12s %-22s %12s %12s %8s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "B vs A", "spreadA", "spreadB", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			ma, mb := median(a[w.name][d.Name]), median(b[w.name][d.Name])
			worse := max(worseBy(ma, mb, lowerIsBetter(d)), worseBy(mb, ma, lowerIsBetter(d)))
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-12s %-22s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %7.0f%%%s\n", w.name, d.Name, ma, mb,
				100*worse, 100*spread(a[w.name][d.Name]), 100*spread(b[w.name][d.Name]), 100*d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: passed")
	return 0
}
