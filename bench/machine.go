package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// machineMeta is recorded with every result: two numbers are only
// comparable when these agree.
func machineMeta(w workload) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"transport":  "memnet",
		"wan_scale":  1.0,
		"clients":    numClients,

		"suite":          w.suite.String(),
		"consensus_auth": w.auth.String(),
		"channel":        w.channel.String(),
	}
}

// readSteal returns the milliseconds the hypervisor has run something
// else while this machine wanted a CPU, summed over CPUs (field 8 of
// the first line of /proc/stat, in 10 ms ticks). A jump during a run
// means a busy neighbour, not a code change. Zero where unavailable.
func readSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 10
}
