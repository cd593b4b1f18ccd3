package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/stats"
	"spider/internal/topo"
)

// RunProfile bundles the experiment-scale knobs. The paper's setup
// (50 clients/region on EC2) is scaled down so a single process
// emulating the WAN stays out of CPU saturation; latency percentiles
// are governed by protocol path lengths and the injected RTTs, which
// are preserved.
type RunProfile struct {
	Scale    float64
	Clients  int
	Rate     float64
	Duration time.Duration
	Warmup   time.Duration
	Suite    crypto.SuiteKind
	Channel  core.ChannelKind
	Jitter   float64
	Seed     int64
}

// QuickProfile runs each configuration for a few seconds with fast
// crypto: suitable for `go test -bench` smoke runs.
func QuickProfile() RunProfile {
	return RunProfile{
		Scale:    1.0,
		Clients:  2,
		Rate:     8,
		Duration: 2500 * time.Millisecond,
		Warmup:   600 * time.Millisecond,
		Suite:    crypto.SuiteInsecure,
		Jitter:   0.02,
		Seed:     1,
	}
}

// PaperProfile approximates the paper's measurement fidelity: longer
// runs, more clients, RSA-1024 signatures as in the evaluation.
func PaperProfile() RunProfile {
	return RunProfile{
		Scale:    1.0,
		Clients:  6,
		Rate:     10,
		Duration: 15 * time.Second,
		Warmup:   3 * time.Second,
		Suite:    crypto.SuiteRSA,
		Jitter:   0.03,
		Seed:     1,
	}
}

func (p RunProfile) build(system System, mutate func(*BuildOptions)) (*Cluster, error) {
	opts := BuildOptions{
		System:     system,
		Scale:      p.Scale,
		SuiteKind:  p.Suite,
		Channel:    p.Channel,
		JitterFrac: p.Jitter,
		Seed:       p.Seed,
	}
	if mutate != nil {
		mutate(&opts)
	}
	return Build(opts)
}

func (p RunProfile) workload(kind core.RequestKind) Workload {
	return Workload{
		ClientsPerRegion: p.Clients,
		Rate:             p.Rate,
		Duration:         p.Duration,
		Warmup:           p.Warmup,
		Kind:             kind,
		ValueSize:        200,
	}
}

// regionLabel abbreviates a region as the paper's figures do.
func regionLabel(r topo.Region) string {
	switch r {
	case topo.Virginia:
		return "V"
	case topo.Oregon:
		return "O"
	case topo.Ireland:
		return "I"
	case topo.Tokyo:
		return "T"
	case topo.SaoPaulo:
		return "SP"
	default:
		return string(r)
	}
}

// LatencyRow is one bar of a latency figure. For Spider systems the
// batch-occupancy summaries travel along (identical per system and
// run), so figure output shows how full the commit data plane's
// batches actually were.
type LatencyRow struct {
	System  string
	Suite   string // crypto suite the numbers were measured under
	Leader  string
	Region  topo.Region
	Summary stats.Summary
	Batch   stats.OccupancySummary // requests per proposed consensus batch
	Send    stats.OccupancySummary // requests per commit-channel Send
	Commit  core.CommitSummary     // commit-channel bytes
	Gray    GrayStats              // view changes and proactive rotations during the run
}

// runLatency builds a system, runs one workload, and emits one row per
// client region.
func runLatency(p RunProfile, system System, label string, kind core.RequestKind,
	mutate func(*BuildOptions)) ([]LatencyRow, error) {
	cluster, err := p.build(system, mutate)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", system, err)
	}
	defer cluster.Stop()
	recorders, err := cluster.RunWorkload(cluster.Opts.Regions, p.workload(kind))
	if err != nil {
		return nil, fmt.Errorf("%s workload: %w", system, err)
	}
	batch := cluster.BatchOccSummary()
	send := cluster.SendOccSummary()
	commit := cluster.CommitSummary()
	gray := cluster.GrayFailureStats()
	var rows []LatencyRow
	for _, region := range cluster.Opts.Regions {
		rows = append(rows, LatencyRow{
			System:  string(system),
			Suite:   p.Suite.String(),
			Leader:  label,
			Region:  region,
			Summary: recorders[region].Summarize(),
			Batch:   batch,
			Send:    send,
			Commit:  commit,
			Gray:    gray,
		})
	}
	return rows, nil
}

// Figure7 reproduces the write-latency experiment: p50/p90 per client
// region for BFT, HFT and Spider under every leader placement.
func Figure7(p RunProfile) ([]LatencyRow, error) {
	var rows []LatencyRow
	regions := topo.EvalRegions
	for i, leaderRegion := range regions {
		idx := i
		r, err := runLatency(p, SystemBFT, "Leader in "+regionLabel(leaderRegion), core.KindWrite,
			func(o *BuildOptions) { o.LeaderIndex = idx })
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	for i, leaderRegion := range regions {
		idx := i
		r, err := runLatency(p, SystemHFT, "Leader site in "+regionLabel(leaderRegion), core.KindWrite,
			func(o *BuildOptions) { o.LeaderIndex = idx })
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	for az := 0; az < 4; az++ {
		idx := az
		r, err := runLatency(p, SystemSpider, fmt.Sprintf("Leader in V-%d", az+1), core.KindWrite,
			func(o *BuildOptions) { o.LeaderIndex = idx })
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure8 reproduces the read-latency experiment. strong selects
// Figure 8a (strongly consistent) vs 8b (weakly consistent).
func Figure8(p RunProfile, strong bool) ([]LatencyRow, error) {
	kind := core.KindWeakRead
	if strong {
		kind = core.KindStrongRead
	}
	var rows []LatencyRow
	for _, system := range []System{SystemBFT, SystemHFT, SystemSpider} {
		r, err := runLatency(p, system, "Leader in V", kind, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure9a reproduces the modularity experiment: Spider-0E (agreement
// group executes), Spider-1E (one co-located execution group), and
// full Spider under 200-byte writes.
func Figure9a(p RunProfile) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, system := range []System{SystemSpider0E, SystemSpider1E, SystemSpider} {
		r, err := runLatency(p, system, "", core.KindWrite, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Figure11 reproduces the f=2 write-latency experiment: additional
// replicas occupy nearby regions (Ohio, California, London, Seoul).
func Figure11(p RunProfile) ([]LatencyRow, error) {
	var rows []LatencyRow
	f2 := func(o *BuildOptions) { o.F = 2 }
	r, err := runLatency(p, SystemBFT, "Leader in V", core.KindWrite, f2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r...)
	r, err = runLatency(p, SystemHFT, "Leader site in V", core.KindWrite, f2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r...)
	for az := 0; az < 4; az++ {
		idx := az
		r, err := runLatency(p, SystemSpider, fmt.Sprintf("Leader in V-%d", az+1), core.KindWrite,
			func(o *BuildOptions) { o.F = 2; o.LeaderIndex = idx })
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// TimelinePoint is one bucket of Figure 10's response-time series.
type TimelinePoint struct {
	System string
	Offset time.Duration // since experiment start
	Mean   time.Duration
	Count  int
}

// Figure10 reproduces the adaptability experiment: clients run in the
// four base regions; halfway through, São Paulo clients join. Spider
// adds an execution group there; the baselines serve the new clients
// from existing replicas. Returns one series per system.
func Figure10(p RunProfile, kind core.RequestKind) (map[string][]TimelinePoint, error) {
	out := make(map[string][]TimelinePoint)
	phase := p.Duration // per phase; total runtime is 2*phase per system
	bucket := phase / 6
	if bucket < 200*time.Millisecond {
		bucket = 200 * time.Millisecond
	}

	for _, system := range []System{SystemBFT, SystemWV, SystemHFT, SystemSpider} {
		system := system
		cluster, err := p.build(system, func(o *BuildOptions) {
			if system == SystemWV {
				// Weighted voting deploys a replica at every client
				// location, including São Paulo, with Vmax in
				// Virginia and Oregon (the paper's best placement).
				o.Regions = append(append([]topo.Region{}, topo.EvalRegions...), topo.SaoPaulo)
				o.VmaxRegions = []topo.Region{topo.Virginia, topo.Oregon}
			} else {
				o.ExtraRegions = []topo.Region{topo.SaoPaulo}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", system, err)
		}

		w := p.workload(kind)
		w.Duration = 2 * phase
		main, err := cluster.StartWorkload(topo.EvalRegions, w)
		if err != nil {
			cluster.Stop()
			return nil, err
		}
		time.Sleep(phase)
		if err := cluster.AddRegion(topo.SaoPaulo); err != nil {
			main.Stop()
			cluster.Stop()
			return nil, fmt.Errorf("%s add region: %w", system, err)
		}
		w2 := w
		w2.Duration = phase
		w2.Warmup = 0
		sp, err := cluster.StartWorkload([]topo.Region{topo.SaoPaulo}, w2)
		if err != nil {
			main.Stop()
			cluster.Stop()
			return nil, err
		}
		main.Stop()
		sp.Stop()

		merged := stats.NewRecorder()
		for _, rec := range main.Recorders {
			merged.Merge(rec)
		}
		for _, rec := range sp.Recorders {
			merged.Merge(rec)
		}
		var series []TimelinePoint
		for _, b := range merged.TimeSeries(main.Started, bucket) {
			series = append(series, TimelinePoint{
				System: string(system),
				Offset: b.Start.Sub(main.Started),
				Mean:   b.Mean,
				Count:  b.Count,
			})
		}
		out[string(system)] = series
		cluster.Stop()
	}
	return out, nil
}

// RenderLatencyRows formats latency rows as an aligned text table,
// grouped the way the paper's figures arrange bars.
func RenderLatencyRows(title string, rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-10s %-8s %-20s %-3s %10s %10s %6s\n", "system", "suite", "leader", "loc", "p50[ms]", "p90[ms]", "n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %-20s %-3s %10.1f %10.1f %6d\n",
			r.System, r.Suite, r.Leader, regionLabel(r.Region),
			float64(r.Summary.P50)/float64(time.Millisecond),
			float64(r.Summary.P90)/float64(time.Millisecond),
			r.Summary.Count)
	}
	// One occupancy footnote per (system, leader) configuration that
	// recorded batches: underfilled batches explain latency/throughput
	// trade-offs the bare percentiles hide. The commit-channel line
	// adds bytes per ordered request.
	seen := make(map[string]bool)
	for _, r := range rows {
		key := r.System + "|" + r.Leader
		if r.Batch.Count == 0 || seen[key] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(&b, "   %s %s: batch occupancy %s; per-send %s\n",
			r.System, r.Leader, r.Batch, r.Send)
		if r.Commit.PayloadBytes > 0 && r.Batch.Total > 0 {
			fmt.Fprintf(&b, "   %s %s: commit channel %s (%.0f B/req)\n",
				r.System, r.Leader, r.Commit,
				float64(r.Commit.PayloadBytes)/float64(r.Batch.Total))
		}
		// View-change activity during the measurement: a healthy run
		// stays at zero; anything else names the rotations that moved
		// the leader mid-run (and therefore reshaped the percentiles).
		if r.Gray.ViewChanges > 0 || r.Gray.Rotations > 0 {
			fmt.Fprintf(&b, "   %s %s: %d view change(s), %d proactive rotation(s)\n",
				r.System, r.Leader, r.Gray.ViewChanges, r.Gray.Rotations)
			for _, reason := range r.Gray.Reasons {
				fmt.Fprintf(&b, "      rotated: %s\n", reason)
			}
		}
	}
	return b.String()
}

// RenderTimeline formats Figure 10 series.
func RenderTimeline(title string, series map[string][]TimelinePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	systems := make([]string, 0, len(series))
	for s := range series {
		systems = append(systems, s)
	}
	sort.Strings(systems)
	for _, s := range systems {
		fmt.Fprintf(&b, "-- %s --\n", s)
		fmt.Fprintf(&b, "%8s %12s %6s\n", "t[s]", "mean[ms]", "n")
		for _, pt := range series[s] {
			fmt.Fprintf(&b, "%8.1f %12.1f %6d\n",
				pt.Offset.Seconds(),
				float64(pt.Mean)/float64(time.Millisecond),
				pt.Count)
		}
	}
	return b.String()
}
