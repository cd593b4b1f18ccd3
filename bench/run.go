package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"spider/internal/crypto"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport/memnet"
)

// runResult is everything one workload run produced.
type runResult struct {
	workload   string
	seed       int64
	window     time.Duration
	attempted  int
	failed     int
	violations []string
	metrics    map[string]float64
	samples    map[string]int // sample count behind each latency metric
	thin       []string       // percentiles with fewer than minTail samples beyond them
	stealMS    float64        // hypervisor steal during the run (host noise)
	rttMS      float64
}

func (r *runResult) correct() bool {
	return len(r.violations) == 0 && r.failed == 0 && len(r.thin) == 0
}

// latencyMetrics are the percentiles reported per op kind. Writes and
// strong reads cross to the agreement region, so they are reported as
// excess over that round trip; weak reads stay local and are raw. A p50
// is the median of the quieter half of the window's one-second slices
// (quietMedian); the p90 is taken over all samples of the window, so
// that on leader_crash it sits inside the stalled ones.
var latencyMetrics = []struct {
	name string
	kind byte
	p    float64
}{
	{"write_excess_p50_ms", 'w', 50},
	{"write_excess_p90_ms", 'w', 90},
	{"sread_excess_p50_ms", 's', 50},
	{"wread_p50_ms", 'r', 50},
}

// deployment is a built cluster with its load clients, keys seeded.
type deployment struct {
	cluster *harness.Cluster
	clients []*loadClient
}

// deploy builds the workload's cluster, creates its clients and writes
// each client's first value. This is the set-up a user waits for before
// the first request can be served.
func deploy(w workload, seed int64, tr *tracer) (*deployment, error) {
	cluster, err := harness.Build(harness.BuildOptions{
		System:          harness.SystemSpider,
		F:               1,
		Regions:         w.regions,
		AgreementRegion: agreementRegion,
		Scale:           1.0,
		JitterFrac:      0,
		Seed:            seed,
		SuiteKind:       w.suite,
		Channel:         w.channel,
		ConsensusAuth:   w.auth,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	d := &deployment{cluster: cluster}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < numClients; i++ {
		kv, err := cluster.NewClient(w.clientRegion)
		if err != nil {
			cluster.Stop()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		c := &loadClient{
			idx:    i,
			seed:   seed,
			key:    fmt.Sprintf("k%08x-%d", rng.Uint32(), i),
			kv:     kv,
			cycle:  w.cycle,
			offset: rng.Intn(len(w.cycle)),
			tr:     tr,
		}
		// The first value, so that reads have data.
		if err := c.write(); err != nil {
			cluster.Stop()
			return nil, fmt.Errorf("seed key of client %d: %w", i, err)
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// measureSetup deploys the workload repeatedly and returns the median
// duration together with the last deployment, which the run then uses;
// the earlier ones are stopped. An insecure-suite deployment is up in
// ~20 ms, where one reading is mostly scheduler noise, so fast set-ups
// are repeated until setupBudget is spent; an ed25519 one takes ~3 s
// and gets the minimum of three. once skips the repeats (traced runs
// do not report set-up time).
func measureSetup(w workload, seed int64, tr *tracer, once bool) (*deployment, float64, error) {
	var (
		times []float64
		last  *deployment
		spent time.Duration
	)
	for i := 0; i < setupMin || (spent < setupBudget && i < setupMax); i++ {
		if last != nil {
			last.cluster.Stop()
		}
		start := time.Now()
		d, err := deploy(w, seed, tr)
		if err != nil {
			return nil, 0, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		last = d
		if once {
			break
		}
	}
	return last, median(times), nil
}

// procSnapshot is the process-wide cost counters at one instant.
type procSnapshot struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	rssMB   float64 // peak so far
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnapshot{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcs:     m.NumGC,
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// clusterCounters reads the harness counters the core budget is made of.
func clusterCounters(c *harness.Cluster) map[string]float64 {
	net := c.Net.Stats()
	batch, send, commit := c.BatchOccSummary(), c.SendOccSummary(), c.CommitSummary()
	return map[string]float64{
		"lan_frames":   float64(net.Frames[memnet.ClassLAN]),
		"wan_frames":   float64(net.Frames[memnet.ClassWAN]),
		"lan_bytes":    float64(net.BytesLAN()),
		"wan_bytes":    float64(net.BytesWAN()),
		"batch_count":  float64(batch.Count),
		"batch_total":  float64(batch.Total),
		"send_count":   float64(send.Count),
		"send_total":   float64(send.Total),
		"commit_bytes": float64(commit.WireBytes),
		"view_changes": float64(c.GrayFailureStats().ViewChanges),
	}
}

// runWorkload deploys the workload, warms it up, drives it for window
// and checks what it returned. With tr set the run is the traced one:
// it also reads the harness and process counters at the window's edges
// and fills the per-workload core.* and proc.* metrics.
func runWorkload(w workload, seed int64, window time.Duration, tr *tracer) (*runResult, error) {
	rtt, err := topo.RTT(w.clientRegion, agreementRegion)
	if err != nil {
		return nil, err
	}
	steal0 := readSteal()
	dep, deployS, err := measureSetup(w, seed, tr, tr != nil)
	if err != nil {
		return nil, err
	}
	defer dep.cluster.Stop()

	// Warm-up and window are one continuous run of the load loops; ops
	// due before t0 are issued but not measured.
	begin := time.Now()
	t0 := begin.Add(warmup)
	end := t0.Add(window)

	var wg sync.WaitGroup
	for _, c := range dep.clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			// Scheduled clients are spread evenly over the interval, as
			// independent callers would be; due in the same instant they
			// would race each other into the same batch on every tick.
			stagger := w.interval * time.Duration(c.idx) / numClients
			c.run(wallClock{}, begin.Add(stagger), end, w.interval)
		}(c)
	}

	var (
		crashErr       error
		before, after  map[string]float64
		procBefore     procSnapshot
		controlStopped = make(chan struct{})
	)
	go func() {
		defer close(controlStopped)
		time.Sleep(time.Until(t0))
		if tr != nil {
			before, procBefore = clusterCounters(dep.cluster), readProc()
			tr.snapshot("window_start", t0, before)
		}
		if w.crashAt > 0 {
			time.Sleep(time.Until(t0.Add(time.Duration(w.crashAt * float64(window)))))
			leader, ok := dep.cluster.AgreementLeader()
			if !ok {
				crashErr = fmt.Errorf("%s: no agreement leader to crash", w.name)
				return
			}
			crashErr = dep.cluster.CrashNode(leader)
		}
	}()
	wg.Wait()
	<-controlStopped
	finished := time.Now()
	if crashErr != nil {
		return nil, crashErr
	}
	var procAfter procSnapshot
	if tr != nil {
		after, procAfter = clusterCounters(dep.cluster), readProc()
		tr.snapshot("window_end", finished, after)
	}

	res := &runResult{
		workload: w.name,
		seed:     seed,
		window:   window,
		metrics:  map[string]float64{},
		samples:  map[string]int{},
		rttMS:    ms(rtt),
	}
	var (
		lat          = map[byte][]timed{}
		tracedW      []timed
		untracedW    []timed
		late         []float64
		completions  = []time.Time{t0}
		firstStart   = end
		lastEnd      = t0
		ok           int
		roundTrip    = map[byte]time.Duration{'w': rtt, 's': rtt} // 'r' stays local: raw
		excessOfKind = func(s opSample) timed {
			return timed{at: s.due.Sub(t0), v: excessMS(s.latency(), roundTrip[s.kind])}
		}
	)
	for _, c := range dep.clients {
		res.violations = append(res.violations, c.violations...)
		for _, s := range c.samples {
			if s.due.Before(t0) {
				continue
			}
			if s.start.Before(firstStart) {
				firstStart = s.start
			}
			res.attempted++
			if s.failed {
				res.failed++
				continue
			}
			ok++
			lat[s.kind] = append(lat[s.kind], excessOfKind(s))
			completions = append(completions, s.end)
			if s.end.After(lastEnd) {
				lastEnd = s.end
			}
			if s.kind == 'w' {
				if s.traced {
					tracedW = append(tracedW, excessOfKind(s))
				} else {
					untracedW = append(untracedW, excessOfKind(s))
				}
			}
			if w.interval > 0 && s.free {
				late = append(late, ms(s.start.Sub(s.due)))
			}
		}
	}
	for _, m := range latencyMetrics {
		v := lat[m.kind]
		if len(v) == 0 {
			return nil, fmt.Errorf("%s: window of %v too short, no %q operation completed", w.name, window, m.kind)
		}
		if m.p == 50 {
			res.metrics[m.name] = quietMedian(v, sliceWidth)
		} else {
			res.metrics[m.name] = percentile(sortedValues(v), m.p)
		}
		res.samples[m.name] = len(v)
		if !tailSupported(len(v), m.p) {
			res.thin = append(res.thin, m.name)
		}
	}
	res.metrics["ops_per_s"] = float64(ok) / lastEnd.Sub(t0).Seconds()
	// Set-up ends where measuring starts: deployment plus the warm-up,
	// up to the first measured operation.
	res.metrics["setup_s"] = deployS + firstStart.Sub(begin).Seconds()

	res.violations = append(res.violations, checkState(dep, w, seed)...)
	res.stealMS = readSteal() - steal0

	if tr != nil {
		ops := float64(ok)
		delta := func(k string) float64 { return after[k] - before[k] }
		ratio := func(num, den float64) float64 {
			if den == 0 {
				return 0
			}
			return num / den
		}
		m := res.metrics
		m["core.lan_frames_per_op"] = delta("lan_frames") / ops
		m["core.wan_frames_per_op"] = delta("wan_frames") / ops
		m["core.lan_bytes_per_op"] = delta("lan_bytes") / ops
		m["core.wan_bytes_per_op"] = delta("wan_bytes") / ops
		m["core.batch_occupancy_mean"] = ratio(delta("batch_total"), delta("batch_count"))
		m["core.send_occupancy_mean"] = ratio(delta("send_total"), delta("send_count"))
		m["core.commit_bytes_per_req"] = ratio(delta("commit_bytes"), float64(len(lat['w'])+len(lat['s'])))
		m["core.view_changes"] = delta("view_changes")

		completions = append(completions, end)
		sort.Slice(completions, func(i, j int) bool { return completions[i].Before(completions[j]) })
		var gap time.Duration
		for i := 1; i < len(completions); i++ {
			if d := completions[i].Sub(completions[i-1]); d > gap {
				gap = d
			}
		}
		m["core.service_gap_ms"] = ms(gap)

		m["proc.cpu_ms_per_op"] = ms(procAfter.cpu-procBefore.cpu) / ops
		m["proc.allocs_per_op"] = float64(procAfter.mallocs-procBefore.mallocs) / ops
		m["proc.alloc_kb_per_op"] = float64(procAfter.bytes-procBefore.bytes) / 1024 / ops
		m["proc.gc_count"] = float64(procAfter.gcs - procBefore.gcs)
		m["proc.rss_peak_mb"] = procAfter.rssMB

		if len(tracedW) > 0 && len(untracedW) > 0 {
			tp, up := quietMedian(tracedW, sliceWidth), quietMedian(untracedW, sliceWidth)
			m["trace.overhead_frac"] = (tp - up) / up
		}
		sort.Float64s(late)
		m["loadgen.late_p99_ms"] = 0
		if len(late) > 0 {
			m["loadgen.late_p99_ms"] = percentile(late, 99)
		}
	}
	return res, nil
}

// checkState runs after the load has drained: a fresh client must read
// every client's last acknowledged write (nothing acknowledged was
// lost, whatever faults the workload injected), and execution replicas
// of one group that stand at the same sequence number must hold the
// same state digest.
func checkState(dep *deployment, w workload, seed int64) []string {
	var out []string
	kv, err := dep.cluster.NewClient(w.clientRegion)
	if err != nil {
		return []string{fmt.Sprintf("fresh client: %v", err)}
	}
	for _, c := range dep.clients {
		reader := &loadClient{idx: c.idx, seed: seed, key: c.key, kv: kv, acked: c.acked}
		if err := reader.read(true); err != nil {
			out = append(out, fmt.Sprintf("fresh client reading key of client %d: %v", c.idx, err))
		}
		out = append(out, reader.violations...)
	}

	// Replicas finish executing the tail a moment after the clients got
	// their quorum; poll briefly until each group stands at one seq.
	type groupSeq struct {
		group ids.GroupID
		seq   ids.SeqNr
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		probes := dep.cluster.ExecProbes()
		digests := map[groupSeq]crypto.Digest{}
		seqs := map[ids.GroupID]map[ids.SeqNr]bool{}
		for _, p := range probes {
			k := groupSeq{p.Group, p.Seq}
			if prev, ok := digests[k]; ok && prev != p.Digest {
				return append(out, fmt.Sprintf("group %d diverged at seq %d: %s vs %s", p.Group, p.Seq, prev, p.Digest))
			}
			digests[k] = p.Digest
			if seqs[k.group] == nil {
				seqs[k.group] = map[ids.SeqNr]bool{}
			}
			seqs[k.group][k.seq] = true
		}
		settled := len(probes) > 0
		for _, s := range seqs {
			if len(s) > 1 {
				settled = false
			}
		}
		if settled {
			return out
		}
		if time.Now().After(deadline) {
			return append(out, "execution replicas never settled on one sequence number; digests not comparable")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
