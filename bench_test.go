// Benchmarks regenerating the paper's evaluation (Figures 7–11), plus
// ablation and micro benchmarks. Each figure bench runs a scaled-down
// configuration of the corresponding experiment and reports latency
// percentiles as custom metrics (p50-ms / p90-ms); `cmd/spider-bench`
// runs the same experiments at full fidelity and prints the complete
// tables. Absolute numbers depend on the host; the *shape* (who wins,
// by what factor) is the reproduction target.
package spider_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spider"
	"spider/internal/consensus"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/crypto/cryptotest"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/sc"
	"spider/internal/stats"
	"spider/internal/topo"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// benchProfile keeps figure benches short: ~1.6s measurement per
// configuration at 35% of real WAN latency.
func benchProfile() harness.RunProfile {
	return harness.RunProfile{
		Scale:    0.35,
		Clients:  2,
		Rate:     15,
		Duration: 1600 * time.Millisecond,
		Warmup:   400 * time.Millisecond,
		Suite:    crypto.SuiteInsecure,
		Seed:     1,
	}
}

// reportRows aggregates rows into per-system p50/p90 metrics.
func reportRows(b *testing.B, rows []harness.LatencyRow) {
	b.Helper()
	perSystem := make(map[string]*stats.Recorder)
	for _, row := range rows {
		rec, ok := perSystem[row.System]
		if !ok {
			rec = stats.NewRecorder()
			perSystem[row.System] = rec
		}
		// Aggregate medians weighted equally per region.
		if row.Summary.Count > 0 {
			rec.Record(row.Summary.P50)
		}
	}
	for system, rec := range perSystem {
		s := rec.Summarize()
		b.ReportMetric(float64(s.Mean)/float64(time.Millisecond), system+"-p50-ms")
	}
}

// latencyBench runs one system/kind combination b.N times.
func latencyBench(b *testing.B, system harness.System, kind core.RequestKind, mutate func(*harness.BuildOptions)) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		cluster, err := harness.Build(buildOpts(p, system, mutate))
		if err != nil {
			b.Fatal(err)
		}
		recorders, err := cluster.RunWorkload(cluster.Opts.Regions, harness.Workload{
			ClientsPerRegion: p.Clients,
			Rate:             p.Rate,
			Duration:         p.Duration,
			Warmup:           p.Warmup,
			Kind:             kind,
			ValueSize:        200,
		})
		if err != nil {
			cluster.Stop()
			b.Fatal(err)
		}
		merged := stats.NewRecorder()
		for _, rec := range recorders {
			merged.Merge(rec)
		}
		s := merged.Summarize()
		b.ReportMetric(float64(s.P50)/float64(time.Millisecond), "p50-ms")
		b.ReportMetric(float64(s.P90)/float64(time.Millisecond), "p90-ms")
		cluster.Stop()
	}
}

func buildOpts(p harness.RunProfile, system harness.System, mutate func(*harness.BuildOptions)) harness.BuildOptions {
	opts := harness.BuildOptions{
		System:    system,
		Scale:     p.Scale,
		SuiteKind: p.Suite,
		Seed:      p.Seed,
	}
	if mutate != nil {
		mutate(&opts)
	}
	return opts
}

// --- Figure 7: write latency ------------------------------------------------

func BenchmarkFigure7WritesSpider(b *testing.B) {
	latencyBench(b, harness.SystemSpider, core.KindWrite, nil)
}

func BenchmarkFigure7WritesBFT(b *testing.B) {
	latencyBench(b, harness.SystemBFT, core.KindWrite, nil)
}

func BenchmarkFigure7WritesHFT(b *testing.B) {
	latencyBench(b, harness.SystemHFT, core.KindWrite, nil)
}

// BenchmarkFigure7LeaderPlacement runs the full leader sweep once per
// iteration and reports the spread Spider's design eliminates.
func BenchmarkFigure7LeaderPlacement(b *testing.B) {
	p := benchProfile()
	p.Duration = 1200 * time.Millisecond
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure7(p)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// --- Figure 8: reads ----------------------------------------------------------

func BenchmarkFigure8StrongReads(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure8(p, true)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

func BenchmarkFigure8WeakReads(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure8(p, false)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// --- Figure 9a: modularity impact ---------------------------------------------

func BenchmarkFigure9Modularity(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure9a(p)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// --- Figures 9b-9d: IRMC microbenchmarks ---------------------------------------

func benchIRMC(b *testing.B, kind string, size int) {
	for i := 0; i < b.N; i++ {
		row, err := harness.RunIRMCBench(harness.IRMCBenchOptions{
			Kind:     kind,
			Size:     size,
			Duration: 1500 * time.Millisecond,
			Scale:    0.1,
			Suite:    crypto.SuiteRSA, // CPU effects need real signatures
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.Throughput, "msg/s")
		b.ReportMetric(100*row.SenderCPU, "sndCPU%")
		b.ReportMetric(100*row.ReceiverCPU, "rcvCPU%")
		b.ReportMetric(row.WANMBps, "WAN-MB/s")
	}
}

func BenchmarkFigure9IRMCRC256(b *testing.B)  { benchIRMC(b, "rc", 256) }
func BenchmarkFigure9IRMCRC4096(b *testing.B) { benchIRMC(b, "rc", 4096) }
func BenchmarkFigure9IRMCSC256(b *testing.B)  { benchIRMC(b, "sc", 256) }
func BenchmarkFigure9IRMCSC4096(b *testing.B) { benchIRMC(b, "sc", 4096) }

// BenchmarkIRMCSCVerifiesPerMsg reports how many public-key
// verifications one IRMC-SC message costs over all endpoints
// (verifies/msg): the share signatures senders and receivers check.
// (IRMC-RC has none: its Sends carry a MAC.) The channel has the shape
// of a commit channel at f = 1 — four senders, three receivers — with
// every sender correct and pumping the same positions on its own
// goroutine, so arrivals race as they do in a deployment; the count is
// what the admission pre-checks leave, not a lower bound. It does not
// depend on the suite. Not part of BENCH_PATTERN; run it with
// `go test -run '^$' -bench VerifiesPerMsg .`.
func BenchmarkIRMCSCVerifiesPerMsg(b *testing.B) {
	senders := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	receivers := ids.Group{ID: 2, Members: []ids.NodeID{11, 12, 13}, F: 1}
	all := append(append([]ids.NodeID{}, senders.Members...), receivers.Members...)
	suites, counters := cryptotest.CountingAll(crypto.NewSuites(all, crypto.SuiteInsecure))
	net := memnet.New(memnet.Options{})
	defer net.Close()
	const capacity = 64
	config := func(id ids.NodeID) irmc.Config {
		return irmc.Config{
			Senders: senders, Receivers: receivers, Capacity: capacity,
			Suite: suites[id], Node: net.Node(id),
			Stream: transport.MakeStream(transport.KindBench, 10),
		}
	}
	var sendEps []irmc.Sender
	var recvEps []irmc.Receiver
	for _, id := range senders.Members {
		s, err := sc.NewSender(config(id))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		sendEps = append(sendEps, s)
	}
	for _, id := range receivers.Members {
		r, err := sc.NewReceiver(config(id))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		recvEps = append(recvEps, r)
	}

	// One window-half at a time, every endpoint on its own goroutine
	// inside it: no receiver falls a window behind the others (without
	// Resend it would never see what it missed), so the run ends after
	// exactly b.N positions.
	payload := make([]byte, 256)
	b.ResetTimer()
	for first := ids.Position(1); first <= ids.Position(b.N); first += capacity / 2 {
		last := min(first+capacity/2-1, ids.Position(b.N))
		var wg sync.WaitGroup
		for _, s := range sendEps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := first; p <= last; p++ {
					// The receivers may finish the half on the other
					// senders' submissions and move past a slow one.
					if err := s.Send(0, p, payload); err != nil {
						if _, tooOld := irmc.AsTooOld(err); !tooOld {
							b.Error(err)
						}
						return
					}
				}
			}()
		}
		for _, r := range recvEps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := first; p <= last; p++ {
					if _, err := r.Receive(0, p); err != nil {
						b.Error(err)
						return
					}
				}
				r.MoveWindow(0, last+1)
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	var verifies int64
	for _, c := range counters {
		verifies += c.Verifies(crypto.DomainIRMCShare)
	}
	b.ReportMetric(float64(verifies)/float64(b.N), "verifies/msg")
}

// --- Figure 10: adaptability ----------------------------------------------------

func BenchmarkFigure10Adaptability(b *testing.B) {
	p := benchProfile()
	p.Duration = 1500 * time.Millisecond // per phase
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure10(p, core.KindWrite)
		if err != nil {
			b.Fatal(err)
		}
		for system, points := range series {
			var sum time.Duration
			n := 0
			for _, pt := range points {
				if pt.Count > 0 {
					sum += pt.Mean
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(float64(sum/time.Duration(n))/float64(time.Millisecond), system+"-mean-ms")
			}
		}
	}
}

// --- Figure 11: f=2 --------------------------------------------------------------

func BenchmarkFigure11F2Spider(b *testing.B) {
	latencyBench(b, harness.SystemSpider, core.KindWrite, func(o *harness.BuildOptions) { o.F = 2 })
}

func BenchmarkFigure11F2BFT(b *testing.B) {
	latencyBench(b, harness.SystemBFT, core.KindWrite, func(o *harness.BuildOptions) { o.F = 2 })
}

func BenchmarkFigure11F2HFT(b *testing.B) {
	latencyBench(b, harness.SystemHFT, core.KindWrite, func(o *harness.BuildOptions) { o.F = 2 })
}

// --- ablations --------------------------------------------------------------------

// BenchmarkAblationIRMCSC measures Spider end to end over the
// IRMC-SC channel instead of the default IRMC-RC.
func BenchmarkAblationIRMCSC(b *testing.B) {
	latencyBench(b, harness.SystemSpider, core.KindWrite, func(o *harness.BuildOptions) {
		o.Channel = core.ChannelSC
	})
}

// BenchmarkAblationSlackGroups measures z=1 (agreement group does not
// wait for the slowest execution group; Section 3.5).
func BenchmarkAblationSlackGroups(b *testing.B) {
	latencyBench(b, harness.SystemSpider, core.KindWrite, func(o *harness.BuildOptions) {
		o.SlackGroups = 1
	})
}

// BenchmarkAblationRealCrypto runs Spider with RSA-1024 signatures as
// in the paper, quantifying what the fast test crypto hides.
func BenchmarkAblationRealCrypto(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		cluster, err := harness.Build(harness.BuildOptions{
			System:    harness.SystemSpider,
			Scale:     p.Scale,
			SuiteKind: crypto.SuiteRSA,
			Seed:      p.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		recorders, err := cluster.RunWorkload(cluster.Opts.Regions, harness.Workload{
			ClientsPerRegion: p.Clients, Rate: p.Rate,
			Duration: p.Duration, Warmup: p.Warmup,
			Kind: core.KindWrite, ValueSize: 200,
		})
		if err != nil {
			cluster.Stop()
			b.Fatal(err)
		}
		merged := stats.NewRecorder()
		for _, rec := range recorders {
			merged.Merge(rec)
		}
		b.ReportMetric(float64(merged.Summarize().P50)/float64(time.Millisecond), "p50-ms")
		cluster.Stop()
	}
}

// --- RSA-suite agreement throughput ------------------------------------------

// benchPBFTThroughput measures raw agreement throughput of one
// 4-replica PBFT group under the given signature suite over a
// zero-latency in-process network, so CPU-bound crypto — not the WAN —
// is the bottleneck. A replica signs under its lock and verifies on
// each peer's delivery goroutine. auth selects signature-PBFT or the
// MAC-vector fast path. flows is the number of concurrent
// submitters. batch is the consensus batch size — a first-class
// workload dimension now that a batch crosses the whole data plane as
// one unit (one pre-prepare signature, one delivery callback).
func benchPBFTThroughput(b *testing.B, suite crypto.SuiteKind, flows int, auth pbft.AuthMode, batch int) {
	nodes := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: nodes, F: 1}
	suites := crypto.NewSuites(nodes, suite)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	var delivered atomic.Int64
	target := int64(b.N)
	done := make(chan struct{})
	replicas := make([]*pbft.Replica, 0, len(nodes))
	for _, id := range nodes {
		counting := id == nodes[0]
		r, err := pbft.New(pbft.Config{
			Group:          group,
			Suite:          suites[id],
			Node:           net.Node(id),
			Stream:         1,
			BatchSize:      batch,
			RequestTimeout: time.Minute, // saturation is not a faulty leader
			NormalCaseAuth: auth,
			Deliver: func(batch consensus.Batch) {
				if counting && delivered.Add(int64(len(batch.Payloads))) >= target {
					select {
					case <-done:
					default:
						close(done)
					}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	leader := replicas[0]
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	per := b.N / flows
	for f := 0; f < flows; f++ {
		count := per
		if f == 0 {
			count += b.N % flows
		}
		if count == 0 {
			continue
		}
		wg.Add(1)
		go func(f, count int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				leader.Order(fmt.Appendf(make([]byte, 0, 64), "flow-%04d-req-%08d", f, i))
			}
		}(f, count)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		b.Fatalf("delivered %d of %d requests before timeout", delivered.Load(), target)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}

// benchBatch is the historical batch size of the RSAThroughput* and
// MACThroughputSingleFlow benches, kept for comparability with the
// PR 1/PR 2 numbers.
const benchBatch = 8

// The "Pipeline" in the signature-PBFT names is historical: it keeps the
// names the committed BENCH_*.json snapshots compare by.
func BenchmarkRSAThroughputPipelineSingleFlow(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 1, pbft.AuthSignatures, benchBatch)
}

func BenchmarkRSAThroughputPipeline64Clients(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 64, pbft.AuthSignatures, benchBatch)
}

// The same signature-PBFT configurations under the Ed25519 suite: the
// per-suite rows snapshots compare against the RSAThroughput* set. The
// benchmark name carries the suite dimension.
func BenchmarkEd25519ThroughputPipelineSingleFlow(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteEd25519, 1, pbft.AuthSignatures, benchBatch)
}

func BenchmarkEd25519ThroughputPipeline64Clients(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteEd25519, 64, pbft.AuthSignatures, benchBatch)
}

// The MAC-vector fast path on the same RSA suite: prepare/commit carry
// HMAC vectors, only pre-prepare and checkpoint signing remains on the
// hot path. Compare against RSAThroughputPipeline* for the paper's
// agreement-cluster optimisation (acceptance: ≥1.5× single-flow even
// on one core, where it cannot hide behind parallelism).
func BenchmarkMACThroughputSingleFlow(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 1, pbft.AuthMACVector, benchBatch)
}

// MACThroughput64Clients runs with batching on (batch 64): under
// saturation the whole data plane — pre-prepare signing, MAC vectors,
// delivery callbacks, and downstream commit-channel sends — amortizes
// per batch, which is the end-to-end win the batched commit data plane
// exists for. The MACThroughputBatch* sweep below isolates the knob.
func BenchmarkMACThroughput64Clients(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 64, pbft.AuthMACVector, 64)
}

// Batch-size sweep at 64 concurrent flows: batch 1 restores
// request-at-a-time semantics (one signature and one position per
// request), the larger sizes show how far amortization carries.
func BenchmarkMACThroughputBatch1(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 64, pbft.AuthMACVector, 1)
}

func BenchmarkMACThroughputBatch8(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 64, pbft.AuthMACVector, 8)
}

func BenchmarkMACThroughputBatch64(b *testing.B) {
	benchPBFTThroughput(b, crypto.SuiteRSA, 64, pbft.AuthMACVector, 64)
}

// --- batch sweep ------------------------------------------------------------

// benchBatchSweep is the closed-loop variant of benchPBFTThroughput: a
// semaphore of `outstanding` permits bounds the requests in flight
// (permits release as the counting replica delivers), so the load
// level is the semaphore width rather than tight-loop saturation — a
// tight loop saturates at any flow count, which cannot express "low
// offered load". The pipeline window is 16 batches so the saturated
// level genuinely overruns it. Every level runs the one batching
// policy at one cap of 64: an idle leader proposes at once, a busy one
// takes what queued behind its in-flight instances, so the batch
// follows the load without retuning.
func benchBatchSweep(b *testing.B, outstanding int) {
	nodes := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: nodes, F: 1}
	suites := crypto.NewSuites(nodes, crypto.SuiteRSA)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	var delivered, target atomic.Int64
	target.Store(int64(1) << 62) // no finish line until the warmup is sized
	done := make(chan struct{})
	sem := make(chan struct{}, outstanding)
	for i := 0; i < outstanding; i++ {
		sem <- struct{}{}
	}
	occ := stats.NewOccupancy()
	replicas := make([]*pbft.Replica, 0, len(nodes))
	for _, id := range nodes {
		counting := id == nodes[0]
		r, err := pbft.New(pbft.Config{
			Group:              group,
			Suite:              suites[id],
			Node:               net.Node(id),
			Stream:             1,
			BatchSize:          64,
			BatchOccupancy:     occ,
			Window:             16,
			CheckpointInterval: 4,
			RequestTimeout:     time.Minute, // saturation is not a faulty leader
			NormalCaseAuth:     pbft.AuthMACVector,
			Deliver: func(batch consensus.Batch) {
				if !counting {
					return
				}
				for range batch.Payloads {
					sem <- struct{}{}
				}
				if delivered.Add(int64(len(batch.Payloads))) >= target.Load() {
					select {
					case <-done:
					default:
						close(done)
					}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// Warm up for half a second of wall clock before the timer starts,
	// so the measurement compares operating points, not start-up.
	leader := replicas[0]
	warmed := 0
	for warmUntil := time.Now().Add(500 * time.Millisecond); time.Now().Before(warmUntil); warmed++ {
		<-sem
		leader.Order(fmt.Appendf(make([]byte, 0, 64), "sweep-warm-%08d", warmed))
	}
	for delivered.Load() < int64(warmed) {
		time.Sleep(time.Millisecond)
	}
	target.Store(int64(warmed) + int64(b.N))
	occ.Reset()

	b.ResetTimer()
	start := time.Now()
	go func() {
		for i := 0; i < b.N; i++ {
			<-sem
			leader.Order(fmt.Appendf(make([]byte, 0, 64), "sweep-req-%08d", i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		b.Fatalf("delivered %d of %d requests before timeout", delivered.Load()-int64(warmed), b.N)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
	b.ReportMetric(occ.Summarize().Mean, "batch-mean")
}

// Low load: one request in flight, so every batch is a single request
// proposed by an idle leader.
func BenchmarkBatchSweepLow(b *testing.B) { benchBatchSweep(b, 1) }

// Medium load: the in-flight bound equals the pipeline window, so the
// leader sees intermittent queueing.
func BenchmarkBatchSweepMedium(b *testing.B) { benchBatchSweep(b, 16) }

// Saturated: in-flight far beyond the window keeps a standing queue.
func BenchmarkBatchSweepSaturated(b *testing.B) { benchBatchSweep(b, 128) }

// --- micro benchmarks ----------------------------------------------------------------

func BenchmarkMicroRSASign(b *testing.B) {
	suites := crypto.NewSuites([]ids.NodeID{1}, crypto.SuiteRSA)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suites[1].Sign(crypto.DomainPBFT, msg)
	}
}

func BenchmarkMicroRSAVerify(b *testing.B) {
	suites := crypto.NewSuites([]ids.NodeID{1, 2}, crypto.SuiteRSA)
	msg := make([]byte, 256)
	sig := suites[1].Sign(crypto.DomainPBFT, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := suites[2].Verify(1, crypto.DomainPBFT, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroWireEncode(b *testing.B) {
	op := core.ClientRequest{Kind: core.KindWrite, Client: 7, Counter: 42, Op: make([]byte, 200)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = wire.Encode(&op)
	}
}

func BenchmarkMicroKVExecute(b *testing.B) {
	kv := spider.NewKVStore()
	op := spider.PutOp("key", make([]byte, 200))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kv.Execute(op)
	}
}

// BenchmarkMicroEndToEndWrite measures a single client's write path on
// a minimal-latency deployment (protocol overhead without the WAN).
func BenchmarkMicroEndToEndWrite(b *testing.B) {
	cluster, err := harness.Build(harness.BuildOptions{
		System:    harness.SystemSpider,
		Regions:   []topo.Region{topo.Virginia},
		Scale:     0.001,
		SuiteKind: crypto.SuiteInsecure,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	client, err := cluster.NewClient(topo.Virginia)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(spider.PutOp(fmt.Sprintf("k%d", i%64), []byte("v"))); err != nil {
			b.Fatal(err)
		}
	}
}
