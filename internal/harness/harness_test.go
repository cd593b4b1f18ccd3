package harness

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/raceflag"
	"spider/internal/topo"
)

// tinyProfile keeps harness tests fast: scaled-down latencies, short
// runs, fast crypto.
func tinyProfile() RunProfile {
	return RunProfile{
		Scale:    0.05, // 5% of real WAN latency
		Clients:  1,
		Rate:     20,
		Duration: 1200 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
		Suite:    crypto.SuiteInsecure,
		Seed:     7,
	}
}

func TestBuildAllSystems(t *testing.T) {
	for _, system := range []System{SystemSpider, SystemSpider0E, SystemSpider1E, SystemBFT, SystemHFT, SystemWV} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			p := tinyProfile()
			mutate := func(o *BuildOptions) {}
			if system == SystemWV {
				mutate = func(o *BuildOptions) {
					o.Regions = append(append([]topo.Region{}, topo.EvalRegions...), topo.SaoPaulo)
				}
			}
			cluster, err := p.build(system, mutate)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer cluster.Stop()

			recorders, err := cluster.RunWorkload([]topo.Region{topo.Virginia, topo.Tokyo}, Workload{
				ClientsPerRegion: 1,
				Rate:             20,
				Duration:         1200 * time.Millisecond,
				Warmup:           100 * time.Millisecond,
				Kind:             core.KindWrite,
			})
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			for region, rec := range recorders {
				if rec.Count() == 0 {
					t.Errorf("%s: no samples from %s", system, region)
				}
			}
		})
	}
}

func TestLatencyOrderingSpiderVsBFT(t *testing.T) {
	// The paper's headline result in miniature: for clients co-located
	// with the agreement region, Spider writes complete far faster
	// than BFT writes (no wide-area consensus).
	if raceflag.Enabled {
		t.Skip("latency ordering at 5% WAN scale is distorted by race-detector slowdown")
	}
	p := tinyProfile()
	p.Duration = 2 * time.Second

	spider, err := runLatency(p, SystemSpider, "", core.KindWrite, nil)
	if err != nil {
		t.Fatalf("spider: %v", err)
	}
	bft, err := runLatency(p, SystemBFT, "", core.KindWrite, nil)
	if err != nil {
		t.Fatalf("bft: %v", err)
	}
	get := func(rows []LatencyRow, r topo.Region) time.Duration {
		for _, row := range rows {
			if row.Region == r && row.Summary.Count > 0 {
				return row.Summary.P50
			}
		}
		t.Fatalf("no samples for %s", r)
		return 0
	}
	spiderV := get(spider, topo.Virginia)
	bftV := get(bft, topo.Virginia)
	if spiderV >= bftV {
		t.Errorf("Spider Virginia p50 %v not below BFT %v", spiderV, bftV)
	}
}

func TestWeakReadFastPath(t *testing.T) {
	p := tinyProfile()
	rows, err := runLatency(p, SystemSpider, "", core.KindWeakRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Summary.Count == 0 {
			t.Fatalf("no weak reads from %s", row.Region)
		}
		// Weak reads stay inside the client's region: with 5% scale
		// the paper's ~2ms becomes sub-millisecond; anything above a
		// scaled WAN hop means the fast path failed.
		if row.Summary.P50 > 20*time.Millisecond {
			t.Errorf("%s weak read p50 = %v, fast path broken", row.Region, row.Summary.P50)
		}
	}
}

func TestAddRegionSpider(t *testing.T) {
	p := tinyProfile()
	cluster, err := p.build(SystemSpider, func(o *BuildOptions) {
		o.ExtraRegions = []topo.Region{topo.SaoPaulo}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	// Traffic before and during the join, as in Figure 10.
	h, err := cluster.StartWorkload([]topo.Region{topo.Virginia}, Workload{
		ClientsPerRegion: 1, Rate: 20, Duration: 5 * time.Second, Kind: core.KindWrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cluster.AddRegion(topo.SaoPaulo); err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	// New clients in São Paulo must make progress against their local
	// group.
	client, err := cluster.NewClient(topo.SaoPaulo)
	if err != nil {
		t.Fatal(err)
	}
	spGroup := cluster.groupOf[topo.SaoPaulo]
	if !spGroup.ID.Valid() || spGroup.ID == cluster.globalGroup.ID {
		t.Fatalf("São Paulo clients not on a local group: %+v", spGroup)
	}
	if client.Group().ID != spGroup.ID {
		t.Fatalf("client wired to group %v, want %v", client.Group().ID, spGroup.ID)
	}
	h.Stop()
}

func TestIRMCBenchSmoke(t *testing.T) {
	for _, kind := range []string{"rc", "sc"} {
		row, err := RunIRMCBench(IRMCBenchOptions{
			Kind:     kind,
			Size:     256,
			Duration: 800 * time.Millisecond,
			Scale:    0.02,
			Suite:    crypto.SuiteInsecure,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if row.Throughput <= 0 {
			t.Errorf("%s: zero throughput", kind)
		}
		if row.WANMBps <= 0 {
			t.Errorf("%s: no WAN traffic measured", kind)
		}
	}
}

// TestSpiderRecordsBatchOccupancy: a Spider run must populate the
// batch-occupancy recorders (requests per proposed batch and per
// commit-channel Send) so figure output can show batch utilisation.
func TestSpiderRecordsBatchOccupancy(t *testing.T) {
	p := tinyProfile()
	cluster, err := p.build(SystemSpider, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer cluster.Stop()
	if _, err := cluster.RunWorkload([]topo.Region{topo.Virginia}, Workload{
		ClientsPerRegion: 2,
		Rate:             30,
		Duration:         800 * time.Millisecond,
		Kind:             core.KindWrite,
	}); err != nil {
		t.Fatalf("workload: %v", err)
	}
	batch := cluster.BatchOccSummary()
	send := cluster.SendOccSummary()
	if batch.Count == 0 || batch.Total == 0 {
		t.Errorf("no batch occupancy recorded: %+v", batch)
	}
	if send.Count == 0 {
		t.Errorf("no send occupancy recorded: %+v", send)
	}
	if batch.Max > 0 && batch.Mean < 1 {
		t.Errorf("implausible batch occupancy: %+v", batch)
	}
}

// TestShardedStatsCountExactlyOnce drives an exact number of writes
// through a two-shard Spider cluster and checks the aggregated
// counters event for event: every request is counted in exactly one
// shard's batch-occupancy recorder (total == writes), and every
// request is charged to the send-occupancy recorder once per
// agreement replica per destination group (4 replicas x 1 group).
// Double aggregation — summing a recorder twice, or two shards
// sharing one recorder — would break these equalities.
func TestShardedStatsCountExactlyOnce(t *testing.T) {
	p := tinyProfile()
	cluster, err := p.build(SystemSpider, func(o *BuildOptions) { o.Shards = 2 })
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer cluster.Stop()
	client, err := cluster.NewClient(topo.Virginia)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	cluster.ResetStats()

	const writes = 20
	for i := 0; i < writes; i++ {
		op := app.EncodeOp(app.Op{Kind: app.OpPut, Key: fmt.Sprintf("count-%02d", i), Value: []byte("v")})
		if _, err := client.Write(op); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	batch := cluster.BatchOccSummary()
	if batch.Total != writes {
		t.Errorf("batch occupancy total = %d, want %d (requests double counted or lost)", batch.Total, writes)
	}
	// Commit channels broadcast every ordered request to all execution
	// groups, and each of the agreement replicas charges its own sends.
	agreementReplicas := int64(len(cluster.spiderAgreement.Members))
	execGroups := int64(len(cluster.spiderGroups))
	want := agreementReplicas * execGroups * writes
	// A write returns on fe+1 replies, which need only fs+1 agreement
	// replicas' sends: give the slowest replica time to make its own.
	for deadline := time.Now().Add(5 * time.Second); cluster.SendOccSummary().Total < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if send := cluster.SendOccSummary(); send.Total != want {
		t.Errorf("send occupancy total = %d, want %d (%d replicas x %d groups x %d writes)",
			send.Total, want, agreementReplicas, execGroups, writes)
	}
	// Both shards carried traffic: with one shared recorder this can
	// hold while the per-shard split is lost, so check the split too.
	perShard := 0
	for _, occ := range cluster.batchOcc {
		if occ.Summarize().Total > 0 {
			perShard++
		}
	}
	if perShard != 2 {
		t.Errorf("traffic landed in %d shard recorders, want 2 (routing or wiring collapsed shards)", perShard)
	}
}

// TestShardedAdaptiveIndependent: with AdaptiveBatching on in a
// two-shard cluster, each shard's leader runs its own controller fed
// by its own arrival recorder. Saturating shard 0 while trickling
// shard 1 must grow only shard 0's batch target, and the per-shard
// stats must still merge exactly once (every ordered request appears
// in exactly one shard's arrival total and batch-occupancy recorder).
func TestShardedAdaptiveIndependent(t *testing.T) {
	p := tinyProfile()
	cluster, err := p.build(SystemSpider, func(o *BuildOptions) {
		o.Shards = 2
		o.AdaptiveBatching = true
		o.AdaptiveWindows = true
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer cluster.Stop()
	cluster.ResetStats()

	// Keys pinned to a shard by probing the routing hash.
	m := core.ShardMap{Shards: 2}
	keyFor := func(shard core.ShardID, i int) string {
		for j := 0; ; j++ {
			k := fmt.Sprintf("adapt-%d-%d-%d", shard, i, j)
			if m.Of(k) == shard {
				return k
			}
		}
	}
	write := func(client *core.Client, key string) error {
		op := app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: []byte("v")})
		_, err := client.Write(op)
		return err
	}

	// More closed-loop writers than the 64-slot agreement window keep
	// shard 0's leader genuinely backlogged (requests queue once the
	// pipeline is full — that backlog is the controller's grow signal);
	// between waves a single sequential writer trickles shard 1.
	const writers = 96
	clients := make([]*core.Client, writers)
	for i := range clients {
		if clients[i], err = cluster.NewClient(topo.Virginia); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	shard0Writes, shard1Writes := 0, 0
	shard0Target := func() int {
		max := 0
		for _, tgt := range cluster.BatchTargets()[0] {
			if tgt > max {
				max = tgt
			}
		}
		return max
	}
	deadline := time.Now().Add(30 * time.Second)
	for wave := 0; shard0Target() < 4; wave++ {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 batch target stuck at %d (targets %v)", shard0Target(), cluster.BatchTargets())
		}
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				var err error
				for i := 0; i < 6 && err == nil; i++ {
					err = write(clients[w], keyFor(0, wave*writers*6+w*6+i))
				}
				errs <- err
			}(w)
		}
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				t.Fatalf("saturation wave %d: %v", wave, err)
			}
		}
		shard0Writes += writers * 6
		if err := write(clients[0], keyFor(1, wave)); err != nil {
			t.Fatalf("trickle write %d: %v", wave, err)
		}
		shard1Writes++
	}

	targets := cluster.BatchTargets()
	for _, tgt := range targets[1] {
		if tgt != 1 {
			t.Errorf("trickle shard 1 batch target = %d, want 1 (controllers not independent): %v", tgt, targets)
		}
	}

	// Exactly-once accounting across shards: every request the leaders
	// admitted shows up once in its shard's arrival recorder (never the
	// other shard's), and the merged batch-occupancy total covers each
	// admitted request exactly once — a recorder shared across shards
	// or merged twice breaks these equalities.
	arrivals := cluster.ArrivalTotals()
	if len(arrivals) != 2 {
		t.Fatalf("arrival recorders = %d, want 2", len(arrivals))
	}
	if arrivals[0] < int64(shard0Writes) || arrivals[1] != int64(shard1Writes) {
		t.Errorf("arrival totals = %v, want [>=%d %d]", arrivals, shard0Writes, shard1Writes)
	}
	if batch := cluster.BatchOccSummary(); batch.Total != arrivals[0]+arrivals[1] {
		t.Errorf("batch occupancy total = %d, want %d admitted requests", batch.Total, arrivals[0]+arrivals[1])
	}
	if rate := cluster.ArrivalRate(); rate < 0 {
		t.Errorf("merged arrival rate = %f", rate)
	}

	// The window resize loop is live: every commit channel reports an
	// effective capacity within the configured bounds.
	caps := cluster.CommitWindowCapacities()
	if len(caps) == 0 {
		t.Error("no commit-window capacities reported under AdaptiveWindows")
	}
	for gid, capy := range caps {
		if capy < 1 {
			t.Errorf("group %d effective window capacity = %d", gid, capy)
		}
	}
}

// TestShardBuildValidation: the harness rejects shard counts above the
// protocol limit and sharding of systems without per-shard sessions.
func TestShardBuildValidation(t *testing.T) {
	p := tinyProfile()
	if _, err := p.build(SystemSpider, func(o *BuildOptions) { o.Shards = core.MaxShards + 1 }); err == nil {
		t.Error("shards above MaxShards accepted")
	}
	if _, err := p.build(SystemBFT, func(o *BuildOptions) { o.Shards = 2 }); err == nil {
		t.Error("sharded BFT baseline accepted")
	}
}

// TestWorkloadKeySkew: the Zipf knob produces a working workload whose
// key choices actually skew (the hottest key dominates a uniform
// workload's per-key share).
func TestWorkloadKeySkew(t *testing.T) {
	p := tinyProfile()
	cluster, err := p.build(SystemSpider, func(o *BuildOptions) { o.Shards = 2 })
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer cluster.Stop()
	recorders, err := cluster.RunWorkload([]topo.Region{topo.Virginia}, Workload{
		ClientsPerRegion: 2,
		Rate:             30,
		Duration:         800 * time.Millisecond,
		Kind:             core.KindWrite,
		KeySkew:          1.2,
	})
	if err != nil {
		t.Fatalf("skewed workload: %v", err)
	}
	for region, rec := range recorders {
		if rec.Count() == 0 {
			t.Errorf("no samples from %s under key skew", region)
		}
	}
}

func TestRenderers(t *testing.T) {
	rows := []LatencyRow{{System: "SPIDER", Leader: "Leader in V-1", Region: topo.Virginia}}
	if out := RenderLatencyRows("test", rows); len(out) == 0 {
		t.Error("empty latency render")
	}
	series := map[string][]TimelinePoint{"SPIDER": {{System: "SPIDER", Offset: time.Second, Mean: time.Millisecond, Count: 3}}}
	if out := RenderTimeline("test", series); len(out) == 0 {
		t.Error("empty timeline render")
	}
	irmc := []IRMCRow{{Impl: "IRMC-RC", MessageSize: 256, Throughput: 100}}
	if out := RenderIRMCRows("test", irmc); len(out) == 0 {
		t.Error("empty irmc render")
	}
}
