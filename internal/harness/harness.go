// Package harness assembles complete deployments of every evaluated
// architecture — Spider (and its 0E/1E ablation variants), the BFT
// baseline, HFT, and BFT-WV — on the emulated WAN, places replicas and
// clients exactly as the paper's evaluation does (Section 5), drives
// workloads against them, and provides one runner per figure of the
// evaluation (figures.go).
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"spider/internal/app"
	"spider/internal/baseline/bftgeo"
	"spider/internal/baseline/hft"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/storage"
	"spider/internal/topo"
	"spider/internal/transport/memnet"
)

// System identifies an evaluated architecture.
type System string

// The evaluated systems.
const (
	SystemSpider   System = "SPIDER"
	SystemSpider0E System = "SPIDER-0E" // agreement group executes, no IRMC
	SystemSpider1E System = "SPIDER-1E" // one co-located execution group
	SystemBFT      System = "BFT"
	SystemHFT      System = "HFT"
	SystemWV       System = "BFT-WV"
)

// nearbyRegion maps each primary region to the extra fault domain used
// for f=2 deployments (Section 5, "Tolerating Two Faults").
var nearbyRegion = map[topo.Region]topo.Region{
	topo.Virginia: topo.Ohio,
	topo.Oregon:   topo.California,
	topo.Ireland:  topo.London,
	topo.Tokyo:    topo.Seoul,
	topo.SaoPaulo: topo.SaoPaulo, // no separate neighbour; reuse zones
}

// BuildOptions selects what to deploy.
type BuildOptions struct {
	// System picks the architecture.
	System System
	// F is the per-group fault threshold (1 in most experiments, 2 in
	// Figure 11).
	F int
	// Regions are the client regions (default: the paper's four).
	Regions []topo.Region
	// ExtraRegions may join later via AddRegion (Figure 10's São
	// Paulo); their identities are provisioned up front.
	ExtraRegions []topo.Region
	// AgreementRegion hosts Spider's agreement group (default
	// Virginia) and is the default leader region.
	AgreementRegion topo.Region
	// LeaderIndex rotates the leader: for Spider the agreement
	// replica (availability zone), for BFT/WV the region index, for
	// HFT the site index.
	LeaderIndex int
	// Scale multiplies all emulated latencies (1.0 = calibrated WAN).
	Scale float64
	// JitterFrac adds random per-message latency.
	JitterFrac float64
	// Seed makes jitter reproducible.
	Seed int64
	// SuiteKind selects real RSA or fast test crypto.
	SuiteKind crypto.SuiteKind
	// Channel selects Spider's IRMC implementation.
	Channel core.ChannelKind
	// SlackGroups is Spider's z parameter.
	SlackGroups int
	// VmaxRegions lists BFT-WV's high-weight replicas by region
	// (default: first two of Regions).
	VmaxRegions []topo.Region
	// ConsensusAuth selects PBFT's normal-case authentication for
	// Spider's agreement group (default: MAC vectors, the paper's
	// optimisation; pbft.AuthSignatures restores the signed variant).
	ConsensusAuth pbft.AuthMode
	// CommitDedup selects whether Spider's commit channels substitute
	// by-digest references for request content the destination group
	// forwarded (default on; core.DedupOff for the ablation).
	CommitDedup core.DedupMode
	// Shards runs S independent Spider agreement sessions over a
	// partitioned keyspace (default 1; Spider and Spider-1E only).
	// Shard s reuses the same physical nodes under shard-qualified
	// group ids, so no extra identities are provisioned; clients route
	// each operation by key hash. Shards: 1 is byte-for-byte the
	// unsharded system.
	Shards int
	// AdaptiveBatching enables the self-tuning batch controller on
	// every Spider agreement session: the leader swings its effective
	// batch size and flush delay with measured offered load instead of
	// sitting on the static knobs (default off).
	AdaptiveBatching bool
	// AdaptiveWindows auto-sizes the commit channels' effective send
	// windows from measured drain rate (default off).
	AdaptiveWindows bool
	// StateDir, when set, gives every Spider replica a write-behind
	// persistent store under <StateDir>/n<node>-s<shard>-<kind>, so a
	// replica crashed with CrashNode and brought back with RestartNode
	// rehydrates from its on-disk checkpoint and log suffix instead of
	// cold-starting into a full state fetch.
	StateDir string
	// SuspectSlowLeader arms the gray-failure defense on every Spider
	// agreement session: replicas monitor the leader's delivery
	// throughput and proposal latency and proactively rotate a leader
	// that underperforms without crashing (default off).
	SuspectSlowLeader bool
}

func (o *BuildOptions) applyDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if len(o.Regions) == 0 {
		o.Regions = append([]topo.Region{}, topo.EvalRegions...)
	}
	if o.AgreementRegion == "" {
		o.AgreementRegion = topo.Virginia
	}
	if o.F <= 0 {
		o.F = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.JitterFrac < 0 {
		o.JitterFrac = 0
	}
}

// maxClients bounds pre-provisioned client identities per cluster.
const maxClients = 512

// Cluster is a running deployment.
type Cluster struct {
	Opts      BuildOptions
	Net       *memnet.Network
	Placement *topo.Placement

	suites map[ids.NodeID]crypto.Suite

	mu         sync.Mutex
	nextClient ids.ClientID
	clientsOf  map[topo.Region][]*core.Client

	// Spider state.
	spiderAgreement ids.Group
	spiderGroups    map[topo.Region]ids.Group
	spiderPending   map[topo.Region]ids.Group // provisioned, not yet added
	adminID         ids.ClientID
	admin           *core.Client
	records         []*replicaRecord
	byNode          map[ids.NodeID][]*replicaRecord

	// Per-shard occupancy recorders and commit-channel counters: shard
	// s's Spider replicas record only into index s, so each event is
	// charged to exactly one recorder and read-time aggregation (the
	// accessor methods below) counts it exactly once. A single-shard
	// deployment has one entry each.
	batchOcc []*stats.Occupancy
	sendOcc  []*stats.Occupancy
	commit   []*core.CommitStats
	arrival  []*stats.Rate

	// Baseline state.
	globalGroup ids.Group                 // BFT / WV / Spider-0E
	hftSites    []ids.Group               // HFT
	hftSiteOf   map[topo.Region]int       // client region -> site index
	groupOf     map[topo.Region]ids.Group // client region -> contact group

	stops []func()
}

// Replica kinds tracked by replicaRecord.
const (
	kindExec  = "exec"
	kindAgree = "agree"
)

// replicaRecord tracks one Spider replica instance — everything needed
// to rebuild it in place after a crash. Baseline systems keep the old
// stop-closure lifecycle; only Spider replicas are crash-restartable.
type replicaRecord struct {
	node    ids.NodeID
	shard   core.ShardID
	kind    string      // kindExec or kindAgree
	group   ids.Group   // shard-qualified group the replica serves
	peers   []ids.Group // exec: the other groups' shard variants
	entries []core.GroupEntry
	region  topo.Region
	dir     string // persistent state dir ("" without StateDir)

	running bool
	exec    *core.ExecutionReplica
	agree   *core.AgreementReplica
}

// Build deploys the selected system onto a fresh emulated WAN.
func Build(opts BuildOptions) (*Cluster, error) {
	opts.applyDefaults()
	c := &Cluster{
		Opts:          opts,
		Placement:     topo.NewPlacement(opts.Scale),
		nextClient:    10001,
		clientsOf:     make(map[topo.Region][]*core.Client),
		spiderGroups:  make(map[topo.Region]ids.Group),
		spiderPending: make(map[topo.Region]ids.Group),
		byNode:        make(map[ids.NodeID][]*replicaRecord),
		hftSiteOf:     make(map[topo.Region]int),
		groupOf:       make(map[topo.Region]ids.Group),
	}
	if opts.Shards > core.MaxShards {
		return nil, fmt.Errorf("harness: %d shards exceed the maximum of %d", opts.Shards, core.MaxShards)
	}
	if opts.Shards > 1 && opts.System != SystemSpider && opts.System != SystemSpider1E {
		return nil, fmt.Errorf("harness: system %q does not support sharding", opts.System)
	}
	for s := 0; s < opts.Shards; s++ {
		c.batchOcc = append(c.batchOcc, stats.NewOccupancy())
		c.sendOcc = append(c.sendOcc, stats.NewOccupancy())
		c.commit = append(c.commit, &core.CommitStats{})
		c.arrival = append(c.arrival, stats.NewRate(time.Second))
	}
	c.Net = memnet.New(memnet.Options{
		Placement:  c.Placement,
		JitterFrac: opts.JitterFrac,
		Seed:       opts.Seed,
	})

	// Identity plan: replicas first, then clients.
	alloc := newIDAllocator()
	plan := c.planIdentities(alloc)
	allIDs := append([]ids.NodeID{}, plan...)
	for i := 0; i < maxClients; i++ {
		allIDs = append(allIDs, ids.NodeID(10001+i))
	}
	c.suites = crypto.NewSuites(allIDs, opts.SuiteKind)

	var err error
	switch opts.System {
	case SystemSpider, SystemSpider1E:
		err = c.buildSpider()
	case SystemSpider0E:
		err = c.buildSpider0E()
	case SystemBFT:
		err = c.buildBFT(nil)
	case SystemWV:
		err = c.buildWV()
	case SystemHFT:
		err = c.buildHFT()
	default:
		err = fmt.Errorf("harness: unknown system %q", opts.System)
	}
	if err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// BatchOccSummary aggregates the per-shard batch-occupancy recorders
// (requests per proposed consensus batch): each shard's observations
// are merged exactly once at read time.
func (c *Cluster) BatchOccSummary() stats.OccupancySummary {
	return mergeOccupancy(c.batchOcc)
}

// SendOccSummary aggregates the per-shard commit-channel Send
// occupancy recorders.
func (c *Cluster) SendOccSummary() stats.OccupancySummary {
	return mergeOccupancy(c.sendOcc)
}

func mergeOccupancy(shards []*stats.Occupancy) stats.OccupancySummary {
	agg := stats.NewOccupancy()
	for _, o := range shards {
		agg.Merge(o)
	}
	return agg.Summarize()
}

// ArrivalRate aggregates the per-shard offered-load recorders the
// adaptive batch controllers feed (req/s over a 1s sliding window,
// merged exactly once at read time). Zero unless AdaptiveBatching ran
// load recently.
func (c *Cluster) ArrivalRate() float64 {
	agg := stats.NewRate(time.Second)
	for _, r := range c.arrival {
		agg.Merge(r)
	}
	return agg.PerSecond()
}

// ArrivalTotals reports each shard's all-time admitted-request count
// from the adaptive controllers' rate recorders, in shard order.
// Sharded-stats tests use it to pin exactly-once accounting.
func (c *Cluster) ArrivalTotals() []int64 {
	out := make([]int64, len(c.arrival))
	for i, r := range c.arrival {
		out[i] = r.Total()
	}
	return out
}

// BatchTargets reports the current consensus batch-size target of
// every running agreement replica, grouped by shard. Under
// AdaptiveBatching only the leader's controller sees proposals, so a
// shard's adapted target is the maximum of its replicas'.
func (c *Cluster) BatchTargets() map[core.ShardID][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[core.ShardID][]int)
	for _, rec := range c.records {
		if rec.kind != kindAgree || !rec.running || rec.agree == nil {
			continue
		}
		if t, ok := rec.agree.BatchTarget(); ok {
			out[rec.shard] = append(out[rec.shard], t)
		}
	}
	return out
}

// CommitWindowCapacities reports the effective commit-channel send
// window capacity per execution group, from the shard-0 agreement
// replica hosting the consensus leader's node (all replicas resize
// independently from the same ack stream, so any running one is
// representative).
func (c *Cluster) CommitWindowCapacities() map[ids.GroupID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range c.records {
		if rec.kind == kindAgree && rec.running && rec.agree != nil && rec.shard == 0 {
			return rec.agree.CommitWindowCapacities()
		}
	}
	return nil
}

// CommitSummary aggregates the per-shard commit-channel byte and
// dedup counters of every Spider agreement and execution replica.
func (c *Cluster) CommitSummary() core.CommitSummary {
	var sum core.CommitSummary
	for _, cs := range c.commit {
		sum = sum.Add(cs.Summarize())
	}
	return sum
}

// ResetStats zeroes every shard's occupancy recorders and commit
// counters (benchmarks reset after warmup).
func (c *Cluster) ResetStats() {
	for _, o := range c.batchOcc {
		o.Reset()
	}
	for _, o := range c.sendOcc {
		o.Reset()
	}
	for _, cs := range c.commit {
		cs.Reset()
	}
	for _, r := range c.arrival {
		r.Reset()
	}
}

// Stop shuts everything down.
func (c *Cluster) Stop() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
	c.mu.Lock()
	recs := c.records
	c.records = nil
	c.mu.Unlock()
	for i := len(recs) - 1; i >= 0; i-- {
		stopRecord(recs[i])
	}
	c.Net.Close()
}

func stopRecord(rec *replicaRecord) {
	if rec.exec != nil {
		rec.exec.Stop()
		rec.exec = nil
	}
	if rec.agree != nil {
		rec.agree.Stop()
		rec.agree = nil
	}
	rec.running = false
}

// --- chaos control surface ----------------------------------------------------

// CrashNode fail-stops every Spider replica hosted on the node: the
// node is cut off from the network (in-flight frames addressed to it
// vanish, as with a real process crash) and each instance is stopped,
// which flushes and closes its persistent store. Only Spider replicas
// built through records are crashable.
func (c *Cluster) CrashNode(id ids.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.byNode[id]
	if len(recs) == 0 {
		return fmt.Errorf("harness: node %d hosts no crashable replicas", id)
	}
	c.Net.Isolate(id, true)
	for _, rec := range recs {
		if rec.running {
			stopRecord(rec)
		}
	}
	return nil
}

// RestartNode rebuilds every crashed replica on the node from its
// persistent store (when StateDir is set) and reconnects the node. The
// replicas register their handlers before the isolation lifts, so no
// frame races the restart.
func (c *Cluster) RestartNode(id ids.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.byNode[id]
	if len(recs) == 0 {
		return fmt.Errorf("harness: node %d hosts no restartable replicas", id)
	}
	for _, rec := range recs {
		if rec.running {
			continue
		}
		if err := c.startRecord(rec); err != nil {
			return err
		}
	}
	c.Net.Isolate(id, false)
	return nil
}

// ExecProbe is one execution replica's divergence probe: two probes of
// the same group and shard at the same sequence number must carry the
// same digest.
type ExecProbe struct {
	Node   ids.NodeID
	Group  ids.GroupID
	Shard  core.ShardID
	Region topo.Region
	Seq    ids.SeqNr
	Digest crypto.Digest
}

// ExecProbes samples every running execution replica.
func (c *Cluster) ExecProbes() []ExecProbe {
	c.mu.Lock()
	var live []*replicaRecord
	for _, rec := range c.records {
		if rec.kind == kindExec && rec.running && rec.exec != nil {
			live = append(live, rec)
		}
	}
	c.mu.Unlock()
	out := make([]ExecProbe, 0, len(live))
	for _, rec := range live {
		seq, dig := rec.exec.SnapshotInfo()
		out = append(out, ExecProbe{
			Node:   rec.node,
			Group:  rec.group.ID,
			Shard:  rec.shard,
			Region: rec.region,
			Seq:    seq,
			Digest: dig,
		})
	}
	return out
}

// AgreementLeader reports the consensus leader of the (shard 0)
// agreement group as seen by the running replica with the highest
// installed view — the freshest opinion available during churn.
func (c *Cluster) AgreementLeader() (ids.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var leader ids.NodeID
	bestView := uint64(0)
	found := false
	for _, rec := range c.records {
		if rec.kind != kindAgree || !rec.running || rec.agree == nil || rec.shard != 0 {
			continue
		}
		id, ok := rec.agree.ConsensusLeader()
		if !ok {
			continue
		}
		view, _ := rec.agree.ConsensusView()
		if !found || view > bestView {
			leader, bestView, found = id, view, true
		}
	}
	return leader, found
}

// FetchCalls reports how many full-state checkpoint fetches the node's
// execution replicas have issued since their last (re)start. A warm
// restart from disk must keep this at zero.
func (c *Cluster) FetchCalls(id ids.NodeID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, rec := range c.byNode[id] {
		if rec.exec != nil {
			total += rec.exec.FetchCalls()
		}
	}
	return total
}

// ExecNodes returns the nodes hosting the region's execution group.
func (c *Cluster) ExecNodes(region topo.Region) []ids.NodeID {
	g, ok := c.spiderGroups[region]
	if !ok {
		return nil
	}
	return append([]ids.NodeID{}, g.Members...)
}

// AgreementNodes returns the agreement group's nodes, leader first.
func (c *Cluster) AgreementNodes() []ids.NodeID {
	return append([]ids.NodeID{}, c.spiderAgreement.Members...)
}

// DegradeNode turns the node into a gray performer: every frame it
// sends is delayed by roughly delay (±jitter fraction) on top of the
// emulated WAN latency, but nothing is dropped and the node keeps
// running. This is the failure mode crash detectors miss — the node
// answers everything, just slowly.
func (c *Cluster) DegradeNode(id ids.NodeID, delay time.Duration, jitter float64) {
	c.Net.Degrade(id, delay, jitter)
}

// RestoreNode lifts a DegradeNode slowdown.
func (c *Cluster) RestoreNode(id ids.NodeID) {
	c.Net.Restore(id)
}

// GrayStats aggregates the gray-failure defense counters of the
// shard-0 agreement session.
type GrayStats struct {
	// ViewChanges is the highest view-change count any replica entered
	// (timeout-driven and proactive alike).
	ViewChanges uint64
	// Rotations counts proactive slow-leader rotations triggered by the
	// performance monitor; Reasons holds their recorded explanations.
	Rotations uint64
	Reasons   []string
	// ViewRates is per-view delivery throughput as seen by the replica
	// with the freshest view, empty unless SuspectSlowLeader is on.
	ViewRates []pbft.ViewRate
}

// GrayFailureStats reports the shard-0 agreement session's view-change
// and proactive-rotation counters. Each replica counts independently
// (monitors are per-replica local state), so the cluster-level figure
// is the maximum across running replicas.
func (c *Cluster) GrayFailureStats() GrayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out GrayStats
	bestView := uint64(0)
	haveView := false
	for _, rec := range c.records {
		if rec.kind != kindAgree || !rec.running || rec.agree == nil || rec.shard != 0 {
			continue
		}
		if vc, ok := rec.agree.ConsensusViewChanges(); ok && vc > out.ViewChanges {
			out.ViewChanges = vc
		}
		if n, reasons, ok := rec.agree.ConsensusRotations(); ok && n >= out.Rotations && n > 0 {
			out.Rotations = n
			out.Reasons = reasons
		}
		if view, ok := rec.agree.ConsensusView(); ok {
			if rates := rec.agree.ConsensusViewRates(); len(rates) > 0 && (!haveView || view > bestView) {
				out.ViewRates = rates
				bestView, haveView = view, true
			}
		}
	}
	return out
}

// PartitionRegions splits the emulated WAN so the named regions can
// only talk among themselves.
func (c *Cluster) PartitionRegions(regions ...topo.Region) {
	c.Net.Partition(regions...)
}

// HealPartition removes the active partition.
func (c *Cluster) HealPartition() {
	c.Net.Heal()
}

// --- identity planning ------------------------------------------------------

type idAllocator struct{ next ids.NodeID }

func newIDAllocator() *idAllocator { return &idAllocator{next: 1} }

func (a *idAllocator) take(n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = a.next
		a.next++
	}
	return out
}

// planIdentities allocates every replica id the deployment (and its
// future extensions) will need and records their placement.
func (c *Cluster) planIdentities(alloc *idAllocator) []ids.NodeID {
	opts := &c.Opts
	var all []ids.NodeID
	place := func(nodes []ids.NodeID, region topo.Region, zoneOf func(i int) (topo.Region, int)) {
		for i, n := range nodes {
			r, z := region, i
			if zoneOf != nil {
				r, z = zoneOf(i)
			}
			c.Placement.Place(n, topo.Site{Region: r, Zone: z})
			all = append(all, n)
		}
	}
	// execGroupZones spreads 2f+1 replicas over the region's zones,
	// spilling extras into the nearby region for f=2.
	execSpread := func(region topo.Region) func(int) (topo.Region, int) {
		return func(i int) (topo.Region, int) {
			if i < 3 {
				return region, i
			}
			return nearbyRegion[region], i - 3
		}
	}

	switch opts.System {
	case SystemSpider, SystemSpider1E:
		agreeN := 3*opts.F + 1
		agree := alloc.take(agreeN)
		place(agree, opts.AgreementRegion, func(i int) (topo.Region, int) {
			if i < 4 {
				return opts.AgreementRegion, i
			}
			return nearbyRegion[opts.AgreementRegion], i - 4
		})
		c.spiderAgreement = ids.Group{ID: 1, Members: rotate(agree, opts.LeaderIndex), F: opts.F}

		regions := opts.Regions
		if opts.System == SystemSpider1E {
			regions = []topo.Region{opts.AgreementRegion}
		}
		gid := ids.GroupID(10)
		for _, r := range regions {
			members := alloc.take(2*opts.F + 1)
			place(members, r, execSpread(r))
			c.spiderGroups[r] = ids.Group{ID: gid, Members: members, F: opts.F}
			gid += 10
		}
		for _, r := range opts.ExtraRegions {
			members := alloc.take(2*opts.F + 1)
			place(members, r, execSpread(r))
			c.spiderPending[r] = ids.Group{ID: gid, Members: members, F: opts.F}
			gid += 10
		}
	case SystemSpider0E:
		agreeN := 3*opts.F + 1
		agree := alloc.take(agreeN)
		place(agree, opts.AgreementRegion, nil)
		c.globalGroup = ids.Group{ID: 1, Members: rotate(agree, opts.LeaderIndex), F: opts.F}
	case SystemBFT:
		// One replica per region, zone 0; f=2 adds the nearby regions.
		var members []ids.NodeID
		regions := bftRegions(opts)
		for _, r := range regions {
			n := alloc.take(1)
			place(n, r, nil)
			members = append(members, n...)
		}
		c.globalGroup = ids.Group{ID: 1, Members: rotate(members, opts.LeaderIndex), F: opts.F}
	case SystemWV:
		var members []ids.NodeID
		for _, r := range wvRegions(opts) {
			n := alloc.take(1)
			place(n, r, nil)
			members = append(members, n...)
		}
		c.globalGroup = ids.Group{ID: 1, Members: rotate(members, opts.LeaderIndex), F: opts.F}
	case SystemHFT:
		gid := ids.GroupID(10)
		for si, r := range opts.Regions {
			members := alloc.take(3*opts.F + 1)
			place(members, r, func(i int) (topo.Region, int) {
				if i < 4 {
					return r, i
				}
				return nearbyRegion[r], i - 4
			})
			c.hftSites = append(c.hftSites, ids.Group{ID: gid, Members: members, F: opts.F})
			c.hftSiteOf[r] = si
			gid += 10
		}
	}
	return all
}

// bftRegions: replicas live in the client regions; an f=2 setup adds
// the nearby fault domains to reach 3f+1 = 7.
func bftRegions(opts *BuildOptions) []topo.Region {
	regions := append([]topo.Region{}, opts.Regions...)
	for len(regions) < 3*opts.F+1 {
		regions = append(regions, nearbyRegion[opts.Regions[len(regions)-len(opts.Regions)]])
	}
	return regions[:3*opts.F+1]
}

// wvRegions: 3f+1+Δ replicas with Δ = one per region beyond 3f+1.
func wvRegions(opts *BuildOptions) []topo.Region {
	return opts.Regions // Figure 10 uses five regions = 3f+1+1
}

// rotate returns members rotated so members[k] comes first (leader).
func rotate(members []ids.NodeID, k int) []ids.NodeID {
	if len(members) == 0 {
		return members
	}
	k = ((k % len(members)) + len(members)) % len(members)
	out := make([]ids.NodeID, 0, len(members))
	out = append(out, members[k:]...)
	out = append(out, members[:k]...)
	return out
}

// --- system builders ----------------------------------------------------------

func (c *Cluster) spiderTunables() core.Tunables {
	return core.Tunables{
		SlackGroups: c.Opts.SlackGroups,
		Channel:     c.Opts.Channel,
		// Moderate checkpoint intervals keep joining groups' catch-up
		// time short (a new group needs a checkpoint covering its
		// join point before it can execute; Section 3.6).
		ExecutionCheckpointInterval: 16,
		AgreementCheckpointInterval: 16,
		CommitChannelCapacity:       64,
		AgreementWindow:             64,
		ChannelProgressMS:           50,
		ChannelCollectorMS:          1000,
	}
}

// shardMap returns the deployment's keyspace partition.
func (c *Cluster) shardMap() core.ShardMap {
	return core.ShardMap{Shards: c.Opts.Shards}
}

// buildSpider deploys one complete Spider session per shard: shard s
// reuses the same agreement and execution nodes under shard-qualified
// group ids (agreement 1+s, execution base+s), so every session gets
// its own PBFT instance, IRMC lanes, flow-control windows and
// checkpoint stream while sharing the crypto pipeline and transport.
// With Shards: 1 the loop degenerates to exactly the unsharded build.
func (c *Cluster) buildSpider() error {
	c.adminID = ids.ClientID(10001 + maxClients - 1) // reserve the last client id
	for s := 0; s < c.Opts.Shards; s++ {
		shard := core.ShardID(s)
		agGroup := core.ShardGroup(c.spiderAgreement, shard)
		var entries []core.GroupEntry
		var peerList []ids.Group
		for r, g := range c.spiderGroups {
			sg := core.ShardGroup(g, shard)
			entries = append(entries, core.GroupEntry{Group: sg, Region: string(r)})
			peerList = append(peerList, sg)
		}
		for _, m := range agGroup.Members {
			rec := &replicaRecord{
				node:    m,
				shard:   shard,
				kind:    kindAgree,
				group:   agGroup,
				entries: entries,
				region:  c.Opts.AgreementRegion,
			}
			if err := c.addRecord(rec); err != nil {
				return err
			}
		}
		for r, g := range c.spiderGroups {
			if err := c.startExecGroup(core.ShardGroup(g, shard), peerList, shard, r); err != nil {
				return err
			}
		}
	}
	for r, g := range c.spiderGroups {
		c.groupOf[r] = g
	}
	return nil
}

func (c *Cluster) startExecGroup(g ids.Group, peers []ids.Group, shard core.ShardID, region topo.Region) error {
	var peerGroups []ids.Group
	for _, p := range peers {
		if p.ID != g.ID {
			peerGroups = append(peerGroups, p)
		}
	}
	for _, m := range g.Members {
		rec := &replicaRecord{
			node:   m,
			shard:  shard,
			kind:   kindExec,
			group:  g,
			peers:  peerGroups,
			region: region,
		}
		if err := c.addRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// addRecord starts a fresh record and registers it for crash/restart
// bookkeeping.
func (c *Cluster) addRecord(rec *replicaRecord) error {
	if err := c.startRecord(rec); err != nil {
		return err
	}
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.byNode[rec.node] = append(c.byNode[rec.node], rec)
	c.mu.Unlock()
	return nil
}

// startRecord (re)builds the record's replica instance. When the
// cluster has a StateDir the replica opens its per-instance store
// first, so a restart rehydrates from whatever checkpoint and log
// suffix the previous incarnation flushed before it was stopped.
func (c *Cluster) startRecord(rec *replicaRecord) error {
	var st storage.Store
	if c.Opts.StateDir != "" {
		if rec.dir == "" {
			rec.dir = filepath.Join(c.Opts.StateDir, fmt.Sprintf("n%d-s%d-%s", rec.node, rec.shard, rec.kind))
		}
		ds, err := storage.Open(rec.dir)
		if err != nil {
			return fmt.Errorf("harness: open store for node %d: %w", rec.node, err)
		}
		st = ds
	}
	switch rec.kind {
	case kindAgree:
		ar, err := core.NewAgreementReplica(core.AgreementConfig{
			Group:            rec.group,
			ExecGroups:       rec.entries,
			AdminClients:     []ids.ClientID{c.adminID},
			Suite:            c.suites[rec.node],
			Node:             c.Net.Node(rec.node),
			Tunables:         c.spiderTunables(),
			ConsensusTimeout: 2 * time.Second,
			ConsensusAuth:    c.Opts.ConsensusAuth,
			CommitDedup:      c.Opts.CommitDedup,
			CommitStats:      c.commit[rec.shard],
			BatchOccupancy:   c.batchOcc[rec.shard],
			SendOccupancy:    c.sendOcc[rec.shard],
			AdaptiveBatching: c.Opts.AdaptiveBatching,
			AdaptiveWindows:  c.Opts.AdaptiveWindows,
			ArrivalRate:      c.arrival[rec.shard],
			Shard:            rec.shard,
			Store:            st,
			// Gray-failure defense: evaluate the leader every 1/8th of
			// the request timeout; after a rotation hold fire for one
			// full timeout so the new leader can prove itself.
			SuspectSlowLeader:  c.Opts.SuspectSlowLeader,
			SlowLeaderInterval: 250 * time.Millisecond,
			SlowLeaderCooldown: 2 * time.Second,
		})
		if err != nil {
			if st != nil {
				_ = st.Close()
			}
			return err
		}
		ar.Start()
		rec.agree = ar
	case kindExec:
		er, err := core.NewExecutionReplica(core.ExecutionConfig{
			Group:          rec.group,
			AgreementGroup: core.ShardGroup(c.spiderAgreement, rec.shard),
			PeerGroups:     rec.peers,
			Suite:          c.suites[rec.node],
			Node:           c.Net.Node(rec.node),
			App:            app.NewKVStore(),
			Tunables:       c.spiderTunables(),
			CommitDedup:    c.Opts.CommitDedup,
			CommitStats:    c.commit[rec.shard],
			Shard:          rec.shard,
			ShardMap:       c.shardMap(),
			KeyOf:          app.OpKey,
			Store:          st,
		})
		if err != nil {
			if st != nil {
				_ = st.Close()
			}
			return err
		}
		er.Start()
		rec.exec = er
	default:
		return fmt.Errorf("harness: unknown replica kind %q", rec.kind)
	}
	rec.running = true
	return nil
}

func (c *Cluster) buildSpider0E() error {
	return c.buildBFT(nil) // same structure: one PBFT group executes
}

func (c *Cluster) buildBFT(policy pbft.QuorumPolicy) error {
	for _, m := range c.globalGroup.Members {
		r, err := bftgeo.New(bftgeo.Config{
			Group:  c.globalGroup,
			Suite:  c.suites[m],
			Node:   c.Net.Node(m),
			App:    app.NewKVStore(),
			Policy: policy,
			Consensus: pbft.Config{
				RequestTimeout: 4 * time.Second, // WAN-wide protocol needs slack
			},
		})
		if err != nil {
			return err
		}
		r.Start()
		c.stops = append(c.stops, r.Stop)
	}
	for _, region := range c.Opts.Regions {
		c.groupOf[region] = c.globalGroup
	}
	for _, region := range c.Opts.ExtraRegions {
		c.groupOf[region] = c.globalGroup
	}
	return nil
}

func (c *Cluster) buildWV() error {
	vmaxRegions := c.Opts.VmaxRegions
	if len(vmaxRegions) == 0 {
		vmaxRegions = c.Opts.Regions[:2*c.Opts.F]
	}
	var vmax []ids.NodeID
	for _, r := range vmaxRegions {
		for _, m := range c.globalGroup.Members {
			if site, ok := c.Placement.Site(m); ok && site.Region == r {
				vmax = append(vmax, m)
			}
		}
	}
	delta := len(c.globalGroup.Members) - (3*c.Opts.F + 1)
	policy, err := pbft.NewWheatQuorum(c.globalGroup, delta, vmax)
	if err != nil {
		return err
	}
	return c.buildBFT(policy)
}

func (c *Cluster) buildHFT() error {
	leader := c.Opts.LeaderIndex % len(c.hftSites)
	for si, site := range c.hftSites {
		for _, m := range site.Members {
			r, err := hft.New(hft.Config{
				Sites:      c.hftSites,
				LeaderSite: leader,
				Site:       si,
				Suite:      c.suites[m],
				Node:       c.Net.Node(m),
				App:        app.NewKVStore(),
				Consensus: pbft.Config{
					RequestTimeout: 4 * time.Second,
				},
			})
			if err != nil {
				return err
			}
			r.Start()
			c.stops = append(c.stops, r.Stop)
		}
	}
	for _, region := range c.Opts.Regions {
		c.groupOf[region] = c.hftSites[c.hftSiteOf[region]]
	}
	return nil
}

// contactGroup returns the replica group a client in the region talks
// to, falling back to the nearest provisioned one.
func (c *Cluster) contactGroup(region topo.Region) (ids.Group, error) {
	if g, ok := c.groupOf[region]; ok {
		return g, nil
	}
	// Nearest region with a group (e.g. São Paulo clients on HFT use
	// the closest site).
	best := ids.Group{}
	bestRTT := time.Duration(1<<62 - 1)
	for r, g := range c.groupOf {
		rtt, err := topo.RTT(region, r)
		if err != nil {
			continue
		}
		if rtt < bestRTT {
			bestRTT = rtt
			best = g
		}
	}
	if len(best.Members) == 0 {
		return ids.Group{}, fmt.Errorf("harness: no contact group for region %s", region)
	}
	return best, nil
}

// NewClient provisions a client in the region, wired to the
// appropriate contact group.
func (c *Cluster) NewClient(region topo.Region) (*core.Client, error) {
	group, err := c.contactGroup(region)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	id := c.nextClient
	if int(id-10001) >= maxClients-1 {
		c.mu.Unlock()
		return nil, errors.New("harness: client identities exhausted")
	}
	c.nextClient++
	c.mu.Unlock()
	c.Placement.Place(id.Node(), topo.Site{Region: region, Zone: int(id) % 3})

	cfg := core.ClientConfig{
		ID:             id,
		Group:          group,
		AgreementGroup: c.spiderAgreement,
		Suite:          c.suites[id.Node()],
		Node:           c.Net.Node(id.Node()),
		Retry:          2 * time.Second,
		Deadline:       60 * time.Second,
		RetryMax:       8 * time.Second,
	}
	if c.Opts.Shards > 1 {
		// One client edge over S sessions: route each operation to the
		// shard group owning its key (the shard variants of the
		// client's contact group share its members and region).
		for s := 0; s < c.Opts.Shards; s++ {
			cfg.ShardGroups = append(cfg.ShardGroups, core.ShardGroup(group, core.ShardID(s)))
		}
		cfg.ShardMap = c.shardMap()
		cfg.KeyOf = app.OpKey
	}
	client, err := core.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.clientsOf[region] = append(c.clientsOf[region], client)
	c.mu.Unlock()
	return client, nil
}

// AddRegion brings a provisioned extra region online (Figure 10). For
// Spider this starts the region's execution group and reconfigures the
// system; baselines simply map the region's clients onto existing
// replicas.
func (c *Cluster) AddRegion(region topo.Region) error {
	if c.Opts.System != SystemSpider {
		if _, ok := c.groupOf[region]; !ok {
			g, err := c.contactGroup(region)
			if err != nil {
				return err
			}
			c.groupOf[region] = g
		}
		return nil
	}
	g, ok := c.spiderPending[region]
	if !ok {
		return fmt.Errorf("harness: region %s was not provisioned", region)
	}
	delete(c.spiderPending, region)

	for s := 0; s < c.Opts.Shards; s++ {
		shard := core.ShardID(s)
		var peers []ids.Group
		for _, existing := range c.spiderGroups {
			peers = append(peers, core.ShardGroup(existing, shard))
		}
		if err := c.startExecGroup(core.ShardGroup(g, shard), peers, shard, region); err != nil {
			return err
		}
	}
	if c.admin == nil {
		c.Placement.Place(c.adminID.Node(), topo.Site{Region: c.Opts.AgreementRegion, Zone: 0})
		var anyGroup ids.Group
		for _, eg := range c.spiderGroups {
			anyGroup = eg
			break
		}
		admin, err := core.NewClient(core.ClientConfig{
			ID:             c.adminID,
			Group:          anyGroup,
			AgreementGroup: c.spiderAgreement,
			Suite:          c.suites[c.adminID.Node()],
			Node:           c.Net.Node(c.adminID.Node()),
			Retry:          2 * time.Second,
			Deadline:       60 * time.Second,
			RetryMax:       8 * time.Second,
		})
		if err != nil {
			return err
		}
		c.admin = admin
	}
	// Reconfigure every shard session: the admin client keeps one
	// counter sequence across the S sessions (counter jumps are the
	// documented multi-session semantics), switching its contact group
	// to each shard's variant before addressing that shard.
	adminHome := c.admin.Group()
	for s := 0; s < c.Opts.Shards; s++ {
		shard := core.ShardID(s)
		c.admin.SwitchGroup(core.ShardGroup(adminHome, shard))
		err := c.admin.Admin(core.AdminOp{
			Kind:   core.AdminAddGroup,
			Group:  core.ShardGroup(g, shard),
			Region: string(region),
		})
		if err != nil {
			c.admin.SwitchGroup(adminHome)
			return err
		}
	}
	c.admin.SwitchGroup(adminHome)
	c.spiderGroups[region] = g
	c.groupOf[region] = g
	return nil
}

// --- workloads ----------------------------------------------------------------

// Workload parameterizes an open-loop client load.
type Workload struct {
	// ClientsPerRegion and Rate (ops/s per client) follow the paper's
	// setup scaled down for single-process emulation.
	ClientsPerRegion int
	Rate             float64
	// Duration and Warmup bound the run; samples during warmup are
	// discarded.
	Duration time.Duration
	Warmup   time.Duration
	// Kind selects writes, strong reads, or weak reads.
	Kind core.RequestKind
	// StrongReadFrac, in (0, 1], issues that fraction of each client's
	// operations as strong reads instead of Kind. Strong reads are
	// designated to the issuing client's own group, so a mixed
	// multi-region workload makes every consensus batch
	// per-group-divergent — the regime where commit-channel payload
	// dedup pays off (each group's copy references the requests it
	// forwarded; the rest arrive as placeholders or full content).
	StrongReadFrac float64
	// ValueSize is the write payload size (the paper uses 200 bytes).
	ValueSize int
	// KeySkew > 0 draws each operation's key from a Zipf distribution
	// with exponent 1+KeySkew over a shared key universe instead of
	// the per-client fixed key, so shard imbalance under hot keys is
	// generatable and measurable (larger skew concentrates load on
	// fewer keys, hence fewer shards). 0 keeps the current uniform
	// per-client key behavior.
	KeySkew float64
}

// skewKeyUniverse is the shared key universe a skewed workload draws
// from; ~1k keys spread over all shards of any supported shard count.
const skewKeyUniverse = 1024

func (w *Workload) applyDefaults() {
	if w.ClientsPerRegion <= 0 {
		w.ClientsPerRegion = 2
	}
	if w.Rate <= 0 {
		w.Rate = 10
	}
	if w.Duration <= 0 {
		w.Duration = 3 * time.Second
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 200
	}
	if w.Kind == 0 {
		w.Kind = core.KindWrite
	}
}

// Handle tracks a running workload.
type Handle struct {
	Recorders map[topo.Region]*stats.Recorder
	Started   time.Time
	stop      chan struct{}
	wg        sync.WaitGroup
}

// Stop aborts the workload early and waits for the clients to drain.
func (h *Handle) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.wg.Wait()
}

// Wait blocks until the workload's configured duration elapses and all
// clients have drained.
func (h *Handle) Wait() {
	h.wg.Wait()
}

// StartWorkload launches clients in the given regions. The returned
// handle owns per-region recorders; the workload ends after
// w.Duration or when Stop is called, whichever comes first.
func (c *Cluster) StartWorkload(regions []topo.Region, w Workload) (*Handle, error) {
	w.applyDefaults()
	h := &Handle{
		Recorders: make(map[topo.Region]*stats.Recorder, len(regions)),
		Started:   time.Now(),
		stop:      make(chan struct{}),
	}
	for _, region := range regions {
		rec := stats.NewRecorder()
		h.Recorders[region] = rec
		for i := 0; i < w.ClientsPerRegion; i++ {
			client, err := c.NewClient(region)
			if err != nil {
				return nil, err
			}
			h.wg.Add(1)
			go runClient(h, client, region, i, w, rec)
		}
	}
	return h, nil
}

// RunWorkload is the synchronous convenience wrapper.
func (c *Cluster) RunWorkload(regions []topo.Region, w Workload) (map[topo.Region]*stats.Recorder, error) {
	h, err := c.StartWorkload(regions, w)
	if err != nil {
		return nil, err
	}
	h.Wait()
	return h.Recorders, nil
}

func runClient(h *Handle, client *core.Client, region topo.Region, idx int, w Workload, rec *stats.Recorder) {
	defer h.wg.Done()
	rng := rand.New(rand.NewSource(int64(idx)<<16 ^ int64(len(region))))
	value := make([]byte, w.ValueSize)
	rng.Read(value)
	interval := time.Duration(float64(time.Second) / w.Rate)
	deadline := time.Now().Add(w.Duration)
	warmupEnd := h.Started.Add(w.Warmup)

	// Seed one key so read workloads have data to fetch.
	key := fmt.Sprintf("%s-%d", region, idx)
	if w.Kind != core.KindWrite || w.StrongReadFrac > 0 {
		if _, err := client.Write(app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: value})); err != nil {
			return
		}
	}
	// Skewed workloads draw each operation's key from a shared Zipf'd
	// universe; key 0 is the hottest, so high skew funnels most
	// operations onto a handful of keys (and thus shards).
	var zipf *rand.Zipf
	if w.KeySkew > 0 {
		zipf = rand.NewZipf(rng, 1+w.KeySkew, 1, skewKeyUniverse-1)
	}

	seq := 0
	for time.Now().Before(deadline) {
		select {
		case <-h.stop:
			return
		default:
		}
		kind := w.Kind
		if w.StrongReadFrac > 0 && rng.Float64() < w.StrongReadFrac {
			kind = core.KindStrongRead
		}
		opKey := key
		if zipf != nil {
			opKey = fmt.Sprintf("zipf-%04d", zipf.Uint64())
		}
		var op []byte
		switch kind {
		case core.KindWrite:
			op = app.EncodeOp(app.Op{Kind: app.OpPut, Key: opKey, Value: value})
		default:
			op = app.EncodeOp(app.Op{Kind: app.OpGet, Key: opKey})
		}
		start := time.Now()
		var err error
		switch kind {
		case core.KindWrite:
			_, err = client.Write(op)
		case core.KindStrongRead:
			_, err = client.StrongRead(op)
		case core.KindWeakRead:
			_, err = client.WeakRead(op)
		}
		elapsed := time.Since(start)
		if err == nil && start.After(warmupEnd) {
			rec.RecordAt(start, elapsed)
		}
		seq++
		if pause := interval - elapsed; pause > 0 {
			select {
			case <-h.stop:
				return
			case <-time.After(pause):
			}
		}
	}
}
