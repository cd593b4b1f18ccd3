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
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"spider/internal/app"
	"spider/internal/baseline/bftgeo"
	"spider/internal/baseline/hft"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/deploy"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/stats"
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
	// StateDir, when set, gives every Spider replica a write-behind
	// persistent store under <StateDir>/n<node>-<kind>, so a replica
	// crashed with CrashNode and brought back with RestartNode
	// rehydrates from its on-disk checkpoint and log suffix instead of
	// cold-starting into a full state fetch.
	StateDir string
}

func (o *BuildOptions) applyDefaults() {
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

	// Spider state: the deployment description the replicas are
	// launched from (empty for the other systems), and the extra
	// regions' groups, provisioned but not yet added.
	spider        *deploy.Config
	spiderPending map[topo.Region]deploy.GroupSpec
	admin         *core.Client
	records       []*replicaRecord
	byNode        map[ids.NodeID]*replicaRecord

	// Occupancy recorders and commit-channel counters shared by every
	// Spider replica.
	batchOcc *stats.Occupancy
	sendOcc  *stats.Occupancy
	commit   *core.CommitStats

	// Baseline state.
	globalGroup ids.Group                 // BFT / WV / Spider-0E
	hftSites    []ids.Group               // HFT
	groupOf     map[topo.Region]ids.Group // client region -> contact group

	stops []func()
}

// adminID is the client identity reserved for reconfiguration: the
// last of the pre-provisioned ones.
const adminID = ids.ClientID(10001 + maxClients - 1)

// replicaRecord tracks one Spider replica: the description it was
// launched from, which launches it again after a crash, and the running
// instance (zero while crashed). Baseline systems keep the stop-closure
// lifecycle; only Spider replicas are crash-restartable.
type replicaRecord struct {
	node  ids.NodeID
	cfg   *deploy.Config
	group deploy.GroupSpec // the group the replica serves
	rep   deploy.Replica   // zero while crashed
}

// Build deploys the selected system onto a fresh emulated WAN.
func Build(opts BuildOptions) (*Cluster, error) {
	opts.applyDefaults()
	c := &Cluster{
		Opts:          opts,
		Placement:     topo.NewPlacement(opts.Scale),
		nextClient:    10001,
		spider:        new(deploy.Config),
		spiderPending: make(map[topo.Region]deploy.GroupSpec),
		byNode:        make(map[ids.NodeID]*replicaRecord),
		groupOf:       make(map[topo.Region]ids.Group),
		batchOcc:      stats.NewOccupancy(),
		sendOcc:       stats.NewOccupancy(),
		commit:        &core.CommitStats{},
	}
	c.Net = memnet.New(memnet.Options{
		Placement:  c.Placement,
		JitterFrac: opts.JitterFrac,
		Seed:       opts.Seed,
	})

	// Identity plan: replicas first, then clients.
	allIDs := c.planIdentities(new(idAllocator))
	for i := 0; i < maxClients; i++ {
		allIDs = append(allIDs, ids.NodeID(10001+i))
	}
	c.suites = crypto.NewSuites(allIDs, opts.SuiteKind)

	var err error
	switch opts.System {
	case SystemSpider, SystemSpider1E:
		err = c.buildSpider()
	case SystemSpider0E, SystemBFT: // Spider-0E: one PBFT group executes
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

// BatchOccSummary summarizes the batch-occupancy recorder (requests
// per proposed consensus batch).
func (c *Cluster) BatchOccSummary() stats.OccupancySummary {
	return c.batchOcc.Summarize()
}

// SendOccSummary summarizes the commit-channel Send occupancy recorder.
func (c *Cluster) SendOccSummary() stats.OccupancySummary {
	return c.sendOcc.Summarize()
}

// CommitSummary reports the commit-channel byte counters of every
// Spider agreement replica.
func (c *Cluster) CommitSummary() core.CommitSummary {
	return c.commit.Summarize()
}

// ResetStats zeroes the occupancy recorders and commit counters
// (benchmarks reset after warmup).
func (c *Cluster) ResetStats() {
	c.batchOcc.Reset()
	c.sendOcc.Reset()
	c.commit.Reset()
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
		recs[i].stop()
	}
	c.Net.Close()
}

func (rec *replicaRecord) stop() {
	rec.rep.Stop()
	rec.rep = deploy.Replica{}
}

// --- chaos control surface ----------------------------------------------------

// CrashNode fail-stops the Spider replica hosted on the node: the node
// is cut off from the network (in-flight frames addressed to it vanish,
// as with a real process crash) and the instance is stopped, which
// flushes and closes its persistent store. Only Spider replicas are
// crashable.
func (c *Cluster) CrashNode(id ids.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.byNode[id]
	if rec == nil {
		return fmt.Errorf("harness: node %d hosts no crashable replica", id)
	}
	c.Net.Isolate(id, true)
	rec.stop()
	return nil
}

// RestartNode launches the crashed replica on the node again, from its
// persistent store when StateDir is set, and reconnects the node. The
// replica registers its handlers before the isolation lifts, so no
// frame races the restart.
func (c *Cluster) RestartNode(id ids.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.byNode[id]
	if rec == nil {
		return fmt.Errorf("harness: node %d hosts no restartable replica", id)
	}
	if rec.rep == (deploy.Replica{}) {
		if err := c.startRecord(rec); err != nil {
			return err
		}
	}
	c.Net.Isolate(id, false)
	return nil
}

// ExecProbe is one execution replica's divergence probe: two probes of
// the same group at the same sequence number must carry the same
// digest.
type ExecProbe struct {
	Node   ids.NodeID
	Group  ids.GroupID
	Region topo.Region
	Seq    ids.SeqNr
	Digest crypto.Digest
}

// ExecProbes samples every running execution replica.
func (c *Cluster) ExecProbes() []ExecProbe {
	c.mu.Lock()
	var live []*replicaRecord
	var execs []*core.ExecutionReplica
	for _, rec := range c.records {
		if er := rec.rep.Execution; er != nil {
			live, execs = append(live, rec), append(execs, er)
		}
	}
	c.mu.Unlock()
	out := make([]ExecProbe, 0, len(live))
	for i, rec := range live {
		seq, dig := execs[i].SnapshotInfo()
		out = append(out, ExecProbe{
			Node:   rec.node,
			Group:  rec.group.ID,
			Region: topo.Region(rec.group.Region),
			Seq:    seq,
			Digest: dig,
		})
	}
	return out
}

// AgreementLeader reports the consensus leader of the agreement group
// as seen by the running replica with the highest installed view — the
// freshest opinion available during churn.
func (c *Cluster) AgreementLeader() (ids.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var leader ids.NodeID
	bestView := uint64(0)
	found := false
	for _, rec := range c.records {
		ar := rec.rep.Agreement
		if ar == nil {
			continue
		}
		if view := ar.ConsensusView(); !found || view > bestView {
			leader, bestView, found = ar.ConsensusLeader(), view, true
		}
	}
	return leader, found
}

// FetchCalls reports how many full-state checkpoint fetches the node's
// execution replica has issued since its last (re)start. A warm
// restart from disk must keep this at zero.
func (c *Cluster) FetchCalls(id ids.NodeID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec := c.byNode[id]; rec != nil && rec.rep.Execution != nil {
		return rec.rep.Execution.FetchCalls()
	}
	return 0
}

// ExecNodes returns the nodes hosting the region's execution group.
func (c *Cluster) ExecNodes(region topo.Region) []ids.NodeID {
	for _, g := range c.spider.ExecGroups {
		if g.Region == string(region) {
			return slices.Clone(g.Members)
		}
	}
	return nil
}

// ExecRegions returns the regions hosting execution groups, the ones
// joined by AddRegion included.
func (c *Cluster) ExecRegions() []topo.Region {
	out := make([]topo.Region, 0, len(c.spider.ExecGroups))
	for _, g := range c.spider.ExecGroups {
		out = append(out, topo.Region(g.Region))
	}
	return out
}

// AgreementNodes returns the agreement group's nodes, leader first.
func (c *Cluster) AgreementNodes() []ids.NodeID {
	return slices.Clone(c.spider.Agreement.Members)
}

// GrayStats aggregates the gray-failure defense counters of the
// agreement group.
type GrayStats struct {
	// ViewChanges is the highest view-change count any replica entered
	// (timeout-driven and proactive alike).
	ViewChanges uint64
	// Rotations counts the suspicions of a slow leader the failure
	// detector's slowness rule sent (the most any one replica sent);
	// Reasons holds one recorded explanation per suspected view, oldest
	// view first.
	Rotations uint64
	Reasons   []string
	// ViewRates is per-view commit throughput as seen by the replica
	// with the freshest view.
	ViewRates []pbft.ViewRate
}

// GrayFailureStats reports the agreement group's view-change and
// slowness-suspicion counters. Each replica counts independently
// (failure detectors are per-replica local state), so the cluster-level figure
// is the maximum across running replicas. Replicas join a view change
// others started, so the accusers of successive slow leaders may be
// different replicas: rotations also count the distinct views any
// replica accused.
func (c *Cluster) GrayFailureStats() GrayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out GrayStats
	bestView := uint64(0)
	haveView := false
	accused := make(map[uint64]string)
	for _, rec := range c.records {
		ar := rec.rep.Agreement
		if ar == nil {
			continue
		}
		out.ViewChanges = max(out.ViewChanges, ar.ConsensusViewChanges())
		n, rots := ar.ConsensusRotations()
		out.Rotations = max(out.Rotations, n)
		for _, rot := range rots {
			if _, dup := accused[rot.View]; !dup {
				accused[rot.View] = rot.Reason
			}
		}
		view := ar.ConsensusView()
		if rates := ar.ConsensusViewRates(); len(rates) > 0 && (!haveView || view > bestView) {
			out.ViewRates = rates
			bestView, haveView = view, true
		}
	}
	for _, v := range slices.Sorted(maps.Keys(accused)) {
		out.Reasons = append(out.Reasons, accused[v])
	}
	out.Rotations = max(out.Rotations, uint64(len(accused)))
	return out
}

// --- identity planning ------------------------------------------------------

// idAllocator hands out node ids in order, starting at 1.
type idAllocator ids.NodeID

func (a *idAllocator) take(n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		*a++
		out[i] = ids.NodeID(*a)
	}
	return out
}

// planIdentities allocates every replica id the deployment (and its
// future extensions) will need and records their placement. For the
// Spider systems it compiles the options into the deployment
// description the replicas are launched from.
func (c *Cluster) planIdentities(alloc *idAllocator) []ids.NodeID {
	opts := &c.Opts
	var all []ids.NodeID
	place := func(nodes []ids.NodeID, sites []topo.Site) {
		for i, n := range nodes {
			c.Placement.Place(n, sites[i])
		}
		all = append(all, nodes...)
	}
	switch opts.System {
	case SystemSpider, SystemSpider1E:
		c.spider = c.spiderConfig(alloc)
		c.spider.Place(c.Placement)
		all = c.spider.AllNodes()
		for _, g := range c.spiderPending {
			place(g.Members, g.Sites)
		}
	case SystemSpider0E:
		agree := alloc.take(3*opts.F + 1)
		place(agree, spread(opts.AgreementRegion, len(agree), len(agree)))
		c.globalGroup = ids.Group{ID: 1, Members: rotate(agree, opts.LeaderIndex), F: opts.F}
	case SystemBFT, SystemWV:
		// One replica per region, zone 0; BFT with f=2 adds the nearby
		// regions.
		regions := opts.Regions // BFT-WV: Figure 10's five regions = 3f+1+1
		if opts.System == SystemBFT {
			regions = bftRegions(opts)
		}
		var members []ids.NodeID
		for _, r := range regions {
			n := alloc.take(1)
			place(n, spread(r, 1, 1))
			members = append(members, n...)
		}
		c.globalGroup = ids.Group{ID: 1, Members: rotate(members, opts.LeaderIndex), F: opts.F}
	case SystemHFT:
		gid := ids.GroupID(10)
		for _, r := range opts.Regions {
			members := alloc.take(3*opts.F + 1)
			place(members, spread(r, len(members), 4))
			c.hftSites = append(c.hftSites, ids.Group{ID: gid, Members: members, F: opts.F})
			gid += 10
		}
	}
	return all
}

// spiderConfig compiles the options into a Spider deployment: the
// agreement group in AgreementRegion with the leader rotated by
// LeaderIndex, one execution group per client region (the agreement
// region alone for Spider-1E), and the extra regions' groups, kept
// aside until AddRegion.
func (c *Cluster) spiderConfig(alloc *idAllocator) *deploy.Config {
	opts := &c.Opts
	members := alloc.take(3*opts.F + 1)
	sites := spread(opts.AgreementRegion, len(members), 4)
	cfg := &deploy.Config{
		Crypto: opts.SuiteKind.String(),
		Agreement: deploy.GroupSpec{
			ID:      1,
			F:       opts.F,
			Members: rotate(members, opts.LeaderIndex),
			Region:  string(opts.AgreementRegion),
			Sites:   rotate(sites, opts.LeaderIndex),
		},
		AdminClients:  []ids.ClientID{adminID},
		Channel:       opts.Channel,
		SlackGroups:   opts.SlackGroups,
		ConsensusAuth: opts.ConsensusAuth,
		StateDir:      opts.StateDir,
	}
	gid := ids.GroupID(10)
	execGroup := func(r topo.Region) deploy.GroupSpec {
		members := alloc.take(2*opts.F + 1)
		g := deploy.GroupSpec{ID: gid, F: opts.F, Members: members, Region: string(r), Sites: spread(r, len(members), 3)}
		gid += 10
		return g
	}
	regions := opts.Regions
	if opts.System == SystemSpider1E {
		regions = []topo.Region{opts.AgreementRegion}
	}
	for _, r := range regions {
		cfg.ExecGroups = append(cfg.ExecGroups, execGroup(r))
	}
	for _, r := range opts.ExtraRegions {
		c.spiderPending[r] = execGroup(r)
	}
	return cfg
}

// spread places n replicas one per zone of region, and those beyond the
// first local in the zones of the nearby region (the paper's f=2 setup).
func spread(region topo.Region, n, local int) []topo.Site {
	sites := make([]topo.Site, n)
	for i := range sites {
		sites[i] = topo.Site{Region: region, Zone: i}
		if i >= local {
			sites[i] = topo.Site{Region: nearbyRegion[region], Zone: i - local}
		}
	}
	return sites
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

// rotate returns members rotated so members[k] comes first (leader).
func rotate[T any](members []T, k int) []T {
	if len(members) == 0 {
		return members
	}
	k = ((k % len(members)) + len(members)) % len(members)
	return append(slices.Clone(members[k:]), members[:k]...)
}

// --- system builders ----------------------------------------------------------

// buildSpider launches the agreement group and one execution group per
// region.
func (c *Cluster) buildSpider() error {
	for _, m := range c.spider.Agreement.Members {
		if err := c.addRecord(m, c.spider, c.spider.Agreement); err != nil {
			return err
		}
	}
	for _, g := range c.spider.ExecGroups {
		if err := c.startExecGroup(c.spider, g); err != nil {
			return err
		}
		c.groupOf[topo.Region(g.Region)] = g.Group()
	}
	return nil
}

func (c *Cluster) startExecGroup(cfg *deploy.Config, g deploy.GroupSpec) error {
	for _, m := range g.Members {
		if err := c.addRecord(m, cfg, g); err != nil {
			return err
		}
	}
	return nil
}

// addRecord launches a replica and registers it for crash/restart
// bookkeeping.
func (c *Cluster) addRecord(node ids.NodeID, cfg *deploy.Config, group deploy.GroupSpec) error {
	rec := &replicaRecord{node: node, cfg: cfg, group: group}
	if err := c.startRecord(rec); err != nil {
		return err
	}
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.byNode[node] = rec
	c.mu.Unlock()
	return nil
}

// startRecord launches the record's replica on its emulated-WAN node.
// With a StateDir the replica rehydrates from whatever checkpoint and
// log suffix its previous incarnation flushed before it was stopped.
func (c *Cluster) startRecord(rec *replicaRecord) (err error) {
	rec.rep, err = rec.cfg.Launch(rec.node, deploy.Host{
		Node:           c.Net.Node(rec.node),
		Suite:          c.suites[rec.node],
		CommitStats:    c.commit,
		BatchOccupancy: c.batchOcc,
		SendOccupancy:  c.sendOcc,
	})
	return err
}

func (c *Cluster) buildBFT(policy quorum.Rule) error {
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
	for si, region := range c.Opts.Regions {
		c.groupOf[region] = c.hftSites[si]
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
	return c.newClient(id, group)
}

func (c *Cluster) newClient(id ids.ClientID, group ids.Group) (*core.Client, error) {
	return core.NewClient(core.ClientConfig{
		ID:             id,
		Group:          group,
		AgreementGroup: c.spider.Agreement.Group(),
		Suite:          c.suites[id.Node()],
		Node:           c.Net.Node(id.Node()),
		Retry:          2 * time.Second,
		Deadline:       60 * time.Second,
		RetryMax:       8 * time.Second,
	})
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

	// The joining group is launched from the description extended by
	// it, so it fetches checkpoints from every group already running;
	// the replicas launched earlier keep the description they had.
	cfg := *c.spider
	cfg.ExecGroups = append(slices.Clone(cfg.ExecGroups), g)
	if err := c.startExecGroup(&cfg, g); err != nil {
		return err
	}
	if c.admin == nil {
		c.Placement.Place(adminID.Node(), topo.Site{Region: c.Opts.AgreementRegion, Zone: 0})
		admin, err := c.newClient(adminID, c.spider.ExecGroups[0].Group())
		if err != nil {
			return err
		}
		c.admin = admin
	}
	err := c.admin.Admin(core.AdminOp{
		Kind:   core.AdminAddGroup,
		Group:  g.Group(),
		Region: string(region),
	})
	if err != nil {
		return err
	}
	c.spider = &cfg
	c.groupOf[region] = g.Group()
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
	// ValueSize is the write payload size (the paper uses 200 bytes).
	ValueSize int
}

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
	if w.Kind != core.KindWrite {
		if _, err := client.Write(app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: value})); err != nil {
			return
		}
	}

	for time.Now().Before(deadline) {
		select {
		case <-h.stop:
			return
		default:
		}
		var op []byte
		switch w.Kind {
		case core.KindWrite:
			op = app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: value})
		default:
			op = app.EncodeOp(app.Op{Kind: app.OpGet, Key: key})
		}
		start := time.Now()
		var err error
		switch w.Kind {
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
		if pause := interval - elapsed; pause > 0 {
			select {
			case <-h.stop:
				return
			case <-time.After(pause):
			}
		}
	}
}
