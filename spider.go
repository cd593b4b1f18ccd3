// Package spider is a from-scratch Go implementation of Spider, the
// resilient cloud-based replication architecture of Eischer & Distler
// ("Resilient Cloud-based Replication with Low Latency", Middleware
// 2020). Spider models a Byzantine fault-tolerant geo-replicated
// system as loosely coupled replica groups: one agreement group totally
// orders requests inside a single cloud region (across availability
// zones), and any number of execution groups host the application near
// the clients. All wide-area communication flows through inter-regional
// message channels (IRMCs) with built-in flow control, so no multi-phase
// consensus protocol ever crosses a wide-area link.
//
// The package is a facade: it re-exports the protocol types from the
// internal packages and offers LocalCluster, a one-call way to run a
// complete geo-distributed deployment in a single process on an
// emulated WAN. Production-style multi-process deployments use
// cmd/spider-node and cmd/spider-client over TCP.
//
// Quick start:
//
//	cluster, err := spider.NewLocalCluster(spider.LocalClusterOptions{})
//	client, err := cluster.NewClient(spider.Virginia)
//	reply, err := client.Write(spider.PutOp("greeting", []byte("hello")))
//	value, err := client.WeakRead(spider.GetOp("greeting"))
//
// See examples/ for runnable programs and README.md for the
// architecture, the request path and how the paper's experiments are
// reproduced (bench_test.go holds one benchmark per figure).
package spider

import (
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/topo"
)

// Core protocol types, re-exported for library consumers.
type (
	// Client submits writes, strong reads and weak reads to an
	// execution group (Figure 15 of the paper).
	Client = core.Client
	// ClientConfig parameterizes a Client.
	ClientConfig = core.ClientConfig
	// ExecutionReplica hosts the application in an execution group
	// (Figure 16).
	ExecutionReplica = core.ExecutionReplica
	// ExecutionConfig parameterizes an ExecutionReplica.
	ExecutionConfig = core.ExecutionConfig
	// AgreementReplica orders requests and hosts the registry
	// (Figure 17).
	AgreementReplica = core.AgreementReplica
	// AgreementConfig parameterizes an AgreementReplica.
	AgreementConfig = core.AgreementConfig
	// Tunables are the protocol parameters (checkpoint intervals,
	// channel capacities, AG-WIN, slack groups, IRMC kind).
	Tunables = core.Tunables
	// AdminOp reconfigures the system at runtime (Section 3.6).
	AdminOp = core.AdminOp
	// GroupEntry is one record of the execution-replica registry.
	GroupEntry = core.GroupEntry
	// RegistryInfo is the registry view returned to clients.
	RegistryInfo = core.RegistryInfo
	// Application is the deterministic state machine interface.
	Application = core.Application
	// KVStore is the bundled key-value application.
	KVStore = app.KVStore
	// Group identifies a replica group and its membership.
	Group = ids.Group
	// NodeID identifies a node.
	NodeID = ids.NodeID
	// ClientID identifies a client.
	ClientID = ids.ClientID
	// Region names a cloud region of the latency model.
	Region = topo.Region
	// Summary carries the latency percentiles reported by Recorder.
	Summary = stats.Summary

	// CommitStats aggregates commit-channel byte and payload-dedup
	// counters across the replicas it is shared with.
	CommitStats = core.CommitStats

	// ShardID identifies one keyspace shard of a sharded deployment.
	ShardID = core.ShardID
	// ShardMap is the deterministic key-to-shard routing function.
	ShardMap = core.ShardMap
	// ShardSeq addresses one committed batch of one shard's session,
	// ordered globally by core.MergeOrder's (Seq, Shard) rule.
	ShardSeq = core.ShardSeq
)

// Admin operation kinds.
const (
	AdminAddGroup    = core.AdminAddGroup
	AdminRemoveGroup = core.AdminRemoveGroup
)

// IRMC implementation choices.
const (
	ChannelRC = core.ChannelRC
	ChannelSC = core.ChannelSC
)

// Commit-channel payload-dedup modes.
const (
	DedupOn  = core.DedupOn
	DedupOff = core.DedupOff
)

// Regions of the built-in latency model (calibrated to EC2).
const (
	Virginia   = topo.Virginia
	Oregon     = topo.Oregon
	Ireland    = topo.Ireland
	Tokyo      = topo.Tokyo
	SaoPaulo   = topo.SaoPaulo
	Ohio       = topo.Ohio
	California = topo.California
	London     = topo.London
	Seoul      = topo.Seoul
)

// NewClient creates a client handle (see ClientConfig).
func NewClient(cfg ClientConfig) (*Client, error) { return core.NewClient(cfg) }

// NewExecutionReplica wires up an execution replica.
func NewExecutionReplica(cfg ExecutionConfig) (*ExecutionReplica, error) {
	return core.NewExecutionReplica(cfg)
}

// NewAgreementReplica wires up an agreement replica.
func NewAgreementReplica(cfg AgreementConfig) (*AgreementReplica, error) {
	return core.NewAgreementReplica(cfg)
}

// NewKVStore creates the bundled deterministic key-value application.
func NewKVStore() *KVStore { return app.NewKVStore() }

// PutOp encodes a key-value write operation.
func PutOp(key string, value []byte) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: value})
}

// GetOp encodes a key-value read operation.
func GetOp(key string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpGet, Key: key})
}

// IncOp encodes a counter increment.
func IncOp(key string, delta int64) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpInc, Key: key, Delta: delta})
}

// DelOp encodes a key deletion.
func DelOp(key string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpDel, Key: key})
}

// KVResult is the decoded reply of a key-value operation.
type KVResult = app.Result

// DecodeKVResult parses a reply payload produced by the KVStore.
func DecodeKVResult(payload []byte) (KVResult, error) { return app.DecodeResult(payload) }

// LocalClusterOptions configures an in-process deployment on the
// emulated WAN.
type LocalClusterOptions struct {
	// Regions host one execution group each (default: Virginia,
	// Oregon, Ireland, Tokyo — the paper's evaluation setup).
	Regions []Region
	// ExtraRegions are provisioned so AddRegion can bring them online
	// later.
	ExtraRegions []Region
	// AgreementRegion hosts the agreement group (default Virginia).
	AgreementRegion Region
	// F is the per-group fault threshold (default 1).
	F int
	// LatencyScale multiplies the calibrated WAN latencies; use small
	// values (e.g. 0.05) for fast demos, 1.0 for realistic latency.
	LatencyScale float64
	// RealCrypto selects RSA-1024 signatures as in the paper;
	// the default uses fast HMAC-based test crypto.
	RealCrypto bool
	// Suite names any registered crypto suite ("rsa", "ed25519",
	// "insecure") and takes precedence over RealCrypto when set.
	Suite string
	// UseIRMCSC selects the sender-side-collection channel variant.
	UseIRMCSC bool
	// Shards runs this many independent agreement sessions over a
	// partitioned keyspace (default 1 — byte-for-byte the unsharded
	// deployment). Clients route each operation to the session owning
	// its key; see ShardMap for the key-to-shard function.
	Shards int

	// AdaptiveBatching enables the closed-loop controller that adapts
	// the leader's batch size and flush delay to the measured offered
	// load (ROADMAP item 4). Off by default: the static ConsensusBatch
	// knobs apply unchanged.
	AdaptiveBatching bool

	// AdaptiveWindows auto-sizes the commit-channel flow-control
	// windows from the measured drain rate of each execution group.
	// Sender-local only — no wire change — and off by default.
	AdaptiveWindows bool

	// SuspectSlowLeader arms the gray-failure defense: agreement
	// replicas monitor the leader's delivery throughput and proposal
	// latency and proactively rotate to the next view when the leader
	// underperforms without crashing. Safety is unaffected (rotation
	// uses the normal view-change quorum); off by default.
	SuspectSlowLeader bool
}

// LocalCluster is a complete Spider deployment running in-process.
type LocalCluster struct {
	inner *harness.Cluster
}

// NewLocalCluster deploys agreement and execution groups onto a fresh
// emulated WAN and starts them.
func NewLocalCluster(opts LocalClusterOptions) (*LocalCluster, error) {
	suite := crypto.SuiteInsecure
	if opts.RealCrypto {
		suite = crypto.SuiteRSA
	}
	if opts.Suite != "" {
		kind, err := crypto.ParseSuiteKind(opts.Suite)
		if err != nil {
			return nil, err
		}
		suite = kind
	}
	channel := core.ChannelRC
	if opts.UseIRMCSC {
		channel = core.ChannelSC
	}
	cluster, err := harness.Build(harness.BuildOptions{
		System:            harness.SystemSpider,
		F:                 opts.F,
		Regions:           opts.Regions,
		ExtraRegions:      opts.ExtraRegions,
		AgreementRegion:   opts.AgreementRegion,
		Scale:             opts.LatencyScale,
		SuiteKind:         suite,
		Channel:           channel,
		Shards:            opts.Shards,
		AdaptiveBatching:  opts.AdaptiveBatching,
		AdaptiveWindows:   opts.AdaptiveWindows,
		SuspectSlowLeader: opts.SuspectSlowLeader,
	})
	if err != nil {
		return nil, err
	}
	return &LocalCluster{inner: cluster}, nil
}

// NewClient provisions a client in the given region, connected to the
// region's execution group (or the nearest one).
func (c *LocalCluster) NewClient(region Region) (*Client, error) {
	return c.inner.NewClient(region)
}

// AddRegion starts the provisioned execution group of an extra region
// and reconfigures the running system to include it (Section 3.6).
func (c *LocalCluster) AddRegion(region Region) error {
	return c.inner.AddRegion(region)
}

// Regions returns the regions currently hosting execution groups.
func (c *LocalCluster) Regions() []Region {
	return append([]Region{}, c.inner.Opts.Regions...)
}

// Stop shuts the whole deployment down.
func (c *LocalCluster) Stop() { c.inner.Stop() }

// Timings is a convenience helper: it measures fn over n runs and
// returns the latency summary, for examples that want to show latency
// numbers without importing the stats package.
func Timings(n int, fn func() error) (Summary, error) {
	rec := stats.NewRecorder()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return Summary{}, err
		}
		rec.Record(time.Since(start))
	}
	return rec.Summarize(), nil
}
