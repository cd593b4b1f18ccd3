package pbft

import (
	"errors"
	"fmt"
	"log"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/transport"

	"spider/internal/consensus"
)

// QuorumPolicy decides when a set of distinct voters constitutes a
// quorum. The default counting policy implements classic PBFT (2f+1 of
// 3f+1); the weighted policy implements WHEAT-style weighted voting
// and backs the BFT-WV baseline.
type QuorumPolicy interface {
	// IsQuorum reports whether the voter set reaches a quorum. The
	// map is borrowed for the duration of the call only: the replica
	// reuses one scratch map across tallies on the hot path, so
	// implementations must not retain or mutate it — copy if a voter
	// set needs to outlive the call.
	IsQuorum(voters map[ids.NodeID]bool) bool
}

// CountQuorum is the classic policy: a quorum is any Need distinct
// voters.
type CountQuorum struct {
	Need int
}

var _ QuorumPolicy = CountQuorum{}

// IsQuorum implements QuorumPolicy.
func (q CountQuorum) IsQuorum(voters map[ids.NodeID]bool) bool {
	return len(voters) >= q.Need
}

// WeightedQuorum implements WHEAT-style weighted voting (Sousa &
// Bessani, SRDS '15): with n = 3f+1+Δ replicas, 2f replicas carry
// weight Vmax = 1 + Δ/f and the rest weight Vmin = 1; a quorum is any
// set with total weight at least 2f·Vmax + 1. Well-placed Vmax
// replicas let quorums form among the closest nodes.
type WeightedQuorum struct {
	Weights map[ids.NodeID]float64
	Need    float64
}

var _ QuorumPolicy = WeightedQuorum{}

// IsQuorum implements QuorumPolicy.
func (q WeightedQuorum) IsQuorum(voters map[ids.NodeID]bool) bool {
	var total float64
	for v := range voters {
		total += q.Weights[v]
	}
	return total >= q.Need
}

// NewWheatQuorum builds the weighted policy for a group tolerating f
// faults with delta extra replicas; vmax lists the replicas assigned
// the high weight (must be exactly 2f of them).
func NewWheatQuorum(group ids.Group, delta int, vmax []ids.NodeID) (WeightedQuorum, error) {
	f := group.F
	if len(group.Members) != 3*f+1+delta {
		return WeightedQuorum{}, fmt.Errorf("pbft: weighted group size %d != 3f+1+Δ = %d", len(group.Members), 3*f+1+delta)
	}
	if len(vmax) != 2*f {
		return WeightedQuorum{}, fmt.Errorf("pbft: need exactly 2f=%d Vmax replicas, got %d", 2*f, len(vmax))
	}
	wmax := 1 + float64(delta)/float64(f)
	weights := make(map[ids.NodeID]float64, len(group.Members))
	for _, m := range group.Members {
		weights[m] = 1
	}
	for _, m := range vmax {
		if !group.Contains(m) {
			return WeightedQuorum{}, fmt.Errorf("pbft: Vmax replica %v not in group", m)
		}
		weights[m] = wmax
	}
	return WeightedQuorum{Weights: weights, Need: 2*float64(f)*wmax + 1}, nil
}

// AuthMode selects how normal-case messages are authenticated.
type AuthMode int

// Authentication modes.
const (
	// AuthMACVector is the paper's agreement-cluster optimisation and
	// the default: prepare and commit carry one HMAC per group member
	// instead of a signature, removing almost all public-key work from
	// the ordering hot path. Pre-prepare, checkpoint, view-change,
	// new-view and catch-up messages stay signed because they (or the
	// certificates built from them) must remain transferable, and the
	// view-change entry path re-issues signed prepare votes so prepared
	// proofs stay signature-based exactly as in signature mode.
	AuthMACVector AuthMode = iota
	// AuthSignatures signs every protocol message: the classic
	// signature-PBFT variant. Simpler to reason about and required when
	// group members do not share pairwise MAC keys.
	AuthSignatures
)

// String names the mode.
func (m AuthMode) String() string {
	if m == AuthSignatures {
		return "signatures"
	}
	return "mac-vector"
}

// Config parameterizes a PBFT replica.
type Config struct {
	// Group is the consensus group; classic PBFT needs 3f+1 members.
	Group ids.Group
	// Suite provides this replica's signing identity.
	Suite crypto.Suite
	// Node is this replica's transport handle.
	Node transport.Node
	// Stream carries all PBFT traffic of this group.
	Stream transport.Stream
	// Deliver receives ordered payloads (the black-box callback).
	Deliver consensus.DeliverFunc
	// Validate vets payloads before the replica endorses them
	// (A-Validity). Nil accepts everything.
	Validate consensus.ValidateFunc
	// Policy decides quorums; nil means classic 2f+1 counting.
	Policy QuorumPolicy
	// NormalCaseAuth selects signature or MAC-vector authentication
	// for prepare and commit; the zero value is AuthMACVector (the
	// paper's fast path). Inbound messages of either kind are always
	// accepted, so mixed groups interoperate during a mode migration.
	NormalCaseAuth AuthMode

	// BatchSize caps payloads per consensus instance.
	BatchSize int
	// BatchOccupancy, when set, records the number of payloads in every
	// batch this replica proposes while leading, making underfilled
	// batches measurable (the batch-size knob is a first-class workload
	// dimension; see stats.Occupancy).
	BatchOccupancy *stats.Occupancy
	// BatchDelay bounds how long a partial batch waits behind
	// instances that are still in flight: it is proposed when it
	// fills, when the last of them is delivered, or after BatchDelay,
	// whichever comes first. A leader with nothing in flight never
	// waits — it proposes what it has at once.
	BatchDelay time.Duration
	// AdaptiveBatching closes the loop between offered load and the
	// batching knobs: the replica runs an AIMD controller
	// (internal/tune) that swings the effective batch size within
	// [1, BatchSize] and the partial-batch flush delay within
	// [0, BatchDelay], from EWMAs of batch occupancy and queue depth
	// sampled at propose time. Off by default: the static
	// BatchSize/BatchDelay behavior stays byte-for-byte reachable.
	AdaptiveBatching bool
	// ArrivalRate, when set with AdaptiveBatching, receives every
	// admitted request so deployments can read the windowed offered
	// load (req/s) the controller saw.
	ArrivalRate *stats.Rate
	// Window is the number of batches that may be in flight beyond
	// the low watermark (pipeline depth).
	Window int
	// CheckpointInterval is the number of batches between internal
	// checkpoints; must be smaller than Window so the pipeline never
	// outruns garbage collection.
	CheckpointInterval int
	// RequestTimeout is how long a payload may stay undelivered
	// before the replica suspects the leader and starts a view
	// change. It doubles on consecutive failed view changes,
	// saturating at ViewChangeTimeoutCap.
	RequestTimeout time.Duration
	// ViewChangeTimeoutCap bounds the consecutive-failure doubling of
	// the view-change timeout. Without a cap a long partition pushes
	// the timeout to minutes and post-heal recovery waits for the
	// whole residue; with it, competing view changes still converge
	// (the cap leaves room for several round trips) but recovery
	// latency after a heal stays bounded. Defaults to 8× RequestTimeout.
	ViewChangeTimeoutCap time.Duration

	// SuspectSlowLeader enables the gray-failure defense: a leader
	// performance monitor that tracks per-view delivery throughput and
	// request latency (stats.Rate over a sliding window plus an EWMA of
	// Order→deliver latency) and proactively starts a view change when
	// the current leader underperforms the median of recent healthy
	// measurements by more than SlowFraction while requests are
	// demonstrably waiting. Off by default: without it the replica's
	// behavior is byte-for-byte the classic silence-timeout protocol.
	//
	// Safety is unconditional — a proactive rotation is an ordinary
	// view change and still needs the usual 2f+1 quorum, so f
	// slow-accusing Byzantine replicas cannot depose a correct leader.
	// Liveness against accusation storms is guarded by hysteresis
	// (MonitorStrikes consecutive slow intervals) and a bounded
	// rotation rate (RotationCooldown per replica).
	SuspectSlowLeader bool
	// MonitorInterval is how often the monitor re-evaluates the leader
	// (and the width of one throughput sample). Defaults to
	// RequestTimeout/8, floored at 10ms.
	MonitorInterval time.Duration
	// MonitorGrace is how long after a view install the monitor stays
	// quiet, giving a fresh leader time to ramp before it can be
	// judged. Defaults to 2× MonitorInterval.
	MonitorGrace time.Duration
	// SlowFraction is the underperformance threshold in (0,1): the
	// leader is suspected when delivery throughput falls below
	// SlowFraction × the median of recent healthy intervals AND
	// latency exceeds the healthy median by more than 1/SlowFraction.
	// Defaults to 0.5.
	SlowFraction float64
	// MonitorStrikes is the hysteresis: consecutive slow intervals
	// required before the monitor accuses. Defaults to 3.
	MonitorStrikes int
	// RotationCooldown bounds the proactive rotation rate per replica:
	// after initiating one proactive view change the monitor holds its
	// fire for this long, so even a persistently failing signal cannot
	// livelock the group through back-to-back rotations. Defaults to
	// 2× RequestTimeout.
	RotationCooldown time.Duration
	// Pipeline runs signature verification and signing off the
	// transport handler goroutines and the replica lock; nil selects
	// the process-wide default pool (crypto.DefaultPipeline). Pass
	// crypto.SerialPipeline() to force the old inline behavior.
	Pipeline *crypto.Pipeline

	// StartView seeds the replica's view on construction. A replica
	// restarting from durable state passes its last installed view so
	// it rejoins without re-running the view changes it already saw
	// (it still catches further up via the status protocol).
	StartView uint64
	// OnViewInstall, when set, is invoked with every newly installed
	// view (including implicit adoption via new-view catch-up). It runs
	// with the replica lock held and must not block or call back into
	// the replica; durability layers use it to persist the view.
	OnViewInstall func(view uint64)
}

func (c *Config) applyDefaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 16
		// The default must respect an explicitly small Window: the
		// checkpoint interval has to stay below the window or the
		// pipeline outruns garbage collection and wedges. An explicit
		// contradictory pair still fails validation — only the value we
		// picked ourselves is clamped.
		if c.CheckpointInterval >= c.Window {
			clamped := c.Window / 2
			if clamped < 1 {
				clamped = 1
			}
			log.Printf("pbft: default checkpoint interval 16 >= window %d; clamping to %d", c.Window, clamped)
			c.CheckpointInterval = clamped
		}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.ViewChangeTimeoutCap <= 0 {
		c.ViewChangeTimeoutCap = 8 * c.RequestTimeout
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = c.RequestTimeout / 8
		if c.MonitorInterval < 10*time.Millisecond {
			c.MonitorInterval = 10 * time.Millisecond
		}
	}
	if c.MonitorGrace <= 0 {
		c.MonitorGrace = 2 * c.MonitorInterval
	}
	if c.SlowFraction <= 0 || c.SlowFraction >= 1 {
		c.SlowFraction = 0.5
	}
	if c.MonitorStrikes <= 0 {
		c.MonitorStrikes = 3
	}
	if c.RotationCooldown <= 0 {
		c.RotationCooldown = 2 * c.RequestTimeout
	}
	if c.Policy == nil {
		c.Policy = CountQuorum{Need: 2*c.Group.F + 1}
	}
	if c.Pipeline == nil {
		c.Pipeline = crypto.DefaultPipeline()
	}
}

func (c *Config) validate() error {
	if len(c.Group.Members) == 0 {
		return errors.New("pbft: empty group")
	}
	if c.Group.IndexOf(c.Suite.Node()) < 0 {
		return fmt.Errorf("pbft: replica %v not in group %v", c.Suite.Node(), c.Group.ID)
	}
	if c.Deliver == nil {
		return errors.New("pbft: Deliver callback required")
	}
	if c.Node == nil {
		return errors.New("pbft: transport node required")
	}
	if c.CheckpointInterval >= c.Window {
		return fmt.Errorf("pbft: checkpoint interval %d must be < window %d", c.CheckpointInterval, c.Window)
	}
	if c.ViewChangeTimeoutCap < c.RequestTimeout {
		return fmt.Errorf("pbft: view-change timeout cap %v must be >= request timeout %v", c.ViewChangeTimeoutCap, c.RequestTimeout)
	}
	return nil
}

// leaderOf returns the leader of view v: members take the role round
// robin.
func (c *Config) leaderOf(view uint64) ids.NodeID {
	return c.Group.Members[view%uint64(len(c.Group.Members))]
}
