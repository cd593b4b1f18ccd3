package pbft

import (
	"errors"
	"fmt"
	"log"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/stats"
	"spider/internal/transport"

	"spider/internal/consensus"
)

// WeightedQuorum implements WHEAT-style weighted voting (Sousa &
// Bessani, SRDS '15): with n = 3f+1+Δ replicas, 2f replicas carry
// weight Vmax = 1 + Δ/f and the rest weight Vmin = 1; a quorum is any
// set with total weight at least 2f·Vmax + 1. Well-placed Vmax
// replicas let quorums form among the closest nodes.
type WeightedQuorum struct {
	Weights map[ids.NodeID]float64
	Need    float64
}

var _ quorum.Rule = WeightedQuorum{}

// IsQuorum implements quorum.Rule.
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

// MarshalText and UnmarshalText write the auth mode by its name in configs.
func (m AuthMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

func (m *AuthMode) UnmarshalText(b []byte) error {
	for *m = AuthMACVector; *m <= AuthSignatures; *m++ {
		if m.String() == string(b) {
			return nil
		}
	}
	return fmt.Errorf("pbft: unknown auth mode %q", b)
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
	Policy quorum.Rule
	// NormalCaseAuth selects signature or MAC-vector authentication
	// for prepare and commit; the zero value is AuthMACVector (the
	// paper's fast path). Inbound messages of either kind are always
	// accepted, so mixed groups interoperate during a mode migration.
	NormalCaseAuth AuthMode

	// BatchSize caps payloads per consensus instance. It is a cap, not
	// a target: the batch a leader proposes holds what queued up while
	// earlier instances were in flight, so it follows the load.
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
	// Window is the number of batches that may be in flight beyond
	// the low watermark (pipeline depth).
	Window int
	// CheckpointInterval is the number of batches between internal
	// checkpoints; must be smaller than Window so the pipeline never
	// outruns garbage collection.
	CheckpointInterval int
	// RequestTimeout is the first guess and the ceiling of the failure
	// detector, not the detection time. A replica suspects the leader
	// once a payload it Ordered has gone uncommitted for twice its
	// measured Order→commit latency plus four deviations, kept between
	// RequestTimeout/8 and RequestTimeout; until 16 batches have been
	// measured, and while Deliver holds a committed batch, it waits
	// RequestTimeout. f+1 suspicions start a view change; a replica
	// alone in its suspicion starts one at RequestTimeout. The
	// view-change timeout doubles from there on consecutive failed view
	// changes, saturating at 8× RequestTimeout. RequestTimeout also sets
	// the periodic checks, every RequestTimeout/8, on which the
	// detector's slowness rule judges the leader (detector.go).
	RequestTimeout time.Duration

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
	if c.Policy == nil {
		c.Policy = quorum.Count(2*c.Group.F + 1)
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
	return nil
}

// leaderOf returns the leader of view v: members take the role round
// robin.
func (c *Config) leaderOf(view uint64) ids.NodeID {
	return c.Group.Members[view%uint64(len(c.Group.Members))]
}
