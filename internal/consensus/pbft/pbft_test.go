package pbft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

var testStream = transport.MakeStream(transport.KindPBFT, 100)

// collector records ordered deliveries of one replica.
type collector struct {
	mu       sync.Mutex
	seqs     []ids.SeqNr
	payloads [][]byte
}

// deliver unpacks a batch delivery into per-payload (seq, payload)
// records, so assertions keep working on the flattened order.
func (c *collector) deliver(b consensus.Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, payload := range b.Payloads {
		c.seqs = append(c.seqs, b.Start+ids.SeqNr(i))
		c.payloads = append(c.payloads, payload)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seqs)
}

func (c *collector) snapshot() ([]ids.SeqNr, [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ids.SeqNr(nil), c.seqs...), append([][]byte(nil), c.payloads...)
}

// cluster bundles a PBFT group running over memnet for tests.
type cluster struct {
	t          *testing.T
	net        *memnet.Network
	group      ids.Group
	replicas   []*Replica
	collectors []*collector
}

func newCluster(t *testing.T, n, f int, mutate func(i int, cfg *Config)) *cluster {
	t.Helper()
	members := make([]ids.NodeID, n)
	for i := range members {
		members[i] = ids.NodeID(i + 1)
	}
	group := ids.Group{ID: 1, Members: members, F: f}
	// SPIDER_SUITE reruns the whole PBFT suite under any registered
	// signature suite (the CI matrix runs it under ed25519).
	suites := crypto.NewSuites(members, crypto.EnvSuiteKind(crypto.SuiteInsecure))
	net := memnet.New(memnet.Options{})

	c := &cluster{t: t, net: net, group: group}
	for i, m := range members {
		col := &collector{}
		cfg := Config{
			Group:              group,
			Suite:              suites[m],
			Node:               net.Node(m),
			Stream:             testStream,
			Deliver:            col.deliver,
			BatchSize:          4,
			BatchDelay:         2 * time.Millisecond,
			Window:             32,
			CheckpointInterval: 8,
			RequestTimeout:     300 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("New replica %v: %v", m, err)
		}
		c.replicas = append(c.replicas, r)
		c.collectors = append(c.collectors, col)
	}
	return c
}

func (c *cluster) start() {
	for _, r := range c.replicas {
		r.Start()
	}
}

func (c *cluster) stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// orderAll submits the payload to every replica, as Spider's agreement
// replicas do after receiving a request through the IRMC.
func (c *cluster) orderAll(payload []byte) {
	for _, r := range c.replicas {
		r.Order(payload)
	}
}

// waitDeliveries blocks until every live collector holds at least n
// deliveries or the deadline passes.
func (c *cluster) waitDeliveries(n int, timeout time.Duration, live func(i int) bool) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for i, col := range c.collectors {
			if live != nil && !live(i) {
				continue
			}
			if col.count() < n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	counts := make([]int, len(c.collectors))
	for i, col := range c.collectors {
		counts[i] = col.count()
	}
	c.t.Fatalf("timeout waiting for %d deliveries; got %v", n, counts)
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("payload-%04d", i)) }

func TestNormalCaseOrdering(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	c.start()

	const total = 40
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, nil)

	// A-Safety: all replicas deliver identical payloads at identical
	// sequence numbers, densely from 1.
	refSeqs, refPayloads := c.collectors[0].snapshot()
	for i, s := range refSeqs {
		if s != ids.SeqNr(i+1) {
			t.Fatalf("replica 0 seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	for ri := 1; ri < len(c.collectors); ri++ {
		seqs, payloads := c.collectors[ri].snapshot()
		if len(seqs) < total {
			t.Fatalf("replica %d delivered %d", ri, len(seqs))
		}
		for i := 0; i < total; i++ {
			if seqs[i] != refSeqs[i] || !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("replica %d diverges at %d", ri, i)
			}
		}
	}
}

func TestDuplicateOrderIgnored(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	c.start()

	p := payloadN(7)
	for i := 0; i < 5; i++ {
		c.orderAll(p)
	}
	c.waitDeliveries(1, 5*time.Second, nil)
	// Give any duplicate a chance to appear.
	time.Sleep(100 * time.Millisecond)
	for ri, col := range c.collectors {
		if got := col.count(); got != 1 {
			t.Errorf("replica %d delivered %d copies", ri, got)
		}
	}
}

func TestBatching(t *testing.T) {
	c := newCluster(t, 4, 1, func(_ int, cfg *Config) {
		cfg.BatchSize = 10
		cfg.BatchDelay = 5 * time.Millisecond
	})
	defer c.stop()
	c.start()

	// Submit exactly one batch worth plus a remainder; the remainder
	// must flush via the batch timer.
	const total = 13
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 5*time.Second, nil)
}

func TestLeaderFailureViewChange(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	c.start()

	// Establish normal operation in view 0.
	for i := 0; i < 5; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(5, 5*time.Second, nil)

	// Kill the leader (member index 0 leads view 0).
	c.net.Isolate(1, true)
	c.replicas[0].Stop()

	// New requests must still get ordered after a view change.
	for i := 5; i < 10; i++ {
		for _, r := range c.replicas[1:] {
			r.Order(payloadN(i))
		}
	}
	c.waitDeliveries(10, 15*time.Second, func(i int) bool { return i != 0 })

	for _, r := range c.replicas[1:] {
		if got := r.View(); got == 0 {
			t.Errorf("replica still in view 0 after leader failure")
		}
		if r.Leader() == 1 {
			t.Errorf("failed node still considered leader")
		}
	}

	// Agreement must stay consistent among the survivors.
	refSeqs, refPayloads := c.collectors[1].snapshot()
	for ri := 2; ri < 4; ri++ {
		seqs, payloads := c.collectors[ri].snapshot()
		n := len(seqs)
		if len(refSeqs) < n {
			n = len(refSeqs)
		}
		for i := 0; i < n; i++ {
			if seqs[i] != refSeqs[i] || !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("replica %d diverges at %d after view change", ri, i)
			}
		}
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	c := newCluster(t, 4, 1, func(_ int, cfg *Config) {
		cfg.BatchSize = 1 // one batch per payload for predictable seqs
		cfg.CheckpointInterval = 4
		cfg.Window = 16
	})
	defer c.stop()
	c.start()

	const total = 30
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, nil)
	// Allow checkpoint traffic to settle.
	time.Sleep(200 * time.Millisecond)

	for ri, r := range c.replicas {
		r.mu.Lock()
		lowWM := r.core.lowWM
		logSize := len(r.core.log)
		r.mu.Unlock()
		if lowWM == 0 {
			t.Errorf("replica %d never stabilized a checkpoint", ri)
		}
		if logSize > 4*r.cfg.Window {
			t.Errorf("replica %d log grew to %d entries", ri, logSize)
		}
	}
}

func TestLaggingReplicaCatchUp(t *testing.T) {
	c := newCluster(t, 4, 1, func(_ int, cfg *Config) {
		cfg.BatchSize = 1
		cfg.CheckpointInterval = 4
		cfg.Window = 8
	})
	defer c.stop()
	c.start()

	// Disconnect replica 4, then order enough traffic that the rest
	// advance past several checkpoints.
	c.net.Isolate(4, true)
	const total = 40
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, func(i int) bool { return i != 3 })

	// Reconnect: replica 4 must catch up via status transfer — it
	// jumps over garbage-collected history (possibly all of it, with
	// zero deliveries; A-Order permits the gap) and then participates
	// in ordering new traffic. Recovery is proven by it delivering
	// fresh payloads at sequence numbers past the isolation window.
	c.net.Isolate(4, false)
	deadline := time.Now().Add(15 * time.Second)
	next := total
	for time.Now().Before(deadline) {
		c.orderAll(payloadN(next))
		next++
		time.Sleep(50 * time.Millisecond)
		seqs, _ := c.collectors[3].snapshot()
		if len(seqs) > 0 && seqs[len(seqs)-1] > ids.SeqNr(total) {
			break
		}
	}
	seqs, payloads := c.collectors[3].snapshot()
	if len(seqs) == 0 || seqs[len(seqs)-1] <= ids.SeqNr(total) {
		t.Fatal("lagging replica never recovered")
	}
	// Whatever it delivered must match replica 1's order at the same
	// sequence numbers (A-Safety across the gap).
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		refSeqs, _ := c.collectors[0].snapshot()
		if len(refSeqs) > 0 && refSeqs[len(refSeqs)-1] >= seqs[len(seqs)-1] {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	refSeqs, refPayloads := c.collectors[0].snapshot()
	ref := make(map[ids.SeqNr][]byte, len(refSeqs))
	for i, s := range refSeqs {
		ref[s] = refPayloads[i]
	}
	for i, s := range seqs {
		if want, ok := ref[s]; ok && !bytes.Equal(payloads[i], want) {
			t.Fatalf("catch-up divergence at seq %d", s)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []byte("forbidden")
	c := newCluster(t, 4, 1, func(_ int, cfg *Config) {
		cfg.Validate = func(p []byte) error {
			if bytes.Equal(p, bad) {
				return fmt.Errorf("rejected")
			}
			return nil
		}
	})
	defer c.stop()
	c.start()

	c.orderAll(payloadN(1))
	c.waitDeliveries(1, 5*time.Second, nil)

	// The leader itself won't refuse to propose (a Byzantine leader
	// wouldn't), but followers refuse to prepare, so the payload must
	// not be delivered. Note: after the request timeout this triggers
	// a view change; the test stays within the timeout.
	for _, r := range c.replicas {
		r.Order(bad)
	}
	time.Sleep(150 * time.Millisecond)
	for ri, col := range c.collectors {
		_, payloads := col.snapshot()
		for _, p := range payloads {
			if bytes.Equal(p, bad) {
				t.Fatalf("replica %d delivered invalid payload", ri)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: members, F: 1}
	suites := crypto.NewSuites(members, crypto.SuiteInsecure)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	base := func() Config {
		return Config{
			Group:   group,
			Suite:   suites[1],
			Node:    net.Node(1),
			Stream:  testStream,
			Deliver: func(consensus.Batch) {},
		}
	}

	if _, err := New(base()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}

	cfg := base()
	cfg.Deliver = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil Deliver accepted")
	}

	cfg = base()
	cfg.Suite = suites[2]
	cfg.Group = ids.Group{ID: 1, Members: []ids.NodeID{1, 3, 4}, F: 0}
	if _, err := New(cfg); err == nil {
		t.Error("non-member replica accepted")
	}

	cfg = base()
	cfg.CheckpointInterval = 64
	cfg.Window = 32
	if _, err := New(cfg); err == nil {
		t.Error("checkpoint interval >= window accepted")
	}

	cfg = base()
	cfg.Group = ids.Group{ID: 1, Members: members, F: 2}
	if _, err := New(cfg); err == nil {
		t.Error("undersized group accepted")
	}
}

// TestConfigDefaultCheckpointIntervalClamped pins the defaulting
// contract: an explicitly small Window with an unset CheckpointInterval
// must clamp the default below the window (the comment on
// CheckpointInterval says "must be smaller than Window" — silently
// wedging the pipeline or rejecting a config the user never
// contradicted are both wrong).
func TestConfigDefaultCheckpointIntervalClamped(t *testing.T) {
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.Window = 8
		cfg.CheckpointInterval = 0 // defaulted: would be 16 >= 8
	})
	defer c.stop()
	for _, r := range c.replicas {
		if got := r.cfg.CheckpointInterval; got != 4 {
			t.Fatalf("defaulted checkpoint interval = %d, want 4 (window 8 / 2)", got)
		}
	}
	// The clamped pipeline must actually run past several checkpoints.
	c.start()
	for i := 0; i < 40; i++ {
		c.orderAll(fmt.Appendf(nil, "clamp-%d", i))
	}
	c.waitDeliveries(40, 10*time.Second, nil)
}

// TestConfigExplicitCheckpointIntervalRejected: an explicitly
// contradictory pair still fails construction — only the value the
// defaulting picked itself may be adjusted.
func TestConfigExplicitCheckpointIntervalRejected(t *testing.T) {
	cfg := Config{CheckpointInterval: 8, Window: 8}
	cfg.applyDefaults()
	if err := cfg.validate(); err == nil {
		t.Fatal("explicit checkpoint interval >= window passed validation")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	c.start() // double start is a no-op
	c.orderAll(payloadN(0))
	c.waitDeliveries(1, 5*time.Second, nil)
	c.stop()
	c.stop() // double stop is a no-op
	// Order after stop must not panic.
	c.replicas[0].Order(payloadN(1))
}
