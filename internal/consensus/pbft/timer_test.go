package pbft

import (
	"slices"
	"sync"
	"testing"
	"time"

	"spider/internal/consensus"
)

// batchModes are the configurations the batch-taking rule must hold in:
// both normal-case authentication modes.
var batchModes = []struct {
	name string
	auth AuthMode
}{
	{"mac/static", AuthMACVector},
	{"signed/static", AuthSignatures},
}

// batchSizes records, for the leader of view 0, the size of every batch
// it delivers, in order.
type batchSizes struct {
	mu    sync.Mutex
	sizes []int
}

func (b *batchSizes) wrap(i int, cfg *Config) {
	if i != 0 {
		return
	}
	inner := cfg.Deliver
	cfg.Deliver = func(batch consensus.Batch) {
		b.mu.Lock()
		b.sizes = append(b.sizes, len(batch.Payloads))
		b.mu.Unlock()
		inner(batch)
	}
}

func (b *batchSizes) snapshot() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.sizes)
}

// flushAt reports when the replica's waiting partial batch is flushed
// (zero when none waits).
func flushAt(r *Replica) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.flushAt
}

// slowBatching gives every replica a batch the tests never fill and a
// flush timer that never fires within a test.
func slowBatching(auth AuthMode, cfg *Config) {
	cfg.NormalCaseAuth = auth
	cfg.BatchSize = 8
	cfg.BatchDelay = time.Minute
}

// TestIdleLeaderProposesAtOnce: a single request at a leader with
// nothing in flight is proposed immediately — delivered everywhere
// although the batch is an eighth full and the flush timer is a minute
// long — and the flush is never armed.
func TestIdleLeaderProposesAtOnce(t *testing.T) {
	for _, m := range batchModes {
		t.Run(m.name, func(t *testing.T) {
			c := newCluster(t, 4, 1, func(_ int, cfg *Config) { slowBatching(m.auth, cfg) })
			defer c.stop()
			c.start()
			leader := c.replicas[0]
			leader.Order([]byte("lonely request"))
			c.waitDeliveries(1, 5*time.Second, nil)
			// A minute-long flush armed at any point would still wait.
			if !flushAt(leader).IsZero() {
				t.Fatal("idle leader armed the batch flush")
			}
		})
	}
}

// TestQueueBehindInflightTravelsAsOneBatch: requests that arrive while
// an instance is in flight wait behind it (arming the flush once)
// and leave together the moment it is delivered — two instances, of one
// and three requests. The first instance is held in flight by delaying
// the leader's outbound frames; a cut would lose the pre-prepare, which
// PBFT does not retransmit.
func TestQueueBehindInflightTravelsAsOneBatch(t *testing.T) {
	for _, m := range batchModes {
		t.Run(m.name, func(t *testing.T) {
			var sizes batchSizes
			c := newCluster(t, 4, 1, func(i int, cfg *Config) {
				slowBatching(m.auth, cfg)
				sizes.wrap(i, cfg)
			})
			defer c.stop()
			c.start()
			leader := c.replicas[0]
			c.net.Degrade(1, 200*time.Millisecond, 0)

			leader.Order(payloadN(0))
			if !flushAt(leader).IsZero() {
				t.Fatal("idle leader armed the batch flush")
			}
			leader.Order(payloadN(1))
			first := flushAt(leader)
			if first.IsZero() {
				t.Fatal("partial batch behind an in-flight instance did not arm the flush")
			}
			leader.Order(payloadN(2))
			leader.Order(payloadN(3))
			if !flushAt(leader).Equal(first) {
				t.Fatal("batch flush re-armed while already armed")
			}
			if got := sizes.snapshot(); len(got) != 0 {
				t.Fatalf("leader delivered %v while its first pre-prepare was still on the wire", got)
			}
			c.net.Restore(1)

			c.waitDeliveries(4, 10*time.Second, nil)
			if got := sizes.snapshot(); !slices.Equal(got, []int{1, 3}) {
				t.Fatalf("batch sizes = %v, want [1 3]", got)
			}
		})
	}
}

// TestNewLeaderFlushesInheritedQueue: requests the failed leader never
// proposed sit in every follower's queue; the leader of the next view
// has nothing in flight when it installs the view and must propose them
// then, not a BatchDelay later.
func TestNewLeaderFlushesInheritedQueue(t *testing.T) {
	for _, m := range batchModes {
		t.Run(m.name, func(t *testing.T) {
			c := newCluster(t, 4, 1, func(_ int, cfg *Config) { slowBatching(m.auth, cfg) })
			defer c.stop()
			c.start()
			c.net.Isolate(1, true)
			c.replicas[0].Stop()
			for i := 0; i < 2; i++ {
				for _, r := range c.replicas[1:] {
					r.Order(payloadN(i))
				}
			}
			c.waitDeliveries(2, 15*time.Second, func(i int) bool { return i != 0 })
			if v := c.replicas[1].View(); v == 0 {
				t.Fatal("requests were delivered without a view change")
			}
		})
	}
}

// TestStopCancelsBatchTimer: a partial batch behind an in-flight
// instance arms the flush, which the replica's one timer serves; Stop
// must cancel that timer instead of leaving it to fire into the stopped
// replica's lock (and keep the replica reachable until it does).
func TestStopCancelsBatchTimer(t *testing.T) {
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.BatchSize = 8
		cfg.BatchDelay = time.Minute // must never fire during the test
	})
	c.start()
	defer c.stop() // Stop is idempotent; the leader is stopped early below
	leader := c.replicas[0]
	// Keep the first instance in flight: an idle leader never arms the
	// timer.
	c.net.Degrade(1, time.Minute, 0)
	leader.Order([]byte("in flight"))
	leader.Order([]byte("lonely request")) // < BatchSize behind it: arms the flush
	if flushAt(leader).IsZero() {
		t.Fatal("partial batch never armed the flush")
	}

	leader.Stop()
	if leader.timer.Stop() {
		t.Fatal("Stop left the replica's timer live")
	}
}

// TestBatchTimerFlushesPartialBatch guards the timer's normal job: a
// partial batch behind an in-flight instance must still be proposed
// once BatchDelay elapses, without waiting for that instance. (An idle
// leader no longer waits at all, so the partial batch is put behind a
// leading singleton held in flight.)
func TestBatchTimerFlushesPartialBatch(t *testing.T) {
	var sizes batchSizes
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.BatchSize = 8
		cfg.BatchDelay = 2 * time.Millisecond
		sizes.wrap(i, cfg)
	})
	c.start()
	defer c.stop()
	leader := c.replicas[0]
	c.net.Degrade(1, 100*time.Millisecond, 0)
	leader.Order([]byte("in flight"))
	leader.Order([]byte("flush me"))
	// The flush, not the first instance's delivery, must propose the
	// second: it is on the wire while the first pre-prepare still is.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader.mu.Lock()
		proposed := leader.core.nextSeq == 3
		leader.mu.Unlock()
		if proposed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partial batch was never flushed by the timer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sizes.snapshot(); len(got) != 0 {
		t.Fatalf("second instance was proposed only after the leader delivered %v", got)
	}
	c.waitDeliveries(2, 5*time.Second, nil)
}
