package pbft

import (
	"slices"
	"sync"
	"testing"
	"time"

	"spider/internal/consensus"
)

// batchModes are the configurations the batch-taking rule must hold in:
// both normal-case authentication modes, with static knobs and with the
// adaptive controller (which starts at a batch target of one, so every
// batch it sees in these tests is a full one).
var batchModes = []struct {
	name     string
	auth     AuthMode
	adaptive bool
}{
	{"mac/static", AuthMACVector, false},
	{"mac/adaptive", AuthMACVector, true},
	{"signed/static", AuthSignatures, false},
	{"signed/adaptive", AuthSignatures, true},
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

// timerState reports the replica's live batch timer (nil when unarmed).
func timerState(r *Replica) *time.Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.batchTimerOn {
		return nil
	}
	return r.batchTimer
}

// slowBatching gives every replica a batch the tests never fill and a
// flush timer that never fires within a test.
func slowBatching(auth AuthMode, adaptive bool, cfg *Config) {
	cfg.NormalCaseAuth = auth
	cfg.AdaptiveBatching = adaptive
	cfg.BatchSize = 8
	cfg.BatchDelay = time.Minute
}

// TestIdleLeaderProposesAtOnce: a single request at a leader with
// nothing in flight is proposed immediately — delivered everywhere
// although the batch is an eighth full and the flush timer is a minute
// long — and the timer is never armed.
func TestIdleLeaderProposesAtOnce(t *testing.T) {
	for _, m := range batchModes {
		t.Run(m.name, func(t *testing.T) {
			c := newCluster(t, 4, 1, func(_ int, cfg *Config) { slowBatching(m.auth, m.adaptive, cfg) })
			defer c.stop()
			c.start()
			leader := c.replicas[0]
			leader.Order([]byte("lonely request"))
			c.waitDeliveries(1, 5*time.Second, nil)
			// A minute-long timer armed at any point would still be live.
			if timerState(leader) != nil {
				t.Fatal("idle leader armed the batch timer")
			}
		})
	}
}

// TestQueueBehindInflightTravelsAsOneBatch: requests that arrive while
// an instance is in flight wait behind it (arming the flush timer once)
// and leave together the moment it is delivered — two instances, of one
// and three requests. The first instance is held in flight by delaying
// the leader's outbound frames; a cut would lose the pre-prepare, which
// PBFT does not retransmit. Static batching only: the adaptive
// controller's target is one here, so it proposes every request as its
// own full batch and never has a partial batch to hold.
func TestQueueBehindInflightTravelsAsOneBatch(t *testing.T) {
	for _, m := range batchModes {
		if m.adaptive {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			var sizes batchSizes
			c := newCluster(t, 4, 1, func(i int, cfg *Config) {
				slowBatching(m.auth, m.adaptive, cfg)
				sizes.wrap(i, cfg)
			})
			defer c.stop()
			c.start()
			leader := c.replicas[0]
			c.net.Degrade(1, 200*time.Millisecond, 0)

			leader.Order(payloadN(0))
			if timerState(leader) != nil {
				t.Fatal("idle leader armed the batch timer")
			}
			leader.Order(payloadN(1))
			first := timerState(leader)
			if first == nil {
				t.Fatal("partial batch behind an in-flight instance did not arm the timer")
			}
			leader.Order(payloadN(2))
			leader.Order(payloadN(3))
			if timerState(leader) != first {
				t.Fatal("batch timer re-armed while already armed")
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
			c := newCluster(t, 4, 1, func(_ int, cfg *Config) { slowBatching(m.auth, m.adaptive, cfg) })
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
// instance arms the flush timer; Stop must cancel it instead of leaving
// a live time.AfterFunc that later fires into the stopped replica's
// lock (and keeps the replica reachable until the delay elapses).
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
	leader.Order([]byte("lonely request")) // < BatchSize behind it: arms the timer
	if timerState(leader) == nil {
		t.Fatal("partial batch never armed the flush timer")
	}

	leader.Stop()
	leader.mu.Lock()
	timer, on := leader.batchTimer, leader.batchTimerOn
	leader.mu.Unlock()
	if timer != nil || on {
		t.Fatalf("Stop left the batch timer live (timer=%v on=%v)", timer != nil, on)
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
	// The timer, not the first instance's delivery, must propose the
	// second: it is on the wire while the first pre-prepare still is.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader.mu.Lock()
		proposed := leader.nextSeq == 3
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
