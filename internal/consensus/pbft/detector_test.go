package pbft

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/crypto"
)

// The failure detector on the simulation, with the clock moving from
// wake-up to wake-up as Replica's timer moves it. T is the sim's
// RequestTimeout (300ms).

// newDetectorSim returns a sim whose clock follows the replicas'
// wake-ups and whose frames each take delay.
func newDetectorSim(t *testing.T, delay time.Duration) (*sim, time.Duration) {
	s := newSim(t, nil)
	s.tick, s.delay = 0, delay
	return s, s.reps[1].cfg.RequestTimeout
}

// warmUp orders n payloads at every replica, one after another: n
// latency samples at each.
func (s *sim) warmUp(n int) {
	s.t.Helper()
	base := len(s.payloads(s.live()[0]))
	for i := range n {
		s.order(fmt.Appendf(nil, "warm-up %d", i), s.live()...)
		s.run("warm-up", time.Minute, s.allDelivered(base+i+1))
	}
}

// silenceLeader takes view 0's leader down, orders one payload at the
// others and returns when they delivered it in view 1, with when it was
// ordered.
func (s *sim) silenceLeader(limit time.Duration) time.Time {
	s.t.Helper()
	n := len(s.payloads(1))
	s.down[1] = true
	t0 := s.now
	s.order([]byte("after the leader fell silent"), s.live()...)
	s.run("view 1 delivers", limit, s.allDelivered(n+1))
	s.sameOrder()
	for _, id := range s.live() {
		if v := s.reps[id].core.view; v != 1 {
			s.t.Fatalf("replica %v in view %d, want 1", id, v)
		}
	}
	return t0
}

// firstVCWithin asserts that every live replica's first view change
// started between lo and hi after t0.
func (s *sim) firstVCWithin(t0 time.Time, lo, hi time.Duration) {
	s.t.Helper()
	for _, id := range s.live() {
		at := s.firstVC[id]
		if at.IsZero() {
			s.t.Fatalf("replica %v started no view change", id)
		}
		if d := at.Sub(t0); d < lo || d > hi {
			s.t.Errorf("replica %v started its view change %v after the order, want within [%v, %v]", id, d, lo, hi)
		}
	}
}

// TestDetectorSuspectsSilentLeaderEarly: with 32 samples of a fast
// group, a silent leader is suspected at the floor, T/8, and the replica
// wakes for it instead of waiting for its next periodic tick.
func TestDetectorSuspectsSilentLeaderEarly(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	t0 := s.silenceLeader(10 * T)
	s.firstVCWithin(t0, T/8, T/8*5/4)
}

// TestDetectorWarmupUsesRequestTimeout: below 16 samples the detector
// has no estimate and waits RequestTimeout, as a fixed timeout would.
func TestDetectorWarmupUsesRequestTimeout(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(detectorWarmup - 1)
	t0 := s.silenceLeader(10 * T)
	s.firstVCWithin(t0, T, T*5/4)
}

// TestDetectorSlowLiveGroupKeepsLeader: every frame takes 40ms, so an
// order commits about 0.4·T after it is made (three hops). The estimate
// follows, and 200 instances run without a view change.
func TestDetectorSlowLiveGroupKeepsLeader(t *testing.T) {
	s, T := newDetectorSim(t, 40*time.Millisecond)
	s.warmUp(200)
	for _, id := range s.members {
		c := s.reps[id].core
		if c.vcCount != 0 {
			t.Errorf("replica %v started %d view changes", id, c.vcCount)
		}
		if c.lat.srtt < T*35/100 || c.lat.srtt > T*45/100 {
			t.Errorf("replica %v measured %v per order, want about 0.4·T = %v", id, c.lat.srtt, T*4/10)
		}
		if got := c.timeout(); got < 2*c.lat.srtt || got >= T {
			t.Errorf("replica %v times out after %v, want [2·%v, %v)", id, got, c.lat.srtt, T)
		}
	}
}

// TestDetectorBlockedDeliverKeepsLeader: a committed batch whose Deliver
// blocks for 3·T is no reason to suspect the leader; the clock stopped
// when the batch committed.
func TestDetectorBlockedDeliverKeepsLeader(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	for _, id := range s.members {
		s.held[id] = true
	}
	t0 := s.now
	s.order([]byte("committed, not yet delivered"), s.members...)
	s.run("committed everywhere", T, func() bool {
		for _, id := range s.members {
			if !s.reps[id].core.deliverable() {
				return false
			}
		}
		return true
	})
	s.run("Deliver blocked for 3·T", 4*T, func() bool { return !s.now.Before(t0.Add(3 * T)) })
	for _, id := range s.members {
		s.release(id)
	}
	s.run("delivered", T, s.allDelivered(33))
	s.sameOrder()
	for _, id := range s.members {
		if n := s.reps[id].core.vcCount; n != 0 {
			t.Errorf("replica %v started %d view changes while Deliver blocked", id, n)
		}
	}
}

// TestDetectorBackpressureKeepsLeader: every replica's Deliver blocks
// for T/2 while more than Window batches are ordered. The leader fills
// its window and stops proposing; what queues behind it waits for
// Deliver, not for the leader, so nobody suspects it.
func TestDetectorBackpressureKeepsLeader(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	for _, id := range s.members {
		s.held[id] = true
	}
	t0 := s.now
	cfg := s.reps[1].cfg
	n := (cfg.Window + 8) * cfg.BatchSize
	for i := range n {
		s.order(fmt.Appendf(nil, "behind a blocked Deliver %d", i), s.members...)
	}
	s.run("Deliver blocked for T/2", T, func() bool { return !s.now.Before(t0.Add(T / 2)) })
	if c := s.reps[1].core; c.nextSeq <= c.lowWM+uint64(cfg.Window) || len(c.queue) == 0 {
		t.Fatalf("leader proposed up to %d with %d queued, want a full window and a queue", c.nextSeq-1, len(c.queue))
	}
	for _, id := range s.members {
		s.release(id)
	}
	s.run("delivered", 4*T, s.allDelivered(32+n))
	s.sameOrder()
	for _, id := range s.members {
		if n, sus := s.reps[id].core.vcCount, len(s.multicasts(id, tagSuspicion)); n != 0 || sus != 0 {
			t.Errorf("replica %v sent %d suspicions and started %d view changes while Deliver blocked", id, sus, n)
		}
	}
}

// TestDetectorLoneSuspicionKeepsView: a replica that hears nothing for
// T/4 — longer than its timeout, shorter than T — suspects the leader
// alone, as one whose own CPU stalled does. It says so but stays in the
// view, and delivers everything once the frames come in.
func TestDetectorLoneSuspicionKeepsView(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	var stalled []simFrame
	until := s.now.Add(T / 4)
	s.intercept = func(f simFrame) bool {
		if f.to == 4 && s.now.Before(until) {
			stalled = append(stalled, f)
			return true
		}
		return false
	}
	s.order([]byte("while replica 4 hears nothing"), s.members...)
	s.run("the stall", T, func() bool { return !s.now.Before(until) })
	s.intercept = nil
	for _, f := range stalled {
		s.arrive(f)
	}
	s.run("delivered", T, s.allDelivered(33))
	s.sameOrder()
	if n := len(s.multicasts(4, tagSuspicion)); n != 1 {
		t.Errorf("replica 4 sent %d suspicions, want 1", n)
	}
	for _, id := range s.members {
		if n := s.reps[id].core.vcCount; n != 0 {
			t.Errorf("replica %v started %d view changes", id, n)
		}
	}
}

// TestDetectorCommittedBatchSurvivesViewChange: a batch committed at a
// replica whose Deliver is blocked has its clock stopped there. The
// view changes before Deliver takes it; the replica keeps the committed
// batch instead of waiting for the new view to commit it again (its
// peers, which delivered it, would not vote for it), so it delivers it
// once Deliver unblocks, and never suspects the new leader.
func TestDetectorCommittedBatchSurvivesViewChange(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	s.held[2] = true
	p := []byte("committed at 2, not delivered")
	s.order(p, s.members...)
	c := s.reps[2].core
	s.run("committed at 2", T, c.deliverable)
	if _, ok := c.pending.since[crypto.Hash(p)]; ok {
		t.Fatal("clock still runs after the commit")
	}
	s.down[1] = true
	s.order([]byte("after the leader fell silent"), s.live()...)
	s.run("view 1 installed at 2", 10*T, func() bool { return c.view == 1 })
	if e, ok := c.log[33]; !ok || !e.committed || e.view != 0 {
		t.Fatal("the batch committed in view 0 did not survive the view change")
	}
	s.release(2)
	s.run("view 1 delivers", 10*T, s.allDelivered(34))
	s.sameOrder()
	if n := c.vcCount; n != 1 {
		t.Errorf("replica 2 started %d view changes, want 1", n)
	}
}

// TestDetectorIdleWakeups: a replica with nothing pending wakes once per
// RequestTimeout/8, however short its estimate.
func TestDetectorIdleWakeups(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	for _, id := range s.members {
		s.ticks[id] = 0
	}
	end := s.now.Add(10 * T)
	s.run("idle", 11*T, func() bool { return !s.now.Before(end) })
	for _, id := range s.members {
		if got, most := s.ticks[id], 10*8+1; got > most {
			t.Errorf("replica %v ticked %d times in 10·T idle, want at most %d", id, got, most)
		}
		if !s.firstVC[id].IsZero() {
			t.Errorf("idle replica %v started a view change", id)
		}
	}
}
