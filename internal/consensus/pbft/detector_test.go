package pbft

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
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
	s.inTurn("warm-up", func(i int) bool { return i == n })
}

// inTurn orders payloads at every live replica, each once the one
// before was delivered everywhere, until stop(i) holds before the i-th.
func (s *sim) inTurn(what string, stop func(i int) bool) {
	s.t.Helper()
	for i := 0; !stop(i); i++ {
		n := len(s.payloads(s.live()[0]))
		s.order(fmt.Appendf(nil, "%s %d", what, i), s.live()...)
		s.run(what, time.Minute, s.allDelivered(n+1))
	}
}

// offer orders a payload at every member each gap, for dur: an open
// loop, unlike inTurn. It returns how many it ordered.
func (s *sim) offer(gap, dur time.Duration) int {
	s.t.Helper()
	n := 0
	for end := s.now.Add(dur); s.now.Before(end); n++ {
		s.order(fmt.Appendf(nil, "offered at %d", s.now.UnixNano()), s.members...)
		next := s.now.Add(gap)
		s.run("offered load", gap, func() bool { return !s.now.Before(next) })
	}
	return n
}

// keptLeader asserts that no replica sent a suspicion or started a view
// change.
func (s *sim) keptLeader(while string) {
	s.t.Helper()
	for _, id := range s.members {
		if n, sus := s.reps[id].core.vcCount, len(s.multicasts(id, tagSuspicion)); n != 0 || sus != 0 {
			s.t.Errorf("replica %v sent %d suspicions and started %d view changes %s", id, sus, n, while)
		}
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

// holdDeliver blocks every replica's Deliver for hold while more than
// Window batches are ordered, so the leader fills its window and stops
// proposing, then releases them and waits until everything is delivered.
func (s *sim) holdDeliver(hold time.Duration) {
	s.t.Helper()
	cfg := s.reps[1].cfg
	T, before := cfg.RequestTimeout, len(s.payloads(1))
	for _, id := range s.members {
		s.held[id] = true
	}
	t0 := s.now
	n := (cfg.Window + 8) * cfg.BatchSize
	for i := range n {
		s.order(fmt.Appendf(nil, "behind a blocked Deliver %d", i), s.members...)
	}
	s.run("Deliver blocked", hold+T, func() bool { return !s.now.Before(t0.Add(hold)) })
	if c := s.reps[1].core; c.nextSeq <= c.lowWM+uint64(cfg.Window) || len(c.queue) == 0 {
		s.t.Fatalf("leader proposed up to %d with %d queued, want a full window and a queue", c.nextSeq-1, len(c.queue))
	}
	for _, id := range s.members {
		s.release(id)
	}
	s.run("delivered", 4*T, s.allDelivered(before+n))
	s.sameOrder()
}

// TestDetectorBackpressureKeepsLeader: every replica's Deliver blocks
// for T/2 while more than Window batches are ordered. The leader fills
// its window and stops proposing; what queues behind it waits for
// Deliver, not for the leader, so nobody suspects it.
func TestDetectorBackpressureKeepsLeader(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(32)
	s.holdDeliver(T / 2)
	s.keptLeader("while Deliver blocked")
}

// TestDetectorSlownessBackpressureKeepsLeader: the same with 300 orders
// of warm-up, which give the slowness rule its baseline, and Deliver
// blocked for 0.7·T. Nothing commits while payloads wait, which looks
// like a slow leader, but the wait is for Deliver here, so the slowness
// rule does not judge it either.
func TestDetectorSlownessBackpressureKeepsLeader(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(300)
	s.holdDeliver(T * 7 / 10)
	s.keptLeader("while Deliver blocked")
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

// TestDetectorSlownessDeposesSlowLeader: the leader slows down so that
// an order commits at 0.9× the silence timeout. The silence rule never
// fires, since every payload commits in time and the estimate follows
// the leader. The slowness rule does, at more than f replicas, and view
// 1 takes over.
func TestDetectorSlownessDeposesSlowLeader(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(300)
	silence := s.reps[2].core.timeout()
	// A follower commits three hops after the order; one is the leader's.
	s.lag[1] = silence*9/10 - 3*s.delay
	t0 := s.now
	s.inTurn("behind a slow leader", func(int) bool {
		for _, id := range s.members {
			if s.reps[id].core.view != 1 {
				return false
			}
		}
		return true
	})
	s.sameOrder()
	suspected := 0
	for _, id := range s.members {
		if n, _ := s.reps[id].Rotations(); n > 0 {
			suspected++
		}
		if d := s.firstVC[id].Sub(t0); d > 2*T {
			t.Errorf("replica %v started its view change %v after the leader slowed down, want within 2·T", id, d)
		}
	}
	if suspected <= s.reps[1].cfg.Group.F {
		t.Errorf("%d replicas found the leader slow, want more than f", suspected)
	}
	if _, rots := s.reps[2].Rotations(); len(rots) == 0 || rots[0].View != 0 {
		t.Errorf("replica 2's slowness suspicions: %+v, want one of view 0", rots)
	}
}

// TestDetectorSlownessLoneReplicaKeepsView: replica 4 alone slows down —
// each frame it sends or receives takes 0.9× the silence timeout longer,
// as under a stalled CPU. It finds the leader slow and says so, but the
// others do not, so nobody leaves view 0.
func TestDetectorSlownessLoneReplicaKeepsView(t *testing.T) {
	s, T := newDetectorSim(t, time.Millisecond)
	s.warmUp(300)
	s.lag[4] = s.reps[4].core.timeout()*9/10 - 3*s.delay
	end := s.now.Add(2 * T)
	s.inTurn("while replica 4 lags", func(int) bool { return !s.now.Before(end) })
	s.sameOrder()
	if n, _ := s.reps[4].Rotations(); n == 0 {
		t.Error("replica 4 sent no slowness suspicion")
	}
	for _, id := range s.members {
		c := s.reps[id].core
		if sus := len(s.multicasts(id, tagSuspicion)); id != 4 && sus != 0 {
			t.Errorf("replica %v sent %d suspicions", id, sus)
		}
		if c.vcCount != 0 || c.view != 0 {
			t.Errorf("replica %v started %d view changes and is in view %d", id, c.vcCount, c.view)
		}
	}
}

// TestDetectorSlownessOverloadKeepsLeader: the offered load doubles past
// what the group commits — a window of two one-payload batches — under
// the same leader. The queue builds and the wait grows past twice its
// healthy median, but the commit rate stays at capacity, so the slowness
// rule keeps the leader. The wait alone would depose it: this is why
// the rule also reads the commit rate.
func TestDetectorSlownessOverloadKeepsLeader(t *testing.T) {
	s := newSim(t, func(cfg *Config) { cfg.BatchSize, cfg.Window, cfg.CheckpointInterval = 1, 2, 1 })
	s.tick, s.delay = time.Millisecond, 2*time.Millisecond
	T := s.reps[1].cfg.RequestTimeout
	n := s.offer(6*time.Millisecond, 4*T)
	healthy := make(map[ids.NodeID]time.Duration)
	for _, id := range s.members {
		healthy[id] = median(s.reps[id].core.slow.waits)
	}
	n += s.offer(3*time.Millisecond, T)
	for _, id := range s.members {
		if c := s.reps[id].core; c.lat.srtt <= slowFactor*healthy[id] {
			t.Errorf("replica %v waits %v per order, not above %d× the healthy %v: no overload", id, c.lat.srtt, slowFactor, healthy[id])
		}
	}
	s.run("the queue drained", 4*T, s.allDelivered(n))
	s.sameOrder()
	s.keptLeader("under overload")
}

// slownessCore returns a core of a never-run sim with T = 800ms and a
// warmed-up estimate: the slowness rule judges every 100ms and grants a
// new view 200ms of grace.
func slownessCore(t *testing.T) *core {
	s := newSim(t, func(cfg *Config) { cfg.RequestTimeout = 800 * time.Millisecond })
	c := s.reps[1].core
	c.now, c.lat.n = s.now, detectorWarmup
	return c
}

// slowTick moves c one tick on and feeds the slowness rule n payloads
// committed in it and a wait of srtt. It reports whether the rule
// suspected the leader.
func slowTick(c *core, n int, srtt time.Duration, demand bool) bool {
	c.now = c.now.Add(c.tickEvery())
	c.slow.commit(c.now, n)
	c.lat.srtt = srtt
	sent := c.slow.rotations
	c.judgeSpeed(demand, 0)
	return c.slow.rotations > sent
}

// healthyTicks feeds n ticks of a healthy group: 10 payloads a tick,
// each committed 5ms after its order.
func healthyTicks(t *testing.T, c *core, n int) {
	t.Helper()
	for i := range n {
		if slowTick(c, 10, 5*time.Millisecond, true) {
			t.Fatalf("healthy tick %d suspected the leader: %v", i, c.slow.reasons)
		}
	}
}

// TestDetectorSlownessHysteresis: after a healthy baseline, a leader
// degraded to 40× the healthy wait and a tenth of the rate is suspected
// no sooner than slowStrikes ticks into the fault, and within the
// commit rate's four-tick window plus the strikes. The suspicion counts
// for T (8 ticks); while it does, the rule does not repeat it, and once
// it has expired in the same view, it does.
func TestDetectorSlownessHysteresis(t *testing.T) {
	c := slownessCore(t)
	healthyTicks(t, c, 8)
	at := 0
	for i := 1; i <= 10 && at == 0; i++ {
		if slowTick(c, 1, 200*time.Millisecond, true) {
			at = i
		}
	}
	if at < slowStrikes || at > 4+slowStrikes {
		t.Fatalf("suspected %d ticks into the fault, want within [%d, %d]", at, slowStrikes, 4+slowStrikes)
	}
	if !c.suspecting() || len(c.slow.reasons) != 1 || !strings.Contains(c.slow.reasons[0].Reason, "view 0") {
		t.Fatalf("suspecting %v with reasons %v, want one naming view 0", c.suspecting(), c.slow.reasons)
	}
	for i := 1; ; i++ {
		if slowTick(c, 1, 200*time.Millisecond, true) {
			if d := time.Duration(i) * c.tickEvery(); d < c.cfg.RequestTimeout {
				t.Fatalf("suspected again %v after the first suspicion, while it still counted", d)
			}
			break
		}
		if i > 12 {
			t.Fatal("no second suspicion after the first expired")
		}
	}
}

// TestDetectorSlownessTwoSignals: overload (the wait far above the
// baseline, the rate at capacity) and a load drop (the rate collapses,
// the wait stays) are not suspected, and without a payload waiting
// nothing is, whatever the measurements.
func TestDetectorSlownessTwoSignals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		wait   time.Duration
		demand bool
	}{
		{"overload", 10, 300 * time.Millisecond, true},
		{"load drop", 1, 5 * time.Millisecond, true},
		{"no demand", 1, 300 * time.Millisecond, false},
	} {
		c := slownessCore(t)
		healthyTicks(t, c, 8)
		for range 10 {
			if slowTick(c, tc.n, tc.wait, tc.demand) {
				t.Fatalf("%s suspected the leader: %v", tc.name, c.slow.reasons)
			}
		}
	}
}

// TestDetectorSlownessViewInstall: a view install records the old view's
// rate and keeps the baseline, so once the new leader's grace of two
// ticks' time is over it is judged at once: a slow one is suspected
// slowStrikes ticks later.
func TestDetectorSlownessViewInstall(t *testing.T) {
	c := slownessCore(t)
	healthyTicks(t, c, 8)
	for i := 0; !slowTick(c, 1, 200*time.Millisecond, true); i++ {
		if i > 10 {
			t.Fatal("the slow leader was never suspected")
		}
	}
	base := len(c.slow.rates)
	c.forgetSuspicions() // as the view change does
	c.slow.newView(c.now, 0)
	c.view = 1
	if rates := c.slow.snapshotViewRates(c.now, 1); len(rates) != 1 || rates[0].View != 0 {
		t.Fatalf("view rates %+v, want view 0's", rates)
	}
	if len(c.slow.rates) != base {
		t.Fatalf("the view install changed the baseline from %d to %d ticks", base, len(c.slow.rates))
	}
	// The grace is two ticks' time, so the second tick is judged.
	for i := 1; i <= 1+slowStrikes; i++ {
		if got, want := slowTick(c, 1, 200*time.Millisecond, true), i == 1+slowStrikes; got != want {
			t.Fatalf("tick %d of view 1: suspected %v, want %v", i, got, want)
		}
	}
}

// TestViewChangeTimeoutCapSaturates pins the backoff clamp: repeated
// failed view changes double the timeout, starting from the detector's
// (RequestTimeout before it has samples, its floor of RequestTimeout/8
// after a fast group's), only up to 8× RequestTimeout, instead of
// growing without bound.
func TestViewChangeTimeoutCapSaturates(t *testing.T) {
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.RequestTimeout = 100 * time.Millisecond
	})
	// Not started: the cores move only through the direct calls below.
	defer c.stop()
	for i, tc := range []struct {
		samples int
		want    []time.Duration // ms
	}{
		{0, []time.Duration{200, 400, 800, 800, 800, 800}},
		{detectorWarmup, []time.Duration{25, 50, 100, 200, 400, 800, 800}},
	} {
		core := c.replicas[i].core
		for range tc.samples {
			core.lat.observe(time.Millisecond)
		}
		for n, w := range tc.want {
			core.startViewChange(uint64(n + 1))
			if got := core.curTimeout; got != w*time.Millisecond {
				t.Fatalf("%d samples: after %d view changes curTimeout = %v, want %v", tc.samples, n+1, got, w*time.Millisecond)
			}
		}
		if got := core.vcCount; got != uint64(len(tc.want)) {
			t.Fatalf("%d samples: vcCount = %d, want %d", tc.samples, got, len(tc.want))
		}
	}
}
