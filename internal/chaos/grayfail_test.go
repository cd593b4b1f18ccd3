package chaos

import (
	"testing"
	"time"

	"spider/internal/raceflag"
	"spider/internal/topo"
)

// grayDelay is the injected outbound delay for a degraded node. At the
// chaos matrix's 2% WAN scale the healthy Order→deliver latency sits
// in the low milliseconds, so 150ms is well past the paper-style "10×
// normal proposal latency" bar while staying far below the 2s request
// timeout — the classic gray zone the silence timeout never sees.
const grayDelay = 150 * time.Millisecond

// rotationBudget bounds how long detection plus the resulting view
// change may take: the failure detector's slowness rule judges once a
// tick (T/8, 250ms at the harness's 2s request timeout T). Its commit
// rate covers four ticks, which must drain before three slow ticks in a
// row make a replica suspect the leader; f+1 suspicions then start the
// view change, which must propagate.
func rotationBudget() time.Duration {
	if raceflag.Enabled {
		return 30 * time.Second
	}
	return 5 * time.Second
}

// opsRate measures the completed-operation throughput of the runner's
// load over the window — closed-loop clients, so this tracks
// end-to-end latency directly.
func opsRate(r *Runner, window time.Duration) float64 {
	before := r.History().Len()
	time.Sleep(window)
	return float64(r.History().Len()-before) / window.Seconds()
}

// TestSlowLeaderRotated is the tentpole acceptance test: a leader
// degraded to many times its normal proposal
// latency — without crashing — must be proactively rotated, and
// throughput must recover to at least 80% of the pre-fault rate even
// though the deposed gray node stays degraded as a follower.
func TestSlowLeaderRotated(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "slow-leader", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"gray-a", "gray-b"},
		Interval: 5 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Let the detectors build their healthy baselines (4 ticks of 250ms
	// after two of grace), then take the pre-fault throughput.
	time.Sleep(2 * time.Second)
	pre := opsRate(r, 1500*time.Millisecond)
	if pre <= 0 {
		t.Fatal("no pre-fault throughput measured")
	}

	old, err := r.DegradeLeader(grayDelay, 0.1)
	if err != nil {
		t.Fatalf("degrade leader: %v", err)
	}
	degradedAt := time.Now()
	waitFor(t, rotationBudget(), "the slow leader to be rotated", func() bool {
		id, ok := c.AgreementLeader()
		return ok && id != old
	})
	detection := time.Since(degradedAt)
	gray := c.GrayFailureStats()
	if gray.Rotations < 1 {
		t.Fatalf("leader changed but no proactive rotation was counted: %+v", gray)
	}
	if len(gray.Reasons) == 0 {
		t.Fatal("rotation recorded no reason")
	}
	t.Logf("rotated after %v: %s", detection, gray.Reasons[0])

	// Throughput recovery with the gray node still degraded: quorums
	// form among the healthy 2f+1, so the group must return to at
	// least 80% of the pre-fault rate.
	waitFor(t, convergeBudget(), "post-rotation progress", func() bool {
		before := maxSeq(c.ExecProbes())
		time.Sleep(100 * time.Millisecond)
		return maxSeq(c.ExecProbes()) > before
	})
	post := opsRate(r, 1500*time.Millisecond)
	if post < 0.8*pre {
		t.Errorf("throughput recovered to %.1f/s, want >= 80%% of pre-fault %.1f/s", post, pre)
	}

	r.RestoreNode(old)
	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Rotations < 1 || rep.ViewChanges < 1 {
		t.Errorf("report rotations=%d view_changes=%d, want >= 1 each", rep.Rotations, rep.ViewChanges)
	}
	if len(rep.ViewRates) == 0 {
		t.Error("report carries no per-view throughput")
	}
}

// TestSlowFollowerNotRotated pins the no-false-positive property: a
// degraded agreement *follower* changes neither delivery throughput
// nor proposal latency (quorums form among the timely members), so the
// slowness rule must stay silent — no rotation, no view change, same
// leader.
func TestSlowFollowerNotRotated(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "slow-follower", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"follow-a", "follow-b"},
		Interval: 5 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	time.Sleep(2 * time.Second)

	leader, ok := c.AgreementLeader()
	if !ok {
		t.Fatal("no agreement leader visible")
	}
	var follower = leader
	for _, n := range c.AgreementNodes() {
		if n != leader {
			follower = n
			break
		}
	}
	if follower == leader {
		t.Fatal("no follower found")
	}
	r.Degrade(follower, grayDelay, 0.1)
	// Run through many ticks — far more than the strike threshold —
	// with the gray follower in place.
	time.Sleep(3 * time.Second)

	if id, ok := c.AgreementLeader(); !ok || id != leader {
		t.Errorf("leader moved from %d to %d with only a follower degraded", leader, id)
	}
	gray := c.GrayFailureStats()
	if gray.Rotations != 0 {
		t.Errorf("degraded follower caused %d rotation(s): %v", gray.Rotations, gray.Reasons)
	}
	if gray.ViewChanges != 0 {
		t.Errorf("degraded follower caused %d view change(s)", gray.ViewChanges)
	}

	r.RestoreNode(follower)
	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
}

// TestChaosGrayFailureTimeline scripts the full gray-failure story:
// degrade the leader, observe the proactive rotation, restore the old
// leader, then degrade the *new* leader and observe a second rotation
// — all under monitored load with a clean linearizable history and an
// artifact carrying the rotation evidence.
func TestChaosGrayFailureTimeline(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "gray-timeline", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"tl-a", "tl-b"},
		Interval: 5 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	time.Sleep(2 * time.Second)

	first, err := r.DegradeLeader(grayDelay, 0.1)
	if err != nil {
		t.Fatalf("degrade first leader: %v", err)
	}
	waitFor(t, rotationBudget(), "rotation away from the first gray leader", func() bool {
		id, ok := c.AgreementLeader()
		return ok && id != first
	})
	r.RestoreNode(first)

	// There is no cooldown: the new view cleared every suspicion. The
	// new leader's grace (two ticks, 500ms) and the commit rate's
	// four-tick window gate the second suspicion, and the budget keeps
	// 2s on top of detection for them.
	second, err := r.DegradeLeader(grayDelay, 0.1)
	if err != nil {
		t.Fatalf("degrade second leader: %v", err)
	}
	if second == first {
		t.Fatalf("second leader is still node %d after rotation", first)
	}
	waitFor(t, rotationBudget()+2*time.Second, "rotation away from the second gray leader", func() bool {
		id, ok := c.AgreementLeader()
		return ok && id != second
	})
	r.RestoreNode(second)
	time.Sleep(time.Second)

	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Rotations < 2 {
		t.Errorf("report counts %d rotation(s), want >= 2 (reasons: %v)", rep.Rotations, rep.RotationReasons)
	}
	if rep.ViewChanges < 2 {
		t.Errorf("report counts %d view change(s), want >= 2", rep.ViewChanges)
	}
	if len(rep.RotationReasons) == 0 {
		t.Error("artifact carries no rotation reasons")
	}
	if len(rep.ViewRates) < 2 {
		t.Errorf("artifact carries %d per-view throughput entries, want >= 2", len(rep.ViewRates))
	}
	var sawDegrade, sawRestore bool
	for _, ev := range rep.Events {
		switch ev.Kind {
		case EventDegradeLeader, EventDegrade:
			sawDegrade = true
		case EventRestore:
			sawRestore = true
		}
	}
	if !sawDegrade || !sawRestore {
		t.Errorf("timeline events missing degrade/restore records: %+v", rep.Events)
	}
}
