package chaos

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/raceflag"
	"spider/internal/topo"
)

// The chaos matrix runs at 2% WAN scale with fast crypto; the race
// detector gets triple the convergence budget.
func convergeBudget() time.Duration {
	if raceflag.Enabled {
		return 90 * time.Second
	}
	return 30 * time.Second
}

func buildSpider(t *testing.T, mutate func(*harness.BuildOptions)) *harness.Cluster {
	t.Helper()
	opts := harness.BuildOptions{
		System:  harness.SystemSpider,
		Regions: []topo.Region{topo.Virginia, topo.Oregon},
		Scale:   0.02,
		Seed:    7,
		// SPIDER_SUITE reruns the chaos matrix under any registered
		// signature suite (the CI matrix runs soak-smoke under ed25519).
		SuiteKind: crypto.EnvSuiteKind(crypto.SuiteInsecure),
		StateDir:  t.TempDir(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := harness.Build(opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

func inc(t *testing.T, client *core.Client, key string) int64 {
	t.Helper()
	res, err := client.Write(app.EncodeOp(app.Op{Kind: app.OpInc, Key: key, Delta: 1}))
	if err != nil {
		t.Fatalf("inc %q: %v", key, err)
	}
	dec, err := app.DecodeResult(res)
	if err != nil || !dec.OK {
		t.Fatalf("inc %q result: %+v err=%v", key, dec, err)
	}
	return dec.Counter
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// converged reports whether every execution group's running replicas
// agree on (seq, digest), per group.
func converged(c *harness.Cluster) bool {
	states := make(map[string]map[string]bool)
	for _, p := range c.ExecProbes() {
		key := fmt.Sprintf("g%d", p.Group)
		if states[key] == nil {
			states[key] = make(map[string]bool)
		}
		states[key][fmt.Sprintf("%d/%x", p.Seq, p.Digest)] = true
	}
	for _, set := range states {
		if len(set) > 1 {
			return false
		}
	}
	return true
}

func maxSeq(probes []harness.ExecProbe) ids.SeqNr {
	var max ids.SeqNr
	for _, p := range probes {
		if p.Seq > max {
			max = p.Seq
		}
	}
	return max
}

func requireClean(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Violations) > 0 {
		t.Fatalf("%d invariant violations (artifact: %s):\n%v",
			len(rep.Violations), rep.Artifact, rep.Violations)
	}
}

// TestWarmRestartZeroFetch is the acceptance check for the durable
// store: an execution replica killed mid-workload and restarted from
// its on-disk checkpoint + log suffix must rejoin WITHOUT a single
// full-state fetch, and must keep serving exactly-once semantics (the
// counter continues densely across the restart).
//
// The op counts are budgeted against the checkpoint interval (16): the
// crash happens after the seq-16 checkpoint has been persisted, the
// downtime stays well inside the next checkpoint window (so the
// agreement side's checkpoint GC never moves the commit-channel window
// past the victim's restart position), and the post-restart phase also
// stays inside it (so no concurrent stability race can trigger a
// spurious fetch).
//
// The restarted replica pulls the positions it missed during downtime
// from the commit channel itself, on both channel kinds: IRMC-SC
// senders retain certificates inside the window and re-distribute them
// when a lagging receiver rotates collectors, and IRMC-RC commit
// channels run with Resend, so their senders re-transmit retained
// in-window envelopes when a receiver asks. Every Execute carries its
// request in full, so what the replica receives it can apply at once,
// whatever it saw before the crash.
func TestWarmRestartZeroFetch(t *testing.T) {
	for _, ch := range []core.ChannelKind{core.ChannelRC, core.ChannelSC} {
		t.Run(ch.String(), func(t *testing.T) { warmRestartZeroFetch(t, ch) })
	}
}

func warmRestartZeroFetch(t *testing.T, ch core.ChannelKind) {
	c := buildSpider(t, func(o *harness.BuildOptions) {
		o.Regions = []topo.Region{topo.Virginia}
		o.Channel = ch
	})
	client, err := c.NewClient(topo.Virginia)
	if err != nil {
		t.Fatalf("client: %v", err)
	}

	const key = "warm"
	var n int64
	for i := 0; i < 20; i++ {
		n = inc(t, client, key)
	}
	if n != 20 {
		t.Fatalf("counter = %d after 20 incs", n)
	}

	victim := c.ExecNodes(topo.Virginia)[2]
	if err := c.CrashNode(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Load continues through the outage: the remaining 2f+1-1 replicas
	// still form reply quorums.
	for i := 0; i < 5; i++ {
		n = inc(t, client, key)
	}
	if err := c.RestartNode(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}

	waitFor(t, convergeBudget(), "restarted replica to converge", func() bool {
		return converged(c)
	})
	if got := c.FetchCalls(victim); got != 0 {
		t.Fatalf("warm restart issued %d full-state fetches, want 0", got)
	}
	// The counter continues densely: the restarted replica re-serves no
	// stale reply and loses no increment.
	if got := inc(t, client, key); got != n+1 {
		t.Fatalf("counter after restart = %d, want %d", got, n+1)
	}
}

// TestChaosRegionOutageMidBatch scripts the timeline form: Oregon is
// partitioned off mid-stream, healed, and then hit with a load surge,
// with invariants monitored throughout. Oregon's clients and replicas
// must resume and converge after the heal.
func TestChaosRegionOutageMidBatch(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "region-outage", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"outage-a", "outage-b"},
		Interval: 15 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	err := r.Play([]Event{
		{At: 800 * time.Millisecond, Kind: EventPartition, Regions: []topo.Region{topo.Oregon}},
		{At: 2300 * time.Millisecond, Kind: EventHeal},
		{At: 2600 * time.Millisecond, Kind: EventSurge, Clients: 1},
	}, load)
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	time.Sleep(1200 * time.Millisecond)
	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Ops < 40 {
		t.Errorf("only %d ops completed across the outage", rep.Ops)
	}
}

// TestChaosLeaderChurnUnderLoad kills the agreement group's consensus
// leader under load, waits for the view change to elect a successor,
// restarts the old leader from disk, and requires a clean run: no
// divergence, no stall once healthy, linearizable history.
func TestChaosLeaderChurnUnderLoad(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "leader-churn", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"churn-a", "churn-b"},
		Interval: 15 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	time.Sleep(800 * time.Millisecond)

	old, err := r.KillLeader()
	if err != nil {
		t.Fatalf("kill leader: %v", err)
	}
	// Consensus timeout is 2s: the remaining replicas must elect a new
	// leader and resume committing.
	waitFor(t, convergeBudget(), "a new leader", func() bool {
		id, ok := c.AgreementLeader()
		return ok && id != old
	})
	before := maxSeq(c.ExecProbes())
	waitFor(t, convergeBudget(), "post-churn progress", func() bool {
		return maxSeq(c.ExecProbes()) > before
	})
	if err := r.Restart(old); err != nil {
		t.Fatalf("restart old leader: %v", err)
	}
	time.Sleep(1200 * time.Millisecond)
	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Ops < 30 {
		t.Errorf("only %d ops completed across leader churn", rep.Ops)
	}
}

// TestPartitionHealMidBatch partitions the leader's region (which also
// hosts the whole agreement group) away from the rest of the WAN at a
// known batch boundary, heals after the view-change grace period, and
// requires the agreement session to resume with a linearizable history.
func TestPartitionHealMidBatch(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "partition-heal", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"heal-a", "heal-b"},
		Interval: 15 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	time.Sleep(900 * time.Millisecond)

	before := maxSeq(c.ExecProbes())
	r.Partition(topo.Virginia)
	time.Sleep(2500 * time.Millisecond) // past the 2s consensus grace
	r.Heal()
	time.Sleep(1500 * time.Millisecond)

	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if after := maxSeq(rep.Probes); after <= before {
		t.Errorf("session did not resume: seq %d before partition, %d at end", before, after)
	}
}

// TestChaosCrashRestartDuringCheckpointAdoption forces the ugliest
// path: an execution replica is crashed, left behind until commit
// checkpoint GC has moved past its position, restarted (so it must
// repair through a full-state fetch), crashed AGAIN while the adoption
// is in flight, and restarted once more from whatever its store
// captured. The run must still converge with a linearizable history —
// in particular no stale reply from any pre-crash state.
func TestChaosCrashRestartDuringCheckpointAdoption(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "crash-adoption", Seed: 7})
	load := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  1,
		Keys:     []string{"adopt-a", "adopt-b"},
		Interval: 5 * time.Millisecond,
	}
	if err := r.StartLoad(load); err != nil {
		t.Fatalf("load: %v", err)
	}
	time.Sleep(800 * time.Millisecond)

	victim := c.ExecNodes(topo.Oregon)[1]
	crashSeq := maxSeq(c.ExecProbes())
	if err := r.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Let the cluster commit far past the victim — beyond the commit
	// window and several checkpoint intervals — so its warm suffix is
	// useless and restart MUST go through checkpoint adoption.
	waitFor(t, convergeBudget(), "the cluster to outrun the victim", func() bool {
		return maxSeq(c.ExecProbes()) > crashSeq+80
	})
	if err := r.Restart(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, convergeBudget(), "the victim to start fetching", func() bool {
		return c.FetchCalls(victim) > 0
	})
	// Crash again while the adoption is (best-effort) in flight.
	if err := r.Crash(victim); err != nil {
		t.Fatalf("second crash: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	if err := r.Restart(victim); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	time.Sleep(800 * time.Millisecond)

	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Ops < 80 {
		t.Errorf("only %d ops completed", rep.Ops)
	}
}

// TestChaosSurgeThenIdle drives the pipeline through a load surge
// between two trickle phases on the static knobs: the leader's batches
// fill behind a standing queue and empty again once only the trickle
// remains, and the standing chaos invariants — no divergent replies, no
// stalled commit subchannel, linearizable per-key history — must hold
// across both transitions.
func TestChaosSurgeThenIdle(t *testing.T) {
	c := buildSpider(t, nil)
	r := NewRunner(c, Options{Name: "surge-idle", Seed: 7})
	// A single sequential client: one request in flight at a time, so
	// the leader's queue never stands.
	trickle := Load{
		Regions:  []topo.Region{topo.Virginia},
		Clients:  1,
		Keys:     []string{"surge-a", "surge-b"},
		Interval: 15 * time.Millisecond,
	}
	if err := r.StartLoad(trickle); err != nil {
		t.Fatalf("trickle load: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	// Surge: more closed-loop clients than the 64-slot agreement window
	// (1ns think time is effectively closed-loop), so the leader sees a
	// standing queue.
	surge := Load{
		Regions:  []topo.Region{topo.Virginia, topo.Oregon},
		Clients:  48,
		Keys:     trickle.Keys,
		Interval: time.Nanosecond,
	}
	if err := r.StartLoad(surge); err != nil {
		t.Fatalf("surge load: %v", err)
	}
	time.Sleep(500 * time.Millisecond)

	// Idle down: stop everything, keep only the trickle.
	r.StopLoad()
	if err := r.StartLoad(trickle); err != nil {
		t.Fatalf("post-surge trickle: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	rep := r.Finish(topo.Virginia, convergeBudget())
	requireClean(t, rep)
	if rep.Ops < 100 {
		t.Errorf("only %d ops completed across the surge", rep.Ops)
	}
}

// TestCheckLinearizable exercises the checker itself on crafted
// histories so scenario failures can be trusted.
func TestCheckLinearizable(t *testing.T) {
	good := []Obs{
		{Client: 0, Key: "k", Counter: 1},
		{Client: 1, Key: "k", Counter: 2},
		{Client: 0, Key: "k", Counter: 3},
		{Client: 0, Key: "j", Counter: 1},
	}
	if v := CheckLinearizable(good); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
	gap := []Obs{{Client: 0, Key: "k", Counter: 1}, {Client: 0, Key: "k", Counter: 3}}
	if v := CheckLinearizable(gap); len(v) == 0 {
		t.Fatal("lost increment not flagged")
	}
	dup := []Obs{
		{Client: 0, Key: "k", Counter: 1},
		{Client: 1, Key: "k", Counter: 1},
	}
	if v := CheckLinearizable(dup); len(v) == 0 {
		t.Fatal("duplicate counter (stale reply) not flagged")
	}
	outOfOrder := []Obs{
		{Client: 0, Key: "k", Counter: 2},
		{Client: 0, Key: "k", Counter: 1},
	}
	if v := CheckLinearizable(outOfOrder); len(v) == 0 {
		t.Fatal("session-order violation not flagged")
	}
}
