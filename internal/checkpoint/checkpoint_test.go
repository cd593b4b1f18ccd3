package checkpoint

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/crypto/cryptotest"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

const testStream = transport.Stream(200)

type stableRec struct {
	mu     sync.Mutex
	seqs   []ids.SeqNr
	states [][]byte
}

func (s *stableRec) onStable(seq ids.SeqNr, state []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs = append(s.seqs, seq)
	s.states = append(s.states, state)
}

func (s *stableRec) last() (ids.SeqNr, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seqs) == 0 {
		return 0, nil
	}
	return s.seqs[len(s.seqs)-1], s.states[len(s.states)-1]
}

func (s *stableRec) waitFor(t *testing.T, seq ids.SeqNr, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if got, state := s.last(); got >= seq {
			return state
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, _ := s.last()
	t.Fatalf("stable checkpoint %d not reached (at %d)", seq, got)
	return nil
}

type fixture struct {
	net        *memnet.Network
	group      ids.Group
	suites     map[ids.NodeID]crypto.Suite
	components []*Component
	recs       []*stableRec
}

func newFixture(t *testing.T, n, f int, gossip time.Duration) *fixture {
	return newFixtureWrapped(t, n, f, gossip, func(s crypto.Suite) crypto.Suite { return s })
}

// newFixtureWrapped builds the fixture with every node's suite passed
// through wrap. SPIDER_SUITE reruns the package under any registered
// signature suite (the CI matrix runs it under ed25519).
func newFixtureWrapped(t *testing.T, n, f int, gossip time.Duration, wrap func(crypto.Suite) crypto.Suite) *fixture {
	t.Helper()
	members := make([]ids.NodeID, n)
	for i := range members {
		members[i] = ids.NodeID(i + 1)
	}
	group := ids.Group{ID: 1, Members: members, F: f}
	fx := &fixture{
		net:    memnet.New(memnet.Options{}),
		group:  group,
		suites: crypto.NewSuites(members, crypto.EnvSuiteKind(crypto.SuiteInsecure)),
	}
	for _, m := range members {
		fx.suites[m] = wrap(fx.suites[m])
		rec := &stableRec{}
		comp, err := New(Config{
			Group:          group,
			Suite:          fx.suites[m],
			Node:           fx.net.Node(m),
			Stream:         testStream,
			OnStable:       rec.onStable,
			GossipInterval: gossip,
		})
		if err != nil {
			t.Fatal(err)
		}
		fx.components = append(fx.components, comp)
		fx.recs = append(fx.recs, rec)
	}
	t.Cleanup(func() {
		for _, c := range fx.components {
			c.Stop()
		}
		fx.net.Close()
	})
	return fx
}

func TestStableAfterQuorum(t *testing.T) {
	fx := newFixture(t, 3, 1, 50*time.Millisecond)
	state := []byte("state at seq 10")

	// f+1 = 2 replicas generate matching checkpoints: stability.
	fx.components[0].Generate(10, state)
	fx.components[1].Generate(10, state)

	for i := 0; i < 2; i++ {
		got := fx.recs[i].waitFor(t, 10, 5*time.Second)
		if !bytes.Equal(got, state) {
			t.Errorf("replica %d stable state = %q", i, got)
		}
	}
	if got := fx.components[0].StableSeq(); got != 10 {
		t.Errorf("StableSeq = %d", got)
	}
}

// TestAnnouncesVerifiedOnlyWhileTheyCount: every member re-gossips its
// announcement each interval. A repeat from a sender whose vote is in,
// and anything for a checkpoint that is already stable, costs no
// signature check — and stability still rests on f+1 verified
// announcements.
func TestAnnouncesVerifiedOnlyWhileTheyCount(t *testing.T) {
	counters := make(map[ids.NodeID]*cryptotest.CountingSuite)
	fx := newFixtureWrapped(t, 3, 1, 5*time.Millisecond, func(s crypto.Suite) crypto.Suite {
		counters[s.Node()] = cryptotest.Counting(s)
		return counters[s.Node()]
	})
	checks := func(i int) int64 { return counters[fx.group.Members[i]].Verifies(crypto.DomainCheckpoint) }
	state := []byte("state at seq 10")

	// One announcement, gossiped some twenty times: one check each.
	fx.components[0].Generate(10, state)
	time.Sleep(100 * time.Millisecond)
	for i := range fx.components {
		if got := checks(i); got != 1 {
			t.Errorf("replica %d: %d signature checks for one sender's repeated announcement, want 1", i, got)
		}
	}
	if got := fx.components[1].StableSeq(); got != 0 {
		t.Fatalf("checkpoint stable at %d on a single announcement", got)
	}

	// The second makes f+1: stable on two verified announcements, and
	// the gossip that follows is for a stable checkpoint.
	fx.components[1].Generate(10, state)
	for i := 0; i < 2; i++ {
		fx.recs[i].waitFor(t, 10, 5*time.Second)
	}
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if got := checks(i); got != 2 {
			t.Errorf("replica %d: %d signature checks, want 2 (f+1 announcements, then stable)", i, got)
		}
	}
}

func TestSingleAnnouncementInsufficient(t *testing.T) {
	fx := newFixture(t, 3, 1, 50*time.Millisecond)
	fx.components[0].Generate(10, []byte("alone"))
	time.Sleep(200 * time.Millisecond)
	for i, rec := range fx.recs {
		if seq, _ := rec.last(); seq != 0 {
			t.Errorf("replica %d stabilized with one vote (seq %d)", i, seq)
		}
	}
}

func TestLaggardFetchesState(t *testing.T) {
	fx := newFixture(t, 3, 1, 30*time.Millisecond)
	state := []byte("full state transfer payload")

	// Replicas 1 and 2 checkpoint; replica 3 never generated one but
	// must learn the stable checkpoint via gossip and fetch the state.
	fx.components[0].Generate(20, state)
	fx.components[1].Generate(20, state)

	got := fx.recs[2].waitFor(t, 20, 5*time.Second)
	if !bytes.Equal(got, state) {
		t.Errorf("laggard state = %q", got)
	}
}

func TestExplicitFetch(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour) // gossip disabled in practice
	state := []byte("fetch me")
	fx.components[0].Generate(5, state)
	fx.components[1].Generate(5, state)
	fx.recs[0].waitFor(t, 5, 5*time.Second)

	// Replica 3 missed everything; an explicit Fetch (as triggered by
	// a commit-channel TooOld) must repair it.
	fx.components[2].Fetch(5)
	got := fx.recs[2].waitFor(t, 5, 5*time.Second)
	if !bytes.Equal(got, state) {
		t.Errorf("fetched state = %q", got)
	}
}

func TestMonotonicDelivery(t *testing.T) {
	fx := newFixture(t, 3, 1, 20*time.Millisecond)
	for seq := ids.SeqNr(10); seq <= 30; seq += 10 {
		state := []byte(fmt.Sprintf("state-%d", seq))
		fx.components[0].Generate(seq, state)
		fx.components[1].Generate(seq, state)
		fx.recs[0].waitFor(t, seq, 5*time.Second)
	}
	fx.recs[0].mu.Lock()
	defer fx.recs[0].mu.Unlock()
	for i := 1; i < len(fx.recs[0].seqs); i++ {
		if fx.recs[0].seqs[i] <= fx.recs[0].seqs[i-1] {
			t.Fatalf("non-monotonic stable delivery: %v", fx.recs[0].seqs)
		}
	}
}

func TestMismatchedStatesNoStability(t *testing.T) {
	fx := newFixture(t, 3, 1, 30*time.Millisecond)
	// Divergent snapshots for the same sequence number: no f+1
	// matching hashes, so nothing may stabilize.
	fx.components[0].Generate(10, []byte("state A"))
	fx.components[1].Generate(10, []byte("state B"))
	time.Sleep(250 * time.Millisecond)
	for i, rec := range fx.recs {
		if seq, _ := rec.last(); seq != 0 {
			t.Errorf("replica %d stabilized divergent checkpoints (seq %d)", i, seq)
		}
	}
}

func TestCrossGroupFetch(t *testing.T) {
	// Group 1 (replicas 1,2,3) has the state; replica 10 in group 2
	// fetches it across groups, as a freshly added execution group
	// does (Section 3.6).
	members1 := []ids.NodeID{1, 2, 3}
	members2 := []ids.NodeID{10, 11, 12}
	all := append(append([]ids.NodeID{}, members1...), members2...)
	g1 := ids.Group{ID: 1, Members: members1, F: 1}
	g2 := ids.Group{ID: 2, Members: members2, F: 1}
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	var comps []*Component
	var recs []*stableRec
	for _, m := range members1 {
		rec := &stableRec{}
		comp, err := New(Config{
			Group: g1, Suite: suites[m], Node: net.Node(m),
			Stream: testStream, OnStable: rec.onStable,
			GossipInterval: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
		recs = append(recs, rec)
	}
	rec10 := &stableRec{}
	comp10, err := New(Config{
		Group: g2, Suite: suites[10], Node: net.Node(10),
		Stream: testStream, OnStable: rec10.onStable,
		GossipInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer comp10.Stop()
	defer func() {
		for _, c := range comps {
			c.Stop()
		}
	}()

	state := []byte("cross-group state")
	comps[0].Generate(7, state)
	comps[1].Generate(7, state)
	recs[0].waitFor(t, 7, 5*time.Second)

	// Without registered peers the fetch cannot verify group-1 certs.
	comp10.Fetch(7)
	time.Sleep(150 * time.Millisecond)
	if seq, _ := rec10.last(); seq != 0 {
		t.Fatal("unverifiable cross-group checkpoint accepted")
	}

	comp10.AddFetchPeers(g1)
	comp10.Fetch(7)
	got := rec10.waitFor(t, 7, 5*time.Second)
	if !bytes.Equal(got, state) {
		t.Errorf("cross-group state = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	net := memnet.New(memnet.Options{})
	defer net.Close()
	suite := crypto.NewInsecureSuite(1, []byte("k"))
	group := ids.Group{ID: 1, Members: []ids.NodeID{1}, F: 0}
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Group: group, Suite: suite, Node: net.Node(1)}); err == nil {
		t.Error("missing OnStable accepted")
	}
}

// stableCertOf snapshots a component's latest stable checkpoint with
// its certificate, for crafting fetch replies in error-path tests.
func stableCertOf(c *Component) (ids.SeqNr, []byte, []signedAnnounce) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cert := make([]signedAnnounce, len(c.stableCert))
	copy(cert, c.stableCert)
	return c.stableSeq, append([]byte(nil), c.stableState...), cert
}

// TestFetchReplyTruncatedStateRejected: a fetch reply whose state was
// truncated in flight no longer matches the certificate hash and must
// be discarded; the genuine reply must still repair the replica.
func TestFetchReplyTruncatedStateRejected(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour)
	// Isolate replica 3 so it cannot repair itself from announcements;
	// crafted replies below are injected directly.
	fx.net.Isolate(3, true)
	state := []byte("snapshot that must arrive intact")
	fx.components[0].Generate(5, state)
	fx.components[1].Generate(5, state)
	fx.recs[0].waitFor(t, 5, 5*time.Second)
	seq, full, cert := stableCertOf(fx.components[0])

	fx.components[2].onFetchReply(&fetchReply{
		Group: fx.group.ID, Seq: seq, State: full[:len(full)-1], Cert: cert,
	})
	if got := fx.components[2].StableSeq(); got != 0 {
		t.Fatalf("truncated state adopted (stable seq %d)", got)
	}

	fx.components[2].onFetchReply(&fetchReply{
		Group: fx.group.ID, Seq: seq, State: full, Cert: cert,
	})
	if got, s := fx.recs[2].last(); got != 5 || !bytes.Equal(s, state) {
		t.Fatalf("genuine reply not adopted: seq=%d state=%q", got, s)
	}
}

// TestFetchReplyDigestMismatchRejected: a flipped byte in the state
// (same length) fails certificate verification.
func TestFetchReplyDigestMismatchRejected(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour)
	fx.net.Isolate(3, true)
	state := []byte("bit flips must not go unnoticed")
	fx.components[0].Generate(9, state)
	fx.components[1].Generate(9, state)
	fx.recs[0].waitFor(t, 9, 5*time.Second)
	seq, full, cert := stableCertOf(fx.components[0])

	tampered := append([]byte(nil), full...)
	tampered[len(tampered)/2] ^= 0x01
	fx.components[2].onFetchReply(&fetchReply{
		Group: fx.group.ID, Seq: seq, State: tampered, Cert: cert,
	})
	if got := fx.components[2].StableSeq(); got != 0 {
		t.Fatalf("tampered state adopted (stable seq %d)", got)
	}
}

// TestFetchReplyShortCertRejected: fewer than F+1 distinct signers do
// not certify a checkpoint, even when the state hash matches.
func TestFetchReplyShortCertRejected(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour)
	fx.net.Isolate(3, true)
	state := []byte("one vote is not a quorum")
	fx.components[0].Generate(3, state)
	fx.components[1].Generate(3, state)
	fx.recs[0].waitFor(t, 3, 5*time.Second)
	seq, full, cert := stableCertOf(fx.components[0])
	if len(cert) < 2 {
		t.Fatalf("certificate has %d votes", len(cert))
	}

	// One genuine vote, plus that same vote duplicated: still one
	// distinct signer.
	fx.components[2].onFetchReply(&fetchReply{
		Group: fx.group.ID, Seq: seq, State: full,
		Cert: []signedAnnounce{cert[0], cert[0]},
	})
	if got := fx.components[2].StableSeq(); got != 0 {
		t.Fatalf("under-certified checkpoint adopted (stable seq %d)", got)
	}
}

// TestOutOfOrderAdoptionIgnored: once a replica holds a stable
// checkpoint, a valid but older fetch reply must not roll it back or
// re-fire OnStable.
func TestOutOfOrderAdoptionIgnored(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour)
	oldState := []byte("state at 10")
	fx.components[0].Generate(10, oldState)
	fx.components[1].Generate(10, oldState)
	fx.recs[0].waitFor(t, 10, 5*time.Second)
	oldSeq, oldFull, oldCert := stableCertOf(fx.components[0])

	newState := []byte("state at 20")
	fx.components[0].Generate(20, newState)
	fx.components[1].Generate(20, newState)
	fx.recs[0].waitFor(t, 20, 5*time.Second)

	// Replica 3 repairs itself to 20 via explicit fetch.
	fx.components[2].Fetch(20)
	fx.recs[2].waitFor(t, 20, 5*time.Second)
	fx.recs[2].mu.Lock()
	delivered := len(fx.recs[2].seqs)
	fx.recs[2].mu.Unlock()

	// A stale (but correctly certified) reply for seq 10 arrives late.
	fx.components[2].onFetchReply(&fetchReply{
		Group: fx.group.ID, Seq: oldSeq, State: oldFull, Cert: oldCert,
	})
	if got := fx.components[2].StableSeq(); got != 20 {
		t.Fatalf("stable seq rolled back to %d", got)
	}
	fx.recs[2].mu.Lock()
	defer fx.recs[2].mu.Unlock()
	if len(fx.recs[2].seqs) != delivered {
		t.Fatalf("stale reply re-fired OnStable: %v", fx.recs[2].seqs)
	}
}

// TestFetchCounter: Fetch invocations are counted (the warm-restart
// acceptance check asserts this stays zero after rehydration).
func TestFetchCounter(t *testing.T) {
	fx := newFixture(t, 3, 1, time.Hour)
	if got := fx.components[2].Fetches(); got != 0 {
		t.Fatalf("initial fetch count = %d", got)
	}
	fx.components[2].Fetch(5)
	fx.components[2].Fetch(6)
	if got := fx.components[2].Fetches(); got != 2 {
		t.Fatalf("fetch count = %d, want 2", got)
	}
	if got := fx.components[0].Fetches(); got != 0 {
		t.Fatalf("bystander fetch count = %d", got)
	}
}

func TestStopIdempotent(t *testing.T) {
	fx := newFixture(t, 3, 1, 50*time.Millisecond)
	fx.components[0].Stop()
	fx.components[0].Stop()
	// Generate after stop must not panic or send.
	fx.components[0].Generate(1, []byte("late"))
}
