package pbft

import (
	"testing"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/crypto/cryptotest"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// lone is one started replica (node 2, a follower of view 0) whose
// peers exist only as suites: the test plays them by handing frames to
// onFrame. The serial pipeline processes each frame before onFrame
// returns, and the counting suite shows what it cost.
type lone struct {
	t      *testing.T
	r      *Replica
	suites map[ids.NodeID]crypto.Suite
	count  *cryptotest.CountingSuite
	net    *memnet.Network
	group  ids.Group
}

func newLone(t *testing.T, auth AuthMode) *lone {
	t.Helper()
	members := []ids.NodeID{1, 2, 3, 4}
	l := &lone{
		t:      t,
		suites: crypto.NewSuites(members, crypto.EnvSuiteKind(crypto.SuiteInsecure)),
		net:    memnet.New(memnet.Options{}),
		group:  ids.Group{ID: 1, Members: members, F: 1},
	}
	l.count = cryptotest.Counting(l.suites[2])
	cfg := l.config(2, l.count)
	cfg.NormalCaseAuth = auth
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.r = r
	t.Cleanup(func() {
		r.Stop()
		l.net.Close()
	})
	return l
}

func (l *lone) config(id ids.NodeID, s crypto.Suite) Config {
	return Config{
		Group:          l.group,
		Suite:          s,
		Node:           l.net.Node(id),
		Stream:         testStream,
		Deliver:        func(consensus.Batch) {},
		Pipeline:       crypto.SerialPipeline(),
		RequestTimeout: time.Minute,
	}
}

// pbftVerifies is the number of DomainPBFT signature checks so far.
func (l *lone) pbftVerifies() int64 { return l.count.Verifies(crypto.DomainPBFT) }

// signed hands the replica a signed frame from peer `from`.
func (l *lone) signed(from ids.NodeID, tag wire.TypeTag, m wire.Marshaler) {
	l.r.onFrame(from, sealFrom(l.suites[from], tag, m))
}

// waitFor polls a condition on the replica's state under its lock.
func (l *lone) waitFor(what string, cond func() bool) {
	l.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.r.mu.Lock()
		ok := cond()
		l.r.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			l.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSignedVotesVerifiedOnlyUntilQuorum: in signed mode the third
// prepare of an instance that arrives after the entry is prepared, and
// the fourth commit that arrives after it is committed, cost no
// signature check — and the commit certificate a status reply hands
// out afterwards is still a quorum another replica accepts.
func TestSignedVotesVerifiedOnlyUntilQuorum(t *testing.T) {
	l := newLone(t, AuthSignatures)
	l.r.Start()
	payload := []byte("one request")
	digest := batchDigest([][]byte{payload})

	l.signed(1, tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}})
	l.waitFor("the replica's own prepare", func() bool {
		_, ok := l.r.log[1].prepareVotes[2]
		return ok
	})
	l.signed(3, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest})
	l.waitFor("the replica's own commit", func() bool {
		_, ok := l.r.log[1].commitVotes[2]
		return l.r.log[1].prepared && ok
	})
	if got := l.pbftVerifies(); got != 2 {
		t.Fatalf("%d signature checks to prepare, want 2 (pre-prepare, one prepare)", got)
	}
	l.signed(4, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest})
	if got := l.pbftVerifies(); got != 2 {
		t.Errorf("the prepare that arrived after the entry was prepared was verified")
	}

	l.signed(1, tagCommit, &commit{View: 0, Seq: 1, Digest: digest})
	l.signed(3, tagCommit, &commit{View: 0, Seq: 1, Digest: digest})
	l.waitFor("the commit quorum", func() bool { return l.r.log[1].committed })
	if got := l.pbftVerifies(); got != 4 {
		t.Fatalf("%d signature checks to commit, want 4", got)
	}
	l.signed(4, tagCommit, &commit{View: 0, Seq: 1, Digest: digest})
	if got := l.pbftVerifies(); got != 4 {
		t.Errorf("the commit that arrived after the entry was committed was verified")
	}
	// A garbled signature on a vote that still matters is checked and
	// refused, and does not stand in for the genuine vote after it.
	l.signed(1, tagPrePrepare, &prePrepare{View: 0, Seq: 2, Payloads: [][]byte{[]byte("two")}})
	two := &prepare{View: 0, Seq: 2, Digest: batchDigest([][]byte{[]byte("two")})}
	frame := registry.EncodeFrame(tagPrepare, two)
	forged := signedRaw{From: 4, Frame: frame, Sig: l.suites[3].Sign(crypto.DomainPBFT, frame)}
	l.r.onFrame(4, wire.Encode(&forged))
	l.signed(4, tagPrepare, two)
	if got := l.pbftVerifies(); got != 7 {
		t.Errorf("%d signature checks, want 7: the forged prepare and the genuine one after it are both checked", got)
	}
	l.waitFor("the genuine prepare to count", func() bool {
		_, ok := l.r.log[2].prepareVotes[4]
		return ok
	})

	// The status reply for a lagging peer still proves the commit.
	replies := make(chan []byte, 1)
	l.net.Node(4).Handle(testStream, func(_ ids.NodeID, env []byte) {
		if tag, _ := peekFrame(env); tag == tagStatusReply {
			replies <- env
		}
	})
	l.signed(4, tagStatusRequest, &statusRequest{NextDeliver: 1})
	var raw signedRaw
	select {
	case env := <-replies:
		if err := wire.Decode(env, &raw); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no status reply")
	}
	_, msg, err := registry.DecodeFrame(raw.Frame)
	if err != nil {
		t.Fatal(err)
	}
	reply := msg.(*statusReply)
	if len(reply.Entries) != 1 {
		t.Fatalf("status reply carries %d committed entries, want 1", len(reply.Entries))
	}
	peer, err := New(l.config(4, l.suites[4]))
	if err != nil {
		t.Fatal(err)
	}
	if !peer.verifyCommitCert(&reply.Entries[0], 0, 1).ok {
		t.Errorf("commit certificate with %d commits is not a quorum to its receiver", len(reply.Entries[0].Commits))
	}
}

// TestMACModeReVotesStillVerified: under MAC authentication an entry is
// prepared on votes nobody else can check, so the signed re-votes of
// the proof-upgrade round must still be verified and stored although
// the entry is prepared already — until the transferable proof is
// whole, and no longer. The view-change message then carries it.
func TestMACModeReVotesStillVerified(t *testing.T) {
	l := newLone(t, AuthMACVector)
	l.r.Start()
	payload := []byte("one request")
	digest := batchDigest([][]byte{payload})
	vote := &prepare{View: 0, Seq: 1, Digest: digest}

	l.signed(1, tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}})
	l.waitFor("the replica's own prepare", func() bool {
		_, ok := l.r.log[1].prepareVotes[2]
		return ok
	})
	l.r.onFrame(3, macFrom(l.suites[3], l.group.Members, tagPrepare, vote))
	l.waitFor("the entry to be prepared", func() bool { return l.r.log[1].prepared })
	if got := l.pbftVerifies(); got != 1 {
		t.Fatalf("%d signature checks to prepare under MACs, want 1 (the pre-prepare)", got)
	}
	l.r.mu.Lock()
	whole := l.r.transferableProofLocked(l.r.log[1])
	l.r.mu.Unlock()
	if whole {
		t.Fatal("an entry prepared on MAC votes has a transferable proof")
	}

	// Peers 3 and 4 re-issue their votes signed. With the proposer that
	// is a quorum of transferable evidence; both must be verified.
	l.signed(3, tagPrepare, vote)
	l.signed(4, tagPrepare, vote)
	if got := l.pbftVerifies(); got != 3 {
		t.Fatalf("%d signature checks, want 3: both re-votes for the prepared entry are needed", got)
	}
	l.waitFor("the transferable proof", func() bool {
		e := l.r.log[1]
		return len(e.prepareVotes[3].raw.Sig) > 0 && len(e.prepareVotes[4].raw.Sig) > 0 && l.r.transferableProofLocked(e)
	})
	// A replayed re-vote adds nothing to a whole proof.
	l.signed(4, tagPrepare, vote)
	if got := l.pbftVerifies(); got != 3 {
		t.Errorf("a re-vote was verified although the transferable proof was whole")
	}

	// The view change that needs the proof gets it.
	vcs := make(chan []byte, 4)
	l.net.Node(3).Handle(testStream, func(_ ids.NodeID, env []byte) {
		if tag, _ := peekFrame(env); tag == tagViewChange {
			vcs <- env
		}
	})
	l.r.mu.Lock()
	l.r.startViewChangeLocked(1)
	l.r.mu.Unlock()
	select {
	case env := <-vcs:
		var raw signedRaw
		if err := wire.Decode(env, &raw); err != nil {
			t.Fatal(err)
		}
		_, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil {
			t.Fatal(err)
		}
		vc := msg.(*viewChange)
		if len(vc.Prepared) != 1 {
			t.Fatalf("view change carries %d prepared proofs, want 1", len(vc.Prepared))
		}
		if _, _, ok := l.r.verifyPreparedProof(&vc.Prepared[0]); !ok {
			t.Error("the prepared proof in the view change does not verify")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no view-change message")
	}
}
