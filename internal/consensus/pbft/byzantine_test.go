package pbft

import (
	"sync"
	"testing"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// corruptMACEnv builds a MAC-vector envelope from the attacker suite
// and lets mutate tamper with the vector before encoding.
func corruptMACEnv(s crypto.Suite, members []ids.NodeID, tag wire.TypeTag, m wire.Marshaler, mutate func(vec [][]byte) [][]byte) []byte {
	frame := registry.EncodeFrame(tag, m)
	vec := crypto.MACVector(s, members, crypto.DomainPBFT, frame)
	raw := signedRaw{From: s.Node(), Frame: frame, MACVec: mutate(vec)}
	return wire.Encode(&raw)
}

// TestMACVectorFaultInjection sends a corrupted entry, a truncated
// vector, and a vector authenticated for the wrong view from a
// (spoofed) group member. The receiver must drop every frame in its
// check without handing it to the core and fall back to requesting a
// signed copy of the vote, which the genuine peer answers — so the
// protocol keeps moving instead of stalling (satellite: Byzantine fault
// injection).
func TestMACVectorFaultInjection(t *testing.T) {
	// Victim: replica 4 (index 3). Watch what reaches it from the
	// impersonated peer 2 (index 1), and what reaches peer 2 from it.
	var mu sync.Mutex
	var signedFromPeer []crypto.Digest
	voteRequests := 0
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		switch i {
		case 3:
			cfg.Node = &tapNode{Node: cfg.Node, see: func(from ids.NodeID, payload []byte) {
				var raw signedRaw
				if from != 2 || wire.Decode(payload, &raw) != nil || len(raw.Sig) == 0 {
					return
				}
				if tag, msg, err := registry.DecodeFrame(raw.Frame); err == nil && tag == tagPrepare {
					mu.Lock()
					signedFromPeer = append(signedFromPeer, msg.(*prepare).Digest)
					mu.Unlock()
				}
			}}
		case 1:
			cfg.Node = &tapNode{Node: cfg.Node, see: func(from ids.NodeID, payload []byte) {
				if tag, _ := peekFrame(payload); tag == tagVoteRequest && from == 4 {
					mu.Lock()
					voteRequests++
					mu.Unlock()
				}
			}}
		}
	})
	defer c.stop()
	c.start()

	// Establish an entry every replica voted on.
	c.orderAll(payloadN(0))
	c.waitDeliveries(1, 5*time.Second, nil)
	realDigest := batchDigest([][]byte{payloadN(0)})
	bogus := crypto.Hash([]byte("bogus-digest"))

	members := c.group.Members
	suites := crypto.NewSuites(members, crypto.SuiteInsecure)
	attacker := suites[2]
	victim := c.replicas[3]
	victimIdx := c.group.IndexOf(4)
	injected := [][]byte{
		// (a) corrupted MAC entry for the victim.
		corruptMACEnv(attacker, members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: bogus},
			func(vec [][]byte) [][]byte {
				vec[victimIdx][0] ^= 0xff
				return vec
			}),
		// (b) truncated vector.
		corruptMACEnv(attacker, members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: bogus},
			func(vec [][]byte) [][]byte { return vec[:2] }),
	}
	// (c) vector authenticated for the wrong view: valid MACs over a
	// view-7 prepare, replayed under a view-0 frame.
	wrongFrame := registry.EncodeFrame(tagPrepare, &prepare{View: 7, Seq: 1, Digest: bogus})
	wrongVec := crypto.MACVector(attacker, members, crypto.DomainPBFT, wrongFrame)
	injected = append(injected, wire.Encode(&signedRaw{From: 2, Frame: registry.EncodeFrame(tagPrepare, &prepare{View: 0, Seq: 1, Digest: bogus}), MACVec: wrongVec}))

	// The victim's check refuses each frame — nothing reaches its core —
	// and turns it into a request for a signed copy.
	for k, env := range injected {
		in := inbound{from: 2, env: env}
		if err := wire.Decode(env, &in.raw); err != nil {
			t.Fatal(err)
		}
		if err := victim.check(&in); err == nil {
			t.Fatalf("corrupted MAC frame %d passed the lane check", k)
		}
		if in.fallback == nil || in.fallback.Kind != voteKindPrepare || in.fallback.Seq != 1 {
			t.Fatalf("corrupted MAC frame %d asks for %+v, want a signed prepare for seq 1", k, in.fallback)
		}
	}

	// The fallback round trip: victim asks 2 for a signed vote, the
	// genuine replica 2 answers with its real (correct-digest) vote.
	send := func(env []byte) { c.net.Node(2).Send(4, testStream, env) }
	for _, env := range injected {
		send(env)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		reqs, answers := voteRequests, len(signedFromPeer)
		mu.Unlock()
		if reqs > 0 && answers > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fallback incomplete: %d vote requests, %d signed answers", reqs, answers)
		}
		time.Sleep(2 * time.Millisecond)
	}

	mu.Lock()
	for _, d := range signedFromPeer {
		if d != realDigest {
			mu.Unlock()
			t.Fatalf("signed fallback vote carries digest %v, want the peer's genuine vote %v", d, realDigest)
		}
	}
	mu.Unlock()
	victim.mu.Lock()
	for seq, votes := range victim.core.prepares.All() {
		for _, v := range votes {
			if v.Key.digest == bogus {
				victim.mu.Unlock()
				t.Fatalf("the victim holds a corrupted vote from %v for %d", v.From, seq)
			}
		}
	}
	victim.mu.Unlock()

	// And the group keeps ordering: no stall.
	c.orderAll(payloadN(1))
	c.waitDeliveries(2, 5*time.Second, nil)
}

// certReplica builds an unstarted replica for certificate-verification
// unit tests.
func certReplica(t *testing.T) (*Replica, map[ids.NodeID]crypto.Suite, []ids.NodeID) {
	t.Helper()
	members := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: members, F: 1}
	suites := crypto.NewSuites(members, crypto.SuiteInsecure)
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	r, err := New(Config{
		Group:   group,
		Suite:   suites[1],
		Node:    net.Node(1),
		Stream:  testStream,
		Deliver: func(consensus.Batch) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, suites, members
}

func signedRawFrom(s crypto.Suite, tag wire.TypeTag, m wire.Marshaler) signedRaw {
	frame := registry.EncodeFrame(tag, m)
	return signedRaw{From: s.Node(), Frame: frame, Sig: s.Sign(crypto.DomainPBFT, frame)}
}

func macRawFrom(s crypto.Suite, members []ids.NodeID, tag wire.TypeTag, m wire.Marshaler) signedRaw {
	frame := registry.EncodeFrame(tag, m)
	return signedRaw{From: s.Node(), Frame: frame, MACVec: crypto.MACVector(s, members, crypto.DomainPBFT, frame)}
}

// TestCheckpointCertOneBadShare asserts checkpoint certificates are
// rejected whole when a single share is corrupt, whether one goroutine
// checks them or several at once (as concurrent frame deliveries do).
func TestCheckpointCertOneBadShare(t *testing.T) {
	r, suites, _ := certReplica(t)
	chain := crypto.Hash([]byte("chain"))
	msg := &checkpointMsg{BatchSeq: 8, GlobalSeq: 20, Chain: chain}
	check := func(t *testing.T) {
		proof := []signedRaw{
			signedRawFrom(suites[2], tagCheckpoint, msg),
			signedRawFrom(suites[3], tagCheckpoint, msg),
			signedRawFrom(suites[4], tagCheckpoint, msg),
		}
		if !r.verifyCheckpointProof(8, 20, chain, proof) {
			t.Error("valid checkpoint certificate rejected")
			return
		}
		proof[1].Sig[0] ^= 0xff
		if r.verifyCheckpointProof(8, 20, chain, proof) {
			t.Error("checkpoint certificate with one bad share accepted")
		}
	}
	t.Run("serial", check)
	t.Run("parallel", func(t *testing.T) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t)
			}()
		}
		wg.Wait()
	})
}

// TestCommitCertOneBadShare covers the commit-certificate path used by
// installCommittedEntry, in both authentication flavors: signed
// commits and relayed MAC-vector commits (whose receiver entry the
// relayer cannot forge).
func TestCommitCertOneBadShare(t *testing.T) {
	r, suites, members := certReplica(t)
	payload := []byte("batch")
	pp := &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}}
	digest := batchDigest(pp.Payloads)
	cm := &commit{View: 0, Seq: 1, Digest: digest}

	t.Run("signed", func(t *testing.T) {
		ce := committedEntry{
			PrePrepare: signedRawFrom(suites[1], tagPrePrepare, pp),
			Commits: []signedRaw{
				signedRawFrom(suites[2], tagCommit, cm),
				signedRawFrom(suites[3], tagCommit, cm),
				signedRawFrom(suites[4], tagCommit, cm),
			},
		}
		v := r.verifyCommitCert(&ce, 0, 1)
		if !v.ok || v.digest != digest {
			t.Fatal("valid signed commit certificate rejected")
		}
		// The verdict path installs the entry in the core.
		r.core.installCommittedEntry(&ce, &v)
		committed := r.core.log[1] != nil && r.core.log[1].committed
		if !committed {
			t.Fatal("verified certificate was not installed")
		}

		ce.Commits[2].Sig[0] ^= 0xff
		if r.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("commit certificate with one bad signature accepted")
		}
	})

	t.Run("mac-relayed", func(t *testing.T) {
		ce := committedEntry{
			PrePrepare: signedRawFrom(suites[1], tagPrePrepare, pp),
			Commits: []signedRaw{
				macRawFrom(suites[2], members, tagCommit, cm),
				macRawFrom(suites[3], members, tagCommit, cm),
				macRawFrom(suites[4], members, tagCommit, cm),
			},
		}
		if !r.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("relayed MAC-vector commit certificate rejected")
		}
		// Corrupt the verifier's own entry of one vector.
		me := r.cfg.Group.IndexOf(r.me)
		ce.Commits[1].MACVec[me][0] ^= 0xff
		if r.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("commit certificate with one corrupted MAC entry accepted")
		}
	})

	t.Run("self-share", func(t *testing.T) {
		// A relayed certificate may echo the verifier's own MAC commit
		// (whose self vector entry is empty and unverifiable). It must
		// count exactly when the replica really sent that commit —
		// otherwise a replica that missed its peers' commits could
		// never use a quorum-sized certificate containing its own vote
		// — and must not count when fabricated by the relayer.
		fresh, fsuites, fmembers := certReplica(t)
		ce := committedEntry{
			PrePrepare: signedRawFrom(fsuites[1], tagPrePrepare, pp),
			Commits: []signedRaw{
				macRawFrom(fsuites[1], fmembers, tagCommit, cm), // verifier's own vote
				macRawFrom(fsuites[2], fmembers, tagCommit, cm),
				macRawFrom(fsuites[3], fmembers, tagCommit, cm),
			},
		}
		if fresh.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("certificate with a fabricated self commit accepted")
		}
		e := fresh.core.entry(1)
		e.havePP = true
		e.view = 0
		e.digest = digest
		e.sentCommit = true
		if !fresh.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("certificate echoing our own genuine commit rejected")
		}
	})

	t.Run("mac-pre-prepare-rejected", func(t *testing.T) {
		// The pre-prepare is stored as a transferable proof, so a
		// MAC-authenticated one must not be accepted even if valid.
		ce := committedEntry{
			PrePrepare: macRawFrom(suites[1], members, tagPrePrepare, pp),
			Commits: []signedRaw{
				signedRawFrom(suites[2], tagCommit, cm),
				signedRawFrom(suites[3], tagCommit, cm),
				signedRawFrom(suites[4], tagCommit, cm),
			},
		}
		if r.verifyCommitCert(&ce, 0, 1).ok {
			t.Fatal("commit certificate with MAC-authenticated pre-prepare accepted")
		}
	})
}

// TestPreparedProofRejectsMACVotes asserts MAC-authenticated votes
// cannot be smuggled into a view-change prepared proof.
func TestPreparedProofRejectsMACVotes(t *testing.T) {
	r, suites, members := certReplica(t)
	payload := []byte("batch")
	pp := &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}}
	digest := batchDigest(pp.Payloads)
	pm := &prepare{View: 0, Seq: 1, Digest: digest}

	proof := preparedProof{
		PrePrepare: signedRawFrom(suites[1], tagPrePrepare, pp),
		Prepares: []signedRaw{
			signedRawFrom(suites[2], tagPrepare, pm),
			signedRawFrom(suites[3], tagPrepare, pm),
		},
	}
	if _, _, ok := r.verifyPreparedProof(&proof); !ok {
		t.Fatal("valid signed prepared proof rejected")
	}
	// Replace one signed vote with a (valid) MAC-vector vote: the
	// proof loses its quorum because MAC votes are not transferable.
	proof.Prepares[1] = macRawFrom(suites[3], members, tagPrepare, pm)
	if _, _, ok := r.verifyPreparedProof(&proof); ok {
		t.Fatal("prepared proof accepted a MAC-authenticated vote")
	}
}
