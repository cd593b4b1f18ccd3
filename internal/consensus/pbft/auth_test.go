package pbft

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/wire"
)

// sealFrom builds a signed envelope as the given suite's node.
func sealFrom(s crypto.Suite, tag wire.TypeTag, m wire.Marshaler) []byte {
	frame := registry.EncodeFrame(tag, m)
	raw := signedRaw{From: s.Node(), Frame: frame, Sig: s.Sign(crypto.DomainPBFT, frame)}
	return wire.Encode(&raw)
}

// macFrom builds a MAC-vector envelope as the given suite's node.
func macFrom(s crypto.Suite, members []ids.NodeID, tag wire.TypeTag, m wire.Marshaler) []byte {
	frame := registry.EncodeFrame(tag, m)
	raw := signedRaw{From: s.Node(), Frame: frame, MACVec: crypto.MACVector(s, members, crypto.DomainPBFT, frame)}
	return wire.Encode(&raw)
}

// tapNode shows a test every frame its replica receives, before the
// replica sees it.
type tapNode struct {
	transport.Node
	see func(from ids.NodeID, payload []byte)
}

func (n *tapNode) HandleBatch(stream transport.Stream, h transport.BatchHandler) {
	n.Node.HandleBatch(stream, func(from ids.NodeID, payloads [][]byte) {
		for _, p := range payloads {
			n.see(from, p)
		}
		h(from, payloads)
	})
}

// authRecord is one received frame's authentication summary.
type authRecord struct {
	from ids.NodeID
	tag  wire.TypeTag
	sig  bool
	mac  bool
}

// authTap records the authentication of every frame replica 2 receives
// from the other replicas.
type authTap struct {
	mu   sync.Mutex
	recs []authRecord
}

func (a *authTap) wrap(i int, cfg *Config) {
	if i != 1 {
		return
	}
	cfg.Node = &tapNode{Node: cfg.Node, see: func(from ids.NodeID, payload []byte) {
		var raw signedRaw
		if from == 2 || wire.Decode(payload, &raw) != nil {
			return
		}
		tag, _ := peekFrame(payload)
		a.mu.Lock()
		a.recs = append(a.recs, authRecord{from: from, tag: tag, sig: len(raw.Sig) > 0, mac: len(raw.MACVec) > 0})
		a.mu.Unlock()
	}}
}

func (a *authTap) snap() []authRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]authRecord(nil), a.recs...)
}

// TestMACModeWireAuthentication asserts the default mode puts MAC
// vectors on prepare/commit and signatures on pre-prepare and
// checkpoint frames.
func TestMACModeWireAuthentication(t *testing.T) {
	var tap authTap
	c := newCluster(t, 4, 1, tap.wrap)
	defer c.stop()
	c.start()

	const total = 40 // enough batches to cross a checkpoint interval
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, nil)

	// Checkpoint frames trail the deliveries that trigger them; wait
	// until at least one of each interesting tag has arrived.
	want := []wire.TypeTag{tagPrePrepare, tagPrepare, tagCommit, tagCheckpoint}
	deadline := time.Now().Add(5 * time.Second)
	counts := make(map[wire.TypeTag]int)
	for {
		counts = make(map[wire.TypeTag]int)
		for _, rec := range tap.snap() {
			counts[rec.tag]++
		}
		complete := true
		for _, tag := range want {
			if counts[tag] == 0 {
				complete = false
			}
		}
		if complete || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tag := range want {
		if counts[tag] == 0 {
			t.Fatalf("no frames of tag %d observed", tag)
		}
	}
	for _, rec := range tap.snap() {
		switch rec.tag {
		case tagPrepare, tagCommit:
			if rec.sig || !rec.mac {
				t.Fatalf("normal-case %d from %v: sig=%v mac=%v, want MAC vector only", rec.tag, rec.from, rec.sig, rec.mac)
			}
		case tagPrePrepare, tagCheckpoint:
			if !rec.sig {
				t.Fatalf("tag %d from %v arrived unsigned", rec.tag, rec.from)
			}
		}
	}
}

// TestSignatureModeStillWorks pins the classic fully signed variant.
func TestSignatureModeStillWorks(t *testing.T) {
	var tap authTap
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.NormalCaseAuth = AuthSignatures
		tap.wrap(i, cfg)
	})
	defer c.stop()
	c.start()

	const total = 12
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, nil)

	for _, rec := range tap.snap() {
		if !rec.sig {
			t.Fatalf("signature mode sent an unsigned frame tag %d from %v", rec.tag, rec.from)
		}
	}
}

// TestMACModeViewChange drives a group through MAC-authenticated
// normal case, kills the leader, and asserts the survivors complete a
// view change whose view-change messages carry signature-based
// prepared proofs (satellite: the MAC/view-change interop seam).
func TestMACModeViewChange(t *testing.T) {
	// Record the view-change traffic replica 2 sees.
	var mu sync.Mutex
	var vcs []*viewChange
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		// A roomier timeout widens the proof-upgrade hold (a fraction
		// of it), so a heavily loaded CI box cannot expire the hold
		// before the signed re-votes arrive and emit proof-less view
		// changes — legitimate protocol behavior, but it would starve
		// the proofs>0 assertion below.
		cfg.RequestTimeout = time.Second
		if i != 1 {
			return
		}
		cfg.Node = &tapNode{Node: cfg.Node, see: func(_ ids.NodeID, payload []byte) {
			var raw signedRaw
			if tag, _ := peekFrame(payload); tag != tagViewChange || wire.Decode(payload, &raw) != nil {
				return
			}
			if _, msg, err := registry.DecodeFrame(raw.Frame); err == nil {
				mu.Lock()
				vcs = append(vcs, msg.(*viewChange))
				mu.Unlock()
			}
		}}
	})
	defer c.stop()
	c.start()

	for i := 0; i < 8; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(8, 5*time.Second, nil)

	c.net.Isolate(1, true)
	c.replicas[0].Stop()
	for i := 8; i < 14; i++ {
		for _, r := range c.replicas[1:] {
			r.Order(payloadN(i))
		}
	}
	c.waitDeliveries(14, 15*time.Second, func(i int) bool { return i != 0 })

	for _, r := range c.replicas[1:] {
		if r.View() == 0 {
			t.Error("replica still in view 0 after leader failure")
		}
	}

	// A-Safety across the MAC-mode view change.
	refSeqs, refPayloads := c.collectors[1].snapshot()
	for ri := 2; ri < 4; ri++ {
		seqs, payloads := c.collectors[ri].snapshot()
		n := min(len(seqs), len(refSeqs))
		for i := 0; i < n; i++ {
			if seqs[i] != refSeqs[i] || !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("replica %d diverges at %d after MAC-mode view change", ri, i)
			}
		}
	}

	// Every prepared proof inside the observed view-change messages
	// must be signature-based: MAC votes may never leak into
	// transferable certificates.
	mu.Lock()
	defer mu.Unlock()
	proofs := 0
	for _, vc := range vcs {
		for i := range vc.Prepared {
			proofs++
			p := &vc.Prepared[i]
			if !p.PrePrepare.transferable() {
				t.Fatal("prepared proof carries unsigned pre-prepare")
			}
			for j := range p.Prepares {
				if !p.Prepares[j].transferable() {
					t.Fatal("prepared proof carries a MAC-authenticated prepare vote")
				}
			}
		}
	}
	if len(vcs) == 0 {
		t.Fatal("no view-change messages observed")
	}
	if proofs == 0 {
		t.Fatal("view changes carried no prepared proofs despite undelivered MAC-prepared state being unlikely; proof-upgrade round apparently failed")
	}
}

// TestMACViewChangeQuorumShortfall is the regression companion to
// TestMACViewChangeAdoptsPreparedEntry: the replica prepares a batch
// under MAC votes and is pushed into a view change, but the peers
// WITHHOLD their signed re-votes, so the proof-upgrade round can never
// make the prepared proof transferable. The bounded hold in
// maybeEmitViewChange must expire (curTimeout/8, capped at 250ms) and
// the view-change message must go out WITHOUT the non-transferable
// entry — len(Prepared) == 0 — instead of stalling the view change on
// proofs that will never arrive. Replica 2 runs on the simulation's
// synthetic clock; the test plays its peers, which receive nothing.
func TestMACViewChangeQuorumShortfall(t *testing.T) {
	s := newSim(t, func(cfg *Config) {
		// 2s timeout: the timeout check (every timeout/8 = 250ms) re-runs
		// maybeEmitViewChange right after the capped 250ms hold expires,
		// while the view-change deadline (2x timeout after the backoff
		// doubling) stays far away.
		cfg.BatchSize = 1
		cfg.RequestTimeout = 2 * time.Second
	})
	s.down[1], s.down[3], s.down[4] = true, true, true
	r := s.reps[2].core // leader of view 1
	send := func(from ids.NodeID, env []byte) { s.arrive(simFrame{from: from, to: 2, env: env}) }
	members := s.members

	payload := []byte("mac-prepared-unprovable-batch")
	digest := batchDigest([][]byte{payload})

	// View 0: the entry prepares under MAC votes (not transferable).
	send(1, sealFrom(s.suites[1], tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}}))
	send(3, macFrom(s.suites[3], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(4, macFrom(s.suites[4], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	if e, ok := r.log[1]; !ok || !e.prepared || e.committed {
		t.Fatal("entry not prepared under MACs")
	}

	// Push into the view change — but never send the signed re-votes
	// the proof upgrade waits for.
	start := s.now
	send(3, sealFrom(s.suites[3], tagViewChange, &viewChange{NewView: 1}))
	send(4, sealFrom(s.suites[4], tagViewChange, &viewChange{NewView: 1}))

	// With 2f+1 proof-less view changes (peers' plus its own) the
	// replica, leader of view 1, completes the view change.
	s.run("view 1 adopted despite withheld re-votes", 10*time.Second, func() bool {
		return r.view == 1 && !r.inVC
	})
	if elapsed := s.now.Sub(start); elapsed > 5*time.Second {
		t.Fatalf("view change took %v; hold apparently not bounded", elapsed)
	}

	ownVCs := s.sentViewChanges(2)
	if len(ownVCs) == 0 {
		t.Fatal("replica never emitted its view-change message")
	}
	for _, vc := range ownVCs {
		if vc.NewView != 1 {
			t.Fatalf("view change targets view %d, want 1", vc.NewView)
		}
		// The quorum-shortfall path: the MAC-prepared entry has no
		// transferable proof, so it must be omitted — not shipped with
		// MAC votes, and not hold the message back forever.
		if len(vc.Prepared) != 0 {
			t.Fatalf("view change carried %d prepared proofs despite withheld re-votes", len(vc.Prepared))
		}
	}
}

// TestMACViewChangeAdoptsPreparedEntry is the deterministic version of
// the interop seam: a single replica prepares a batch under MAC votes
// (never committing it), is pushed into a view change it will lead,
// upgrades its proof with signed re-votes, and must re-propose the same
// batch in the new view — where MAC votes then commit and deliver it.
// Replica 2 runs on the simulation's synthetic clock; the test plays its
// peers, which receive nothing.
func TestMACViewChangeAdoptsPreparedEntry(t *testing.T) {
	s := newSim(t, func(cfg *Config) {
		cfg.BatchSize = 1
		cfg.RequestTimeout = time.Minute // the test drives the view change itself
	})
	s.down[1], s.down[3], s.down[4] = true, true, true
	r := s.reps[2].core // leader of view 1
	send := func(from ids.NodeID, env []byte) { s.arrive(simFrame{from: from, to: 2, env: env}) }
	suites, members := s.suites, s.members

	payload := []byte("mac-prepared-batch")
	digest := batchDigest([][]byte{payload})

	// View 0: pre-prepare from leader 1, MAC prepares from 3 and 4.
	send(1, sealFrom(suites[1], tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{payload}}))
	send(3, macFrom(suites[3], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(4, macFrom(suites[4], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	if e, ok := r.log[1]; !ok || !e.prepared || e.committed {
		t.Fatal("entry not prepared under MACs")
	}

	// Proof upgrade material: signed re-votes from 3 and 4, then
	// view-change messages pushing the replica into view 1.
	send(3, sealFrom(suites[3], tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(4, sealFrom(suites[4], tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(3, sealFrom(suites[3], tagViewChange, &viewChange{NewView: 1}))
	send(4, sealFrom(suites[4], tagViewChange, &viewChange{NewView: 1}))

	s.run("view 1 adopted", time.Second, func() bool { return r.view == 1 && !r.inVC })

	// The replica led the view change: its own view-change message
	// must carry the upgraded, signature-based prepared proof, and its
	// new-view must re-propose the batch.
	ownVCs := s.sentViewChanges(2)
	if len(ownVCs) == 0 {
		t.Fatal("replica never emitted its view-change message")
	}
	vc := ownVCs[len(ownVCs)-1]
	if len(vc.Prepared) != 1 {
		t.Fatalf("view change carried %d prepared proofs, want 1", len(vc.Prepared))
	}
	for i := range vc.Prepared[0].Prepares {
		if !vc.Prepared[0].Prepares[i].transferable() {
			t.Fatal("upgraded prepared proof still contains MAC votes")
		}
	}
	newViews := s.multicasts(2, tagNewView)
	if len(newViews) == 0 {
		t.Fatal("no new-view observed")
	}
	nv := newViews[len(newViews)-1].(*newView)
	if len(nv.PrePrepares) != 1 {
		t.Fatalf("new view re-issued %d batches, want 1", len(nv.PrePrepares))
	}
	reissued := decodePrePrepare(&nv.PrePrepares[0])
	if reissued == nil || reissued.Seq != 1 || reissued.View != 1 || batchDigest(reissued.Payloads) != digest {
		t.Fatal("reissued pre-prepare does not match the MAC-prepared batch")
	}

	// Normal case in view 1 commits and delivers the adopted batch.
	send(3, macFrom(suites[3], members, tagPrepare, &prepare{View: 1, Seq: 1, Digest: digest}))
	send(4, macFrom(suites[4], members, tagPrepare, &prepare{View: 1, Seq: 1, Digest: digest}))
	send(3, macFrom(suites[3], members, tagCommit, &commit{View: 1, Seq: 1, Digest: digest}))
	send(4, macFrom(suites[4], members, tagCommit, &commit{View: 1, Seq: 1, Digest: digest}))

	s.run("the adopted batch delivered", time.Second, s.allDelivered(1))
	b := s.delivered[2][0]
	if b.Seq != 1 || !bytes.Equal(b.Payloads[0], payload) {
		t.Fatalf("delivered (%d, %q), want (1, %q)", b.Seq, b.Payloads[0], payload)
	}
}
