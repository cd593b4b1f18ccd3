package pbft

import (
	"sort"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// startViewChangeLocked abandons the current view and prepares a
// view-change message for target. The consecutive-failure backoff
// doubles the timeout so competing view changes eventually converge
// during long partitions.
//
// Under the MAC fast path the prepare votes collected during normal
// operation are not transferable, so entering a view change first runs
// a proof-upgrade round: this replica re-issues its own normal-case
// prepare votes as signed messages and briefly holds its view-change
// message back while peers (entering the same view change) do the
// same, rebuilding signature-based prepared proofs identical to the
// ones signature mode collects. The hold is bounded: if faulty voters
// withhold re-votes, the message goes out with the proofs that could
// be rebuilt, degrading to the same omission the catch-up path already
// documents rather than stalling the view change.
func (r *Replica) startViewChangeLocked(target uint64) {
	if target <= r.view || (r.inVC && target <= r.vcTarget) {
		return
	}
	r.inVC = true
	r.vcTarget = target
	r.vcCount++
	r.curTimeout *= 2
	if r.curTimeout > r.cfg.ViewChangeTimeoutCap {
		// Saturate the backoff: a long partition must not push the
		// post-heal view-change cadence (and with it recovery latency)
		// to minutes. The cap is still several times the request
		// timeout, so competing view changes keep converging.
		r.curTimeout = r.cfg.ViewChangeTimeoutCap
	}
	r.vcDeadline = time.Now().Add(r.curTimeout)
	r.vcSent = false
	if r.macMode() {
		r.multicastReVotesLocked()
		grace := r.curTimeout / 8
		if grace > 250*time.Millisecond {
			grace = 250 * time.Millisecond
		}
		r.vcHold = time.Now().Add(grace)
	}
	r.maybeEmitViewChangeLocked()
}

// multicastReVotesLocked re-issues every normal-case prepare vote this
// replica cast above the stable checkpoint as a signed message. Peers
// accumulate the re-votes into their entries' transferable proofs.
// Bounded by the log (at most two windows of entries); signing runs
// inline because the view-change path is rare and the re-votes must
// precede the view-change message.
func (r *Replica) multicastReVotesLocked() {
	for seq, e := range r.log {
		if seq <= r.lowWM || !e.havePP || !e.sentPrepare {
			continue
		}
		if r.me == r.cfg.leaderOf(e.view) {
			continue // the proposer's signed pre-prepare is its vote
		}
		env, _ := r.sealLocked(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest})
		r.multicastLocked(env)
	}
}

// transferableProofLocked reports whether e's prepared certificate can
// be embedded in a view-change message: the signed pre-prepare plus
// enough signed prepare votes to form a quorum with the proposer.
func (r *Replica) transferableProofLocked(e *entry) bool {
	if !e.ppRaw.transferable() {
		return false
	}
	voters := map[ids.NodeID]bool{r.cfg.leaderOf(e.view): true}
	for i := range e.preparedRaws {
		voters[e.preparedRaws[i].From] = true
	}
	return r.cfg.Policy.IsQuorum(voters)
}

// holdForProofsLocked reports whether any prepared entry still lacks a
// transferable proof that the upgrade round could yet deliver.
func (r *Replica) holdForProofsLocked() bool {
	for seq, e := range r.log {
		if seq > r.lowWM && e.havePP && e.prepared && !r.transferableProofLocked(e) {
			return true
		}
	}
	return false
}

// maybeEmitViewChangeLocked sends the view-change message for the
// current target unless it already went out or the MAC-mode proof
// upgrade is still holding it back.
func (r *Replica) maybeEmitViewChangeLocked() {
	if !r.inVC || r.vcSent || r.stopped || !r.started {
		return
	}
	if r.macMode() && time.Now().Before(r.vcHold) && r.holdForProofsLocked() {
		return
	}
	r.vcSent = true

	vc := &viewChange{
		NewView:      r.vcTarget,
		StableBatch:  r.lowWM,
		StableGlobal: r.stableGlobal,
		StableChain:  r.stableChain,
		StableProof:  r.stableProof,
	}
	seqs := make([]uint64, 0, len(r.log))
	for seq, e := range r.log {
		if seq > r.lowWM && e.prepared && e.havePP {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		e := r.log[seq]
		if !r.transferableProofLocked(e) {
			// No transferable prepare quorum: prepared via a commit
			// certificate during catch-up, or under MACs with the
			// upgrade round incomplete. Safe to omit — a batch
			// committed anywhere was prepared by a quorum, so some
			// view-change quorum member carries a genuine proof (under
			// MACs, the re-vote round reconstructs it at every correct
			// replica that voted).
			continue
		}
		vc.Prepared = append(vc.Prepared, preparedProof{
			PrePrepare: e.ppRaw,
			Prepares:   e.preparedRaws,
		})
	}
	env, _ := r.sealLocked(tagViewChange, vc)
	r.multicastLocked(env)
}

func (r *Replica) handleViewChangeLocked(from ids.NodeID, vc *viewChange, raw signedRaw, verified bool) {
	if vc.NewView <= r.view {
		return
	}
	votes, ok := r.vcs[vc.NewView]
	if !ok {
		votes = make(map[ids.NodeID]vcVote)
		r.vcs[vc.NewView] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	if !verified {
		// The crypto pipeline could not validate the embedded evidence
		// (certificates or prepared proofs) off the lock.
		return
	}
	votes[from] = vcVote{msg: vc, raw: raw}

	// Liveness amplification: if f+1 distinct replicas want views
	// beyond ours, at least one correct replica does — join the
	// smallest such view so the group converges.
	r.maybeJoinViewChangeLocked()

	// If this replica leads the target view and holds a quorum of
	// view changes, install the view.
	if r.cfg.leaderOf(vc.NewView) == r.me {
		voters := make(map[ids.NodeID]bool, len(votes))
		for n := range votes {
			voters[n] = true
		}
		if r.cfg.Policy.IsQuorum(voters) {
			r.buildNewViewLocked(vc.NewView)
		}
	}
}

func (r *Replica) maybeJoinViewChangeLocked() {
	floor := r.view
	if r.inVC && r.vcTarget > floor {
		floor = r.vcTarget
	}
	distinct := make(map[ids.NodeID]uint64) // replica -> smallest target above floor
	for target, votes := range r.vcs {
		if target <= floor {
			continue
		}
		for n := range votes {
			if cur, ok := distinct[n]; !ok || target < cur {
				distinct[n] = target
			}
		}
	}
	if len(distinct) < r.cfg.Group.F+1 {
		return
	}
	// Join the smallest view at least f+1 replicas are willing to
	// reach (the maximum of the per-replica minima is safe and keeps
	// the group together).
	targets := make([]uint64, 0, len(distinct))
	for _, t := range distinct {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	join := targets[r.cfg.Group.F] // (f+1)-th smallest
	r.startViewChangeLocked(join)
}

// verifyViewChange validates a view-change message's embedded
// evidence: the stable-checkpoint certificate and every prepared
// proof. Lock-free — it reads only immutable configuration — so the
// crypto pipeline runs it off the replica lock, with the per-share
// checks of each certificate fanned out as batches.
func (r *Replica) verifyViewChange(vc *viewChange) bool {
	if vc.StableBatch > 0 &&
		!r.verifyCheckpointProof(vc.StableBatch, vc.StableGlobal, vc.StableChain, vc.StableProof) {
		return false
	}
	for i := range vc.Prepared {
		if _, _, ok := r.verifyPreparedProof(&vc.Prepared[i]); !ok {
			return false
		}
	}
	return true
}

// verifyPreparedProof checks one prepared certificate and returns the
// decoded pre-prepare. Only signed raws count: prepared proofs must
// remain transferable, so a MAC-authenticated vote smuggled into one
// is ignored. Lock-free; the prepare checks run as a pipeline batch.
func (r *Replica) verifyPreparedProof(proof *preparedProof) (*prePrepare, crypto.Digest, bool) {
	if !proof.PrePrepare.transferable() || r.verifyRaw(&proof.PrePrepare) != nil {
		return nil, crypto.Digest{}, false
	}
	tag, msg, err := registry.DecodeFrame(proof.PrePrepare.Frame)
	if err != nil || tag != tagPrePrepare {
		return nil, crypto.Digest{}, false
	}
	pp := msg.(*prePrepare)
	proposer := r.cfg.leaderOf(pp.View)
	if proof.PrePrepare.From != proposer {
		return nil, crypto.Digest{}, false
	}
	digest := batchDigest(pp.Payloads)
	seen := map[ids.NodeID]bool{proposer: true}
	checks := make([]func() error, 0, len(proof.Prepares))
	froms := make([]ids.NodeID, 0, len(proof.Prepares))
	for i := range proof.Prepares {
		raw := &proof.Prepares[i]
		if seen[raw.From] {
			continue
		}
		seen[raw.From] = true
		froms = append(froms, raw.From)
		checks = append(checks, func() error {
			if !raw.transferable() {
				return crypto.ErrBadSignature
			}
			if err := r.verifyRaw(raw); err != nil {
				return err
			}
			ptag, pmsg, err := registry.DecodeFrame(raw.Frame)
			if err != nil || ptag != tagPrepare {
				return crypto.ErrBadSignature
			}
			p := pmsg.(*prepare)
			if p.View != pp.View || p.Seq != pp.Seq || p.Digest != digest {
				return crypto.ErrBadSignature
			}
			return nil
		})
	}
	errs := r.cfg.Pipeline.RunBatch(checks)
	voters := map[ids.NodeID]bool{proposer: true}
	for i, err := range errs {
		if err == nil {
			voters[froms[i]] = true
		}
	}
	if !r.cfg.Policy.IsQuorum(voters) {
		return nil, crypto.Digest{}, false
	}
	return pp, digest, true
}

// reissuePlan computes, from a set of verified view changes, the
// stable checkpoint to adopt and the batches the new leader must
// re-propose. Both the new leader and the followers run it, so a
// faulty leader cannot smuggle in a different plan.
type reissuePlan struct {
	stableBatch  uint64
	stableGlobal uint64
	stableChain  crypto.Digest
	stableProof  []signedRaw
	// batches maps seq -> payloads of the highest-view prepared proof
	// (nil payloads mean a null batch).
	batches map[uint64][][]byte
	maxSeq  uint64
}

func (r *Replica) computeReissuePlan(vcs []*viewChange) reissuePlan {
	plan := reissuePlan{batches: make(map[uint64][][]byte)}
	for _, vc := range vcs {
		if vc.StableBatch > plan.stableBatch {
			plan.stableBatch = vc.StableBatch
			plan.stableGlobal = vc.StableGlobal
			plan.stableChain = vc.StableChain
			plan.stableProof = vc.StableProof
		}
	}
	type chosen struct {
		view     uint64
		payloads [][]byte
	}
	best := make(map[uint64]chosen)
	for _, vc := range vcs {
		for i := range vc.Prepared {
			// Proofs were verified when the view change was accepted.
			pp, _, ok := r.verifyPreparedProof(&vc.Prepared[i])
			if !ok {
				continue
			}
			if pp.Seq <= plan.stableBatch {
				continue
			}
			if cur, ok := best[pp.Seq]; !ok || pp.View > cur.view {
				best[pp.Seq] = chosen{view: pp.View, payloads: pp.Payloads}
			}
		}
	}
	for seq := range best {
		if seq > plan.maxSeq {
			plan.maxSeq = seq
		}
	}
	if plan.maxSeq < plan.stableBatch {
		plan.maxSeq = plan.stableBatch
	}
	for seq := plan.stableBatch + 1; seq <= plan.maxSeq; seq++ {
		if c, ok := best[seq]; ok {
			plan.batches[seq] = c.payloads
		} else {
			plan.batches[seq] = nil // null batch fills the gap
		}
	}
	return plan
}

// buildNewViewLocked is run by the leader of the target view once it
// holds a quorum of view changes.
func (r *Replica) buildNewViewLocked(target uint64) {
	if r.view >= target {
		return
	}
	votes := r.vcs[target]
	raws := make([]signedRaw, 0, len(votes))
	msgs := make([]*viewChange, 0, len(votes))
	for _, v := range votes {
		raws = append(raws, v.raw)
		msgs = append(msgs, v.msg)
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].From < raws[j].From })

	plan := r.computeReissuePlan(msgs)
	nv := &newView{View: target, ViewChanges: raws}
	seqs := make([]uint64, 0, len(plan.batches))
	for seq := range plan.batches {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		pp := &prePrepare{View: target, Seq: seq, Payloads: plan.batches[seq]}
		frame := registry.EncodeFrame(tagPrePrepare, pp)
		nv.PrePrepares = append(nv.PrePrepares, signedRaw{
			From:  r.me,
			Frame: frame,
			Sig:   r.cfg.Suite.Sign(crypto.DomainPBFT, frame),
		})
	}
	env, _ := r.sealLocked(tagNewView, nv)
	r.multicastLocked(env)
	// The leader adopts the view when its own new-view message comes
	// back through the transport, exactly like the followers.
}

// nvVerdict is the crypto pipeline's precomputed verdict for one
// new-view message: whether the view-change quorum and the re-issued
// pre-prepares check out, and the reissue plan both were validated
// against.
type nvVerdict struct {
	ok       bool
	plan     reissuePlan
	reissues []*prePrepare
}

// verifyNewView validates a new-view message off the replica lock:
// the signed view-change quorum, each view change's embedded evidence,
// and the leader's re-issued pre-prepares against an independently
// recomputed plan. Lock-free — state-dependent acceptance (current
// view, leader of the target view) stays in the handler.
func (r *Replica) verifyNewView(from ids.NodeID, nv *newView) *nvVerdict {
	voters := make(map[ids.NodeID]bool)
	msgs := make([]*viewChange, 0, len(nv.ViewChanges))
	for i := range nv.ViewChanges {
		raw := &nv.ViewChanges[i]
		if voters[raw.From] {
			continue
		}
		if from != r.me {
			if !raw.transferable() || r.verifyRaw(raw) != nil {
				continue
			}
		}
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagViewChange {
			continue
		}
		vc := msg.(*viewChange)
		if vc.NewView != nv.View {
			continue
		}
		if from != r.me && !r.verifyViewChange(vc) {
			continue
		}
		voters[raw.From] = true
		msgs = append(msgs, vc)
	}
	if !r.cfg.Policy.IsQuorum(voters) {
		return &nvVerdict{}
	}
	// Recompute the plan independently and insist the leader followed
	// it: same sequence set, same batch digests, correctly signed
	// re-issued pre-prepares.
	plan := r.computeReissuePlan(msgs)
	if len(nv.PrePrepares) != len(plan.batches) {
		return &nvVerdict{}
	}
	reissues := make([]*prePrepare, 0, len(nv.PrePrepares))
	for i := range nv.PrePrepares {
		raw := &nv.PrePrepares[i]
		if raw.From != from {
			return &nvVerdict{}
		}
		if from != r.me {
			if !raw.transferable() || r.verifyRaw(raw) != nil {
				return &nvVerdict{}
			}
		}
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagPrePrepare {
			return &nvVerdict{}
		}
		pp := msg.(*prePrepare)
		want, ok := plan.batches[pp.Seq]
		if !ok || pp.View != nv.View {
			return &nvVerdict{}
		}
		if batchDigest(pp.Payloads) != batchDigest(want) {
			return &nvVerdict{}
		}
		reissues = append(reissues, pp)
	}
	return &nvVerdict{ok: true, plan: plan, reissues: reissues}
}

func (r *Replica) handleNewViewLocked(from ids.NodeID, nv *newView, v *nvVerdict, env []byte) {
	if nv.View <= r.view || from != r.cfg.leaderOf(nv.View) {
		return
	}
	if v == nil || !v.ok {
		return
	}
	r.adoptViewLocked(nv, v.plan, v.reissues, env)
}

// adoptViewLocked installs the new view: jump to the plan's stable
// checkpoint if ahead of ours, rebuild the log from the re-issued
// pre-prepares, requeue orphaned payloads, and resume normal
// operation.
func (r *Replica) adoptViewLocked(nv *newView, plan reissuePlan, reissues []*prePrepare, env []byte) {
	oldView := r.view
	r.view = nv.View
	r.inVC = false
	r.vcTarget = nv.View
	r.vcSent = false
	r.curTimeout = r.cfg.RequestTimeout
	if r.mon != nil {
		// Close the old view's throughput record and grant the new
		// leader its grace period before it can be judged.
		r.mon.onViewInstall(time.Now(), oldView)
	}
	if r.cfg.OnViewInstall != nil {
		r.cfg.OnViewInstall(nv.View)
	}
	// Copied because env may alias a transport receive buffer (tcpnet
	// hands out arena-backed frame slices); retaining the alias would
	// pin the whole arena chunk for the lifetime of the view.
	r.lastNewViewEnv = append([]byte(nil), env...)
	for target := range r.vcs {
		if target <= r.view {
			delete(r.vcs, target)
		}
	}
	// Every still-pending request gets a fresh timeout under the new
	// leader; keeping old timestamps would depose the new leader
	// before it had any chance to order them.
	now := time.Now()
	for d := range r.pendingSince {
		r.pendingSince[d] = now
	}

	if plan.stableBatch > r.lowWM {
		r.stabilizeLocked(plan.stableBatch, plan.stableGlobal, plan.stableChain, plan.stableProof)
	}

	// Payloads that were in flight but are not part of the new view's
	// plan go back to the queue.
	reissued := make(map[crypto.Digest]bool)
	for _, pp := range reissues {
		for _, p := range pp.Payloads {
			reissued[crypto.Hash(p)] = true
		}
	}
	for seq, e := range r.log {
		if e.delivered || seq <= r.lowWM {
			continue
		}
		for _, p := range e.payloads {
			d := crypto.Hash(p)
			if r.seen[d] == reqInflight && !reissued[d] {
				r.seen[d] = reqQueued
				r.queue = append(r.queue, queuedReq{payload: p, digest: d})
			}
		}
		delete(r.log, seq)
	}

	// Install the re-issued pre-prepares and vote for them.
	leader := r.cfg.leaderOf(nv.View)
	maxSeq := r.lowWM
	for i, pp := range reissues {
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if pp.Seq < r.nextDeliver {
			continue // already delivered in an earlier view
		}
		e := newEntry(pp.Seq)
		e.view = nv.View
		e.payloads = pp.Payloads
		digests := e.payloadDigestsLocked()
		e.digest = batchDigestOf(digests)
		e.havePP = true
		e.ppRaw = nv.PrePrepares[i]
		r.log[pp.Seq] = e
		for _, d := range digests {
			if r.seen[d] != reqDelivered {
				r.seen[d] = reqInflight
			}
		}
		if r.me != leader {
			e.sentPrepare = true
			r.authMulticastLocked(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest}, r.normalAuth)
		}
		r.checkPreparedLocked(e)
	}
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.releaseHeldVotesLocked()
	r.cond.Broadcast()
	r.maybeProposeLocked(false)
}
