package pbft

import (
	"maps"
	"slices"
	"sort"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// startViewChange abandons the current view and prepares a view-change
// message for target. The consecutive-failure backoff doubles the
// timeout, starting from the detector's, so competing view changes
// eventually converge during long partitions.
//
// Under the MAC fast path the prepare votes collected during normal
// operation are not transferable, so entering a view change first runs
// a proof-upgrade round: this replica reissues its own normal-case
// prepare votes as signed messages and briefly holds its view-change
// message back while peers (entering the same view change) do the
// same, rebuilding signature-based prepared proofs identical to the
// ones signature mode collects. The hold is bounded: if faulty voters
// withhold re-votes, the message goes out with the proofs that could
// be rebuilt, degrading to the same omission the catch-up path already
// documents rather than stalling the view change.
func (c *core) startViewChange(target uint64) {
	if target <= c.view || (c.inVC && target <= c.vcTarget) {
		return
	}
	c.inVC = true
	c.vcTarget = target
	c.vcCount++
	c.forgetSuspicions()
	// Saturate the backoff: a long partition must not push the post-heal
	// view-change cadence (and with it recovery latency) to minutes. The
	// cap is still several times the request timeout, so competing view
	// changes keep converging.
	c.curTimeout = min(2*c.timeout(), 8*c.cfg.RequestTimeout)
	c.vcDeadline = c.now.Add(c.curTimeout)
	c.vcSent = false
	if c.macMode() {
		c.multicastReVotes()
		c.vcHold = c.now.Add(min(c.curTimeout/8, 250*time.Millisecond))
	}
	c.maybeEmitViewChange()
}

// multicastReVotes reissues every normal-case prepare vote this replica
// cast above the stable checkpoint as a signed message. Peers accumulate
// the re-votes into their entries' transferable proofs. Bounded by the
// log (at most two windows of entries); signing happens at once because
// the view-change path is rare and the re-votes must precede the
// view-change message.
func (c *core) multicastReVotes() {
	for seq, e := range c.log {
		if seq <= c.lowWM || !e.havePP || !e.sentPrepare {
			continue
		}
		if c.me == c.cfg.leaderOf(e.view) {
			continue // the proposer's signed pre-prepare is its vote
		}
		env, _ := c.seal(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest})
		c.multicast(env)
	}
}

// transferableProof reports whether e's prepared certificate can be
// embedded in a view-change message: the signed pre-prepare plus enough
// signed prepare votes to form a quorum with the proposer.
func (c *core) transferableProof(e *entry) bool {
	return e.ppRaw.transferable() && c.prepares.ReachedBy(e.seq, e.key(), transferable, c.cfg.leaderOf(e.view))
}

// transferable reports whether a prepare vote may serve in a proof.
func transferable(raw signedRaw) bool { return raw.transferable() }

// preparedRaws returns the prepared proof's votes: only signed ones, as
// MAC votes are not transferable. Under the MAC fast path there are
// none until the view-change proof-upgrade round reissues the votes
// with signatures.
func (c *core) preparedRaws(e *entry) []signedRaw {
	var raws []signedRaw
	for _, raw := range c.prepares.Matching(e.seq, e.key()) {
		if raw.transferable() {
			raws = append(raws, raw)
		}
	}
	return raws
}

// holdForProofs reports whether any prepared entry still lacks a
// transferable proof that the upgrade round could yet deliver.
func (c *core) holdForProofs() bool {
	for seq, e := range c.log {
		if seq > c.lowWM && e.havePP && e.prepared && !c.transferableProof(e) {
			return true
		}
	}
	return false
}

// maybeEmitViewChange sends the view-change message for the current
// target unless it already went out or the MAC-mode proof upgrade is
// still holding it back.
func (c *core) maybeEmitViewChange() {
	if !c.inVC || c.vcSent {
		return
	}
	if c.macMode() && c.now.Before(c.vcHold) && c.holdForProofs() {
		return
	}
	c.vcSent = true

	vc := &viewChange{
		NewView:      c.vcTarget,
		StableBatch:  c.lowWM,
		StableGlobal: c.stableGlobal,
		StableChain:  c.stableChain,
		StableProof:  c.stableProof,
	}
	for _, seq := range slices.Sorted(maps.Keys(c.log)) {
		e := c.log[seq]
		if seq <= c.lowWM || !e.prepared || !e.havePP {
			continue
		}
		if !c.transferableProof(e) {
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
			Prepares:   c.preparedRaws(e),
		})
	}
	env, _ := c.seal(tagViewChange, vc)
	c.multicast(env)
}

func (c *core) handleViewChange(from ids.NodeID, vc *viewChange, raw signedRaw, verified bool) {
	if vc.NewView <= c.view || !verified {
		// Stale, or check could not validate the embedded evidence
		// (certificates or prepared proofs).
		return
	}
	if !c.viewChanges.Add(vc.NewView, from, struct{}{}, vcVote{msg: vc, raw: raw}) {
		return
	}

	// Liveness amplification: if f+1 distinct replicas want views
	// beyond ours, at least one correct replica does — join the
	// smallest such view so the group converges.
	c.maybeJoinViewChange()

	// If this replica leads the target view and holds a quorum of view
	// changes, install the view.
	if c.cfg.leaderOf(vc.NewView) == c.me && c.viewChanges.Reached(vc.NewView, struct{}{}) {
		c.buildNewView(vc.NewView)
	}
}

func (c *core) maybeJoinViewChange() {
	floor := c.view
	if c.inVC && c.vcTarget > floor {
		floor = c.vcTarget
	}
	distinct := make(map[ids.NodeID]uint64) // replica -> smallest target above floor
	for target, votes := range c.viewChanges.All() {
		if target <= floor {
			continue
		}
		for _, v := range votes {
			if cur, ok := distinct[v.From]; !ok || target < cur {
				distinct[v.From] = target
			}
		}
	}
	if len(distinct) < c.cfg.Group.F+1 {
		return
	}
	// Join the smallest view at least f+1 replicas are willing to
	// reach (the maximum of the per-replica minima is safe and keeps
	// the group together): the (f+1)-th smallest.
	c.startViewChange(slices.Sorted(maps.Values(distinct))[c.cfg.Group.F])
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

// reissuePlanOf computes the plan. Every proof in vcs was verified when
// its view change was accepted, so the plan only decodes.
func reissuePlanOf(vcs []*viewChange) reissuePlan {
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
			pp := decodePrePrepare(&vc.Prepared[i].PrePrepare)
			if pp == nil || pp.Seq <= plan.stableBatch {
				continue
			}
			if cur, ok := best[pp.Seq]; !ok || pp.View > cur.view {
				best[pp.Seq] = chosen{view: pp.View, payloads: pp.Payloads}
			}
		}
	}
	plan.maxSeq = plan.stableBatch
	for seq := range best {
		plan.maxSeq = max(plan.maxSeq, seq)
	}
	for seq := plan.stableBatch + 1; seq <= plan.maxSeq; seq++ {
		plan.batches[seq] = best[seq].payloads // nil: a null batch fills the gap
	}
	return plan
}

// buildNewView is run by the leader of the target view once it holds a
// quorum of view changes.
func (c *core) buildNewView(target uint64) {
	if c.view >= target {
		return
	}
	var raws []signedRaw
	var msgs []*viewChange
	for _, v := range c.viewChanges.Matching(target, struct{}{}) {
		raws = append(raws, v.raw)
		msgs = append(msgs, v.msg)
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].From < raws[j].From })

	plan := reissuePlanOf(msgs)
	nv := &newView{View: target, ViewChanges: raws}
	for seq := plan.stableBatch + 1; seq <= plan.maxSeq; seq++ {
		pp := &prePrepare{View: target, Seq: seq, Payloads: plan.batches[seq]}
		frame := registry.EncodeFrame(tagPrePrepare, pp)
		nv.PrePrepares = append(nv.PrePrepares, signedRaw{
			From:  c.me,
			Frame: frame,
			Sig:   c.cfg.Suite.Sign(crypto.DomainPBFT, frame),
		})
	}
	env, _ := c.seal(tagNewView, nv)
	c.multicast(env)
	// The leader adopts the view when its own new-view message comes
	// back through the transport, exactly like the followers.
}

func (c *core) handleNewView(from ids.NodeID, nv *newView, v *nvVerdict, env []byte) {
	if nv.View <= c.view || from != c.cfg.leaderOf(nv.View) {
		return
	}
	if v == nil || !v.ok {
		return
	}
	c.adoptView(nv, v.plan, v.reissues, env)
}

// adoptView installs the new view: jump to the plan's stable checkpoint
// if ahead of ours, rebuild the log from the reissued pre-prepares,
// requeue orphaned payloads, and resume normal operation.
func (c *core) adoptView(nv *newView, plan reissuePlan, reissues []*prePrepare, env []byte) {
	c.slow.newView(c.now, c.view)
	c.view = nv.View
	c.inVC = false
	c.vcTarget = nv.View
	c.vcSent = false
	c.curTimeout = 0
	c.out = append(c.out, action{kind: actViewInstalled, view: nv.View})
	// Copied because env may alias a transport receive buffer (tcpnet
	// hands out arena-backed frame slices); retaining the alias would
	// pin the whole arena chunk for the lifetime of the view.
	c.lastNewViewEnv = append([]byte(nil), env...)
	c.viewChanges.DropBelow(c.view + 1)
	// Every still-pending request gets a fresh timeout under the new
	// leader; keeping old timestamps would depose the new leader
	// before it had any chance to order them.
	c.pending.restart(c.now)
	c.forgetSuspicions()

	if plan.stableBatch > c.lowWM {
		c.stabilize(plan.stableBatch, plan.stableGlobal, plan.stableChain, plan.stableProof)
	}

	// Payloads that were in flight but are not part of the new view's
	// plan go back to the queue. Committed batches stay: every later
	// view's plan carries them unchanged, and this replica delivers them
	// as committed, whether or not its Deliver has taken them yet.
	reissued := make(map[crypto.Digest]bool)
	for _, pp := range reissues {
		for _, p := range pp.Payloads {
			reissued[crypto.Hash(p)] = true
		}
	}
	for seq, e := range c.log {
		if e.committed || seq <= c.lowWM {
			continue
		}
		for _, p := range e.payloads {
			d := crypto.Hash(p)
			if c.seen[d] == reqInflight && !reissued[d] {
				c.seen[d] = reqQueued
				c.queue = append(c.queue, queuedReq{payload: p, digest: d})
			}
		}
		delete(c.log, seq)
		c.prepares.Drop(seq)
		c.commits.Drop(seq)
	}

	// Install the reissued pre-prepares and vote for them.
	leader := c.cfg.leaderOf(nv.View)
	maxSeq := c.lowWM
	for i, pp := range reissues {
		maxSeq = max(maxSeq, pp.Seq)
		if e, ok := c.log[pp.Seq]; pp.Seq < c.nextDeliver || ok && e.committed {
			continue // already committed in an earlier view
		}
		e := &entry{seq: pp.Seq}
		e.view = nv.View
		e.payloads = pp.Payloads
		digests := e.payloadDigests()
		e.digest = batchDigestOf(digests)
		e.havePP = true
		e.ppRaw = nv.PrePrepares[i]
		c.log[pp.Seq] = e
		for _, d := range digests {
			if c.seen[d] != reqDelivered {
				c.seen[d] = reqInflight
			}
		}
		if c.me != leader {
			e.sentPrepare = true
			c.authMulticast(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest}, false)
		}
		c.checkPrepared(e)
	}
	if c.nextSeq <= maxSeq {
		c.nextSeq = maxSeq + 1
	}
	c.releaseHeldVotes()
	c.notify()
	c.maybePropose(false)
}
