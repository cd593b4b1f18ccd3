package pbft

import (
	"errors"
	"fmt"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/wire"
)

// What runs on a frame's delivery goroutine, off the replica lock:
// authentication, A-Validity and certificate checks. Only Replica.ask
// reads the core.

// errVoteNotNeeded drops a signed vote before its signature check.
var errVoteNotNeeded = errors.New("pbft: vote can no longer change anything")

// check is one frame's work before the core sees it: decode it,
// authenticate it, and precompute what its handler needs (payload
// validation, certificate verdicts). A non-nil error drops the frame; a
// MAC-authenticated vote that failed leaves in.fallback set for the core
// to ask for a signed copy.
//
// Cheap acceptance check first, public-key work second: a signed
// prepare or commit is asked about (voteStillCounts) before its
// signature is verified, as pre-prepare validation and view-change and
// new-view evidence are gated further down. A gate can only cause a
// drop; what reaches the core has passed the same verification as
// without it.
func (r *Replica) check(in *inbound) error {
	var err error
	if in.tag, in.msg, err = registry.DecodeFrameShared(in.raw.Frame); err != nil {
		return err
	}
	from := in.from
	if from != r.me {
		// A signed vote whose quorum is in, or which the core would
		// discard anyway, is not worth a signature check (a MAC-vector
		// one costs a microsecond and is not asked about). Nothing
		// vouches for the decoded content yet: it is only compared with
		// the core's state.
		if len(in.raw.Sig) > 0 && (in.tag == tagPrepare || in.tag == tagCommit) &&
			!r.ask(func(c *core) bool { return c.voteStillCounts(from, in.msg) }) {
			return errVoteNotNeeded
		}
		if err := r.verifyAuthRaw(&in.raw); err != nil {
			// A bad MAC-vector entry on a normal-case vote gets the
			// fallback treatment: drop the frame but ask the peer for a
			// signed copy, so a correct sender whose vector was
			// corrupted in transit (or a receiver targeted by a
			// selectively garbled vector) recovers instead of stalling
			// the quorum.
			if len(in.raw.Sig) == 0 && len(in.raw.MACVec) > 0 {
				in.fallback = fallbackRequest(in.msg)
			}
			return err
		}
		if !in.raw.transferable() && in.tag != tagPrepare && in.tag != tagCommit {
			// MAC vectors authenticate the normal-case fast path only;
			// everything else must stay signed so it can serve in
			// certificates and proofs.
			return fmt.Errorf("pbft: %v from %v must be signed", in.tag, from)
		}
	}
	switch in.tag {
	case tagPrePrepare:
		// A-Validity runs here too: client-request signature checks are
		// as CPU-bound as the envelope signature and must not run under
		// the replica lock. Gated on the same cheap acceptance checks
		// the handler applies, so duplicate or out-of-window
		// pre-prepares cannot buy batch-sized validation work (the
		// handler falls back to inline validation for the rare frame
		// that becomes acceptable between this check and dispatch).
		pp := in.msg.(*prePrepare)
		if from != r.me && r.cfg.Validate != nil && r.ask(func(c *core) bool { return c.wouldAcceptPrePrepare(from, pp) }) {
			in.validated = true
			for _, p := range pp.Payloads {
				if err := r.cfg.Validate(p); err != nil {
					in.valErr = err
					break
				}
			}
		}
	case tagStatusReply:
		in.sv = r.verifyStatusReply(in.msg.(*statusReply))
	case tagViewChange:
		// Stale or duplicate view changes are dropped by the core
		// anyway; asking first keeps a replayed signed envelope from
		// buying certificate-sized verification work.
		vc := in.msg.(*viewChange)
		in.vcOK = !r.ask(func(c *core) bool { return c.staleViewChange(from, vc) }) && r.verifyViewChange(vc)
	case tagNewView:
		if nv := in.msg.(*newView); !r.ask(func(c *core) bool { return c.staleNewView(nv) }) {
			in.nv = r.verifyNewView(from, nv)
		}
	}
	return nil
}

// fallbackRequest builds the signed-copy request for an unverifiable
// MAC-authenticated frame, if it is a normal-case vote. The decoded
// content is unauthenticated, so the request carries only coordinates;
// the peer answers from its own state.
func fallbackRequest(msg wire.Message) *voteRequest {
	switch m := msg.(type) {
	case *prepare:
		return &voteRequest{Kind: voteKindPrepare, View: m.View, Seq: m.Seq}
	case *commit:
		return &voteRequest{Kind: voteKindCommit, View: m.View, Seq: m.Seq}
	}
	return nil
}

// verifyRaw checks an embedded or top-level signed message. Only
// signature-authenticated raws pass: this is the check used wherever a
// raw must be transferable.
func (r *Replica) verifyRaw(raw *signedRaw) error {
	if !r.cfg.Group.Contains(raw.From) {
		return fmt.Errorf("pbft: signer %v not in group", raw.From)
	}
	return r.cfg.Suite.Verify(raw.From, crypto.DomainPBFT, raw.Frame, raw.Sig)
}

// verifyAuthRaw checks a raw of either authentication kind: the
// signature when present (it takes precedence so the raw stays
// transferable), this replica's MAC-vector entry otherwise.
func (r *Replica) verifyAuthRaw(raw *signedRaw) error {
	if !r.cfg.Group.Contains(raw.From) {
		return fmt.Errorf("pbft: sender %v not in group", raw.From)
	}
	if len(raw.Sig) > 0 {
		return r.sigAuth.Verify(raw.From, raw.Frame, raw.Sig, nil)
	}
	if len(raw.MACVec) > 0 {
		return r.macAuth.Verify(raw.From, raw.Frame, nil, raw.MACVec)
	}
	return fmt.Errorf("pbft: unauthenticated frame from %v", raw.From)
}

// verifyCheckpointProof checks a checkpoint certificate: a quorum of
// distinct group members signed matching checkpoint messages.
func (r *Replica) verifyCheckpointProof(batch, global uint64, chain crypto.Digest, proof []signedRaw) bool {
	return r.certs.Verify(len(proof), func(i int) ids.NodeID { return proof[i].From }, func(i int) error {
		raw := &proof[i]
		if err := r.verifyRaw(raw); err != nil {
			return err
		}
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagCheckpoint {
			return crypto.ErrBadSignature
		}
		if c := msg.(*checkpointMsg); c.BatchSeq != batch || c.GlobalSeq != global || c.Chain != chain {
			return crypto.ErrBadSignature
		}
		return nil
	})
}

// commitCertVerdict is the precomputed verdict for one committedEntry.
type commitCertVerdict struct {
	pp     *prePrepare
	digest crypto.Digest
	ok     bool
}

// verifyCommitCert checks a self-contained commit certificate. The
// pre-prepare must be signed (it is stored as a transferable proof);
// the commits may be signed or MAC-vector authenticated — a relayed MAC
// vector still carries this replica's own entry, which its original
// sender alone could forge, so it is as convincing to us as a signature
// even though we cannot pass it on.
func (r *Replica) verifyCommitCert(ce *committedEntry, lowWM, nextDeliver uint64) commitCertVerdict {
	if !ce.PrePrepare.transferable() || r.verifyRaw(&ce.PrePrepare) != nil {
		return commitCertVerdict{}
	}
	pp := decodePrePrepare(&ce.PrePrepare)
	if pp == nil || ce.PrePrepare.From != r.cfg.leaderOf(pp.View) {
		return commitCertVerdict{}
	}
	if pp.Seq < nextDeliver || pp.Seq <= lowWM {
		return commitCertVerdict{}
	}
	digest := batchDigest(pp.Payloads)
	if !r.certs.Verify(len(ce.Commits), func(i int) ids.NodeID { return ce.Commits[i].From }, func(i int) error {
		raw := &ce.Commits[i]
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagCommit {
			return crypto.ErrBadSignature
		}
		cm := msg.(*commit)
		if cm.View != pp.View || cm.Seq != pp.Seq || cm.Digest != digest {
			return crypto.ErrBadSignature
		}
		if raw.From == r.me && !raw.transferable() {
			// Our own relayed MAC commit cannot be checked against its
			// vector (the self entry is empty) and a relayer could
			// fabricate it; accept it only if it matches a commit this
			// replica actually sent, else a certificate echoing our own
			// vote back at us would never reach its quorum and catch-up
			// of a replica that missed its peers' commits would stall.
			if !r.ask(func(c *core) bool { return c.sentCommitMatches(cm) }) {
				return crypto.ErrBadMAC
			}
			return nil
		}
		return r.verifyAuthRaw(raw)
	}) {
		return commitCertVerdict{}
	}
	return commitCertVerdict{pp: pp, digest: digest, ok: true}
}

// verifyViewChange validates a view-change message's embedded evidence:
// the stable-checkpoint certificate and every prepared proof.
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
// is ignored.
func (r *Replica) verifyPreparedProof(proof *preparedProof) (*prePrepare, crypto.Digest, bool) {
	if !proof.PrePrepare.transferable() || r.verifyRaw(&proof.PrePrepare) != nil {
		return nil, crypto.Digest{}, false
	}
	pp := decodePrePrepare(&proof.PrePrepare)
	if pp == nil {
		return nil, crypto.Digest{}, false
	}
	proposer := r.cfg.leaderOf(pp.View)
	if proof.PrePrepare.From != proposer {
		return nil, crypto.Digest{}, false
	}
	digest := batchDigest(pp.Payloads)
	if !r.certs.Verify(len(proof.Prepares), func(i int) ids.NodeID { return proof.Prepares[i].From }, func(i int) error {
		raw := &proof.Prepares[i]
		if !raw.transferable() {
			return crypto.ErrBadSignature
		}
		if err := r.verifyRaw(raw); err != nil {
			return err
		}
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagPrepare {
			return crypto.ErrBadSignature
		}
		if p := msg.(*prepare); p.View != pp.View || p.Seq != pp.Seq || p.Digest != digest {
			return crypto.ErrBadSignature
		}
		return nil
	}, proposer) {
		return nil, crypto.Digest{}, false
	}
	return pp, digest, true
}

// nvVerdict is check's verdict for one new-view message: whether the
// view-change quorum and the reissued pre-prepares check out, and the
// reissue plan both were validated against.
type nvVerdict struct {
	ok       bool
	plan     reissuePlan
	reissues []*prePrepare
}

// verifyNewView validates a new-view message: the signed view-change
// quorum, each view change's embedded evidence, and the leader's
// reissued pre-prepares against an independently recomputed plan.
// State-dependent acceptance (current view, leader of the target view)
// stays in the core.
func (r *Replica) verifyNewView(from ids.NodeID, nv *newView) *nvVerdict {
	vcs := make([]*viewChange, len(nv.ViewChanges))
	if !r.certs.Verify(len(nv.ViewChanges), func(i int) ids.NodeID { return nv.ViewChanges[i].From }, func(i int) error {
		raw := &nv.ViewChanges[i]
		if from != r.me && (!raw.transferable() || r.verifyRaw(raw) != nil) {
			return crypto.ErrBadSignature
		}
		tag, msg, err := registry.DecodeFrame(raw.Frame)
		if err != nil || tag != tagViewChange {
			return crypto.ErrBadSignature
		}
		vc := msg.(*viewChange)
		if vc.NewView != nv.View || (from != r.me && !r.verifyViewChange(vc)) {
			return crypto.ErrBadSignature
		}
		vcs[i] = vc
		return nil
	}) {
		return &nvVerdict{}
	}
	msgs := vcs[:0]
	for _, vc := range vcs {
		if vc != nil {
			msgs = append(msgs, vc)
		}
	}
	// Recompute the plan independently and insist the leader followed
	// it: same sequence set, same batch digests, correctly signed
	// reissued pre-prepares.
	plan := reissuePlanOf(msgs)
	if len(nv.PrePrepares) != len(plan.batches) {
		return &nvVerdict{}
	}
	reissues := make([]*prePrepare, 0, len(nv.PrePrepares))
	for i := range nv.PrePrepares {
		raw := &nv.PrePrepares[i]
		if raw.From != from {
			return &nvVerdict{}
		}
		if from != r.me && (!raw.transferable() || r.verifyRaw(raw) != nil) {
			return &nvVerdict{}
		}
		pp := decodePrePrepare(raw)
		if pp == nil || pp.View != nv.View {
			return &nvVerdict{}
		}
		want, ok := plan.batches[pp.Seq]
		if !ok || batchDigest(pp.Payloads) != batchDigest(want) {
			return &nvVerdict{}
		}
		reissues = append(reissues, pp)
	}
	return &nvVerdict{ok: true, plan: plan, reissues: reissues}
}

// statusVerdict carries the certificate verdicts check precomputed
// for one status reply, so the core only pays for state updates, never
// for signature loops.
type statusVerdict struct {
	stableOK bool
	entries  []commitCertVerdict
	// Relayed new-view envelope, pre-verified like a direct one.
	nvFrom ids.NodeID
	nvMsg  *newView
	nv     *nvVerdict
}

// verifyStatusReply checks every certificate in a status reply. A
// snapshot of the core's watermarks skips work that cannot matter; the
// core re-checks all state-dependent conditions, so a stale snapshot can
// only cost a retry, never correctness.
func (r *Replica) verifyStatusReply(reply *statusReply) *statusVerdict {
	var lowWM, nextDeliver, view uint64
	r.ask(func(c *core) bool {
		lowWM, nextDeliver, view = c.lowWM, c.nextDeliver, c.view
		return true
	})

	v := &statusVerdict{entries: make([]commitCertVerdict, len(reply.Entries))}
	if reply.StableBatch > lowWM {
		v.stableOK = r.verifyCheckpointProof(reply.StableBatch, reply.StableGlobal, reply.StableChain, reply.StableProof)
	}
	for i := range reply.Entries {
		v.entries[i] = r.verifyCommitCert(&reply.Entries[i], lowWM, nextDeliver)
	}
	if len(reply.NewViewEnv) > 0 {
		var raw signedRaw
		if err := wire.Decode(reply.NewViewEnv, &raw); err == nil && r.verifyRaw(&raw) == nil {
			if tag, msg, err := registry.DecodeFrame(raw.Frame); err == nil && tag == tagNewView {
				if nv := msg.(*newView); nv.View > view {
					v.nvFrom = raw.From
					v.nvMsg = nv
					v.nv = r.verifyNewView(raw.From, nv)
				}
			}
		}
	}
	return v
}
