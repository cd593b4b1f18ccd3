// Package pbft implements the Practical Byzantine Fault Tolerance
// protocol of Castro and Liskov (OSDI '99) behind the consensus
// black-box interface: pre-prepare/prepare/commit ordering with
// batching and pipelining, the checkpoint protocol with watermarks,
// signature-based view changes, and a catch-up path for replicas that
// fall behind.
//
// PBFT serves four roles in the reproduction: Spider's agreement
// protocol (run across availability zones of one region), the "BFT"
// baseline (run across regions), the site-local protocol of the HFT
// baseline, and — parameterized with a weighted quorum policy — the
// "BFT-WV" baseline.
//
// Normal-case messages support two authentication modes (Config.
// NormalCaseAuth): the signature-based variant signs everything, while
// the MAC-vector fast path — the original paper's optimisation —
// authenticates prepare and commit with per-member HMAC vectors and
// reserves signatures for the messages that must remain transferable:
// pre-prepare, checkpoint, view change, new view, and anything embedded
// in a certificate. Neither mode changes the message flow.
package pbft

import (
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/wire"
)

// Message type tags within the PBFT stream.
const (
	tagPrePrepare wire.TypeTag = iota + 1
	tagPrepare
	tagCommit
	tagCheckpoint
	tagViewChange
	tagNewView
	tagStatusRequest
	tagStatusReply
	tagVoteRequest
	tagSuspicion
)

// registry decodes the envelope bodies exchanged between replicas.
var registry = func() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(tagPrePrepare, "pre-prepare", func() wire.Message { return new(prePrepare) })
	r.Register(tagPrepare, "prepare", func() wire.Message { return new(prepare) })
	r.Register(tagCommit, "commit", func() wire.Message { return new(commit) })
	r.Register(tagCheckpoint, "checkpoint", func() wire.Message { return new(checkpointMsg) })
	r.Register(tagViewChange, "view-change", func() wire.Message { return new(viewChange) })
	r.Register(tagNewView, "new-view", func() wire.Message { return new(newView) })
	r.Register(tagStatusRequest, "status-request", func() wire.Message { return new(statusRequest) })
	r.Register(tagStatusReply, "status-reply", func() wire.Message { return new(statusReply) })
	r.Register(tagVoteRequest, "vote-request", func() wire.Message { return new(voteRequest) })
	r.Register(tagSuspicion, "suspicion", func() wire.Message { return new(suspicion) })
	return r
}()

// signedRaw is an authenticated message envelope: the encoded frame
// (tag + body) together with the sender and either a signature or a
// MAC vector over the frame. Storing the raw bytes rather than the
// decoded struct lets proofs (prepared certificates, checkpoint
// certificates, view-change sets) be embedded in other messages and
// re-verified downstream.
//
// A signature makes the raw transferable: any third party can
// re-verify it, so only signed raws may contribute to prepared proofs,
// checkpoint certificates and view-change quorums. A MAC vector is
// evidence to its direct verifier only — each group member checks just
// its own entry — but because the vector carries an entry for every
// member, a relayed MAC raw (a commit certificate in a status reply)
// still convinces any group member that verifies its own entry: the
// relayer cannot forge entries for pairs it does not belong to.
type signedRaw struct {
	From   ids.NodeID
	Frame  []byte
	Sig    []byte
	MACVec [][]byte
}

// transferable reports whether this raw may be embedded in a proof
// that third parties must re-verify.
func (s *signedRaw) transferable() bool { return len(s.Sig) > 0 }

func (s *signedRaw) MarshalWire(w *wire.Writer) {
	w.WriteNode(s.From)
	w.WriteBytes(s.Frame)
	w.WriteBytes(s.Sig)
	w.WriteBytesList(s.MACVec)
}

func (s *signedRaw) UnmarshalWire(r *wire.Reader) {
	s.From = r.ReadNode()
	s.Frame = r.ReadBytes()
	s.Sig = r.ReadBytes()
	s.MACVec = r.ReadBytesList()
}

func writeRawSlice(w *wire.Writer, raws []signedRaw) {
	w.WriteInt(len(raws))
	for i := range raws {
		raws[i].MarshalWire(w)
	}
}

func readRawSlice(r *wire.Reader) []signedRaw {
	n := r.ReadInt()
	if n < 0 || n > 1<<16 {
		return nil
	}
	out := make([]signedRaw, n)
	for i := range out {
		out[i].UnmarshalWire(r)
	}
	return out
}

// prePrepare proposes a batch of payloads for a sequence number in a
// view. An empty batch is a null operation used to fill gaps during
// view changes.
type prePrepare struct {
	View     uint64
	Seq      uint64
	Payloads [][]byte
}

func (m *prePrepare) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.View)
	w.WriteUint64(m.Seq)
	w.WriteInt(len(m.Payloads))
	for _, p := range m.Payloads {
		w.WriteBytes(p)
	}
}

func (m *prePrepare) UnmarshalWire(r *wire.Reader) {
	m.View = r.ReadUint64()
	m.Seq = r.ReadUint64()
	n := r.ReadInt()
	if n < 0 || n > 1<<16 {
		return
	}
	m.Payloads = make([][]byte, n)
	for i := range m.Payloads {
		m.Payloads[i] = r.ReadBytes()
	}
}

// decodePrePrepare decodes a raw's frame as a pre-prepare; nil if it is
// not one.
func decodePrePrepare(raw *signedRaw) *prePrepare {
	tag, msg, err := registry.DecodeFrame(raw.Frame)
	if err != nil || tag != tagPrePrepare {
		return nil
	}
	return msg.(*prePrepare)
}

// batchDigest canonically hashes a batch's payloads. It deliberately
// excludes the view so a batch re-proposed after a view change keeps
// its digest.
func batchDigest(payloads [][]byte) crypto.Digest {
	return batchDigestOf(payloadDigests(payloads))
}

// payloadDigests hashes each payload of a batch once; replicas cache
// the result on the log entry so proposal, duplicate tracking,
// delivery and garbage collection share one SHA-256 pass per payload
// instead of re-hashing at every stage.
func payloadDigests(payloads [][]byte) []crypto.Digest {
	if len(payloads) == 0 {
		return nil
	}
	out := make([]crypto.Digest, len(payloads))
	for i, p := range payloads {
		out[i] = crypto.Hash(p)
	}
	return out
}

// batchDigestOf computes the batch digest from per-payload digests;
// batchDigest delegates here, so there is a single definition of the
// digest encoding.
func batchDigestOf(digests []crypto.Digest) crypto.Digest {
	w := wire.GetWriter()
	w.WriteInt(len(digests))
	for i := range digests {
		w.WriteRaw(digests[i][:])
	}
	d := crypto.Hash(w.Bytes())
	wire.PutWriter(w)
	return d
}

// prepare endorses the batch digest proposed for (view, seq).
type prepare struct {
	View   uint64
	Seq    uint64
	Digest crypto.Digest
}

func (m *prepare) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.View)
	w.WriteUint64(m.Seq)
	w.WriteRaw(m.Digest[:])
}

func (m *prepare) UnmarshalWire(r *wire.Reader) {
	m.View = r.ReadUint64()
	m.Seq = r.ReadUint64()
	copy(m.Digest[:], r.ReadRaw(crypto.DigestSize))
}

// commit announces that the sender holds a prepared certificate for
// (view, seq, digest).
type commit struct {
	View   uint64
	Seq    uint64
	Digest crypto.Digest
}

func (m *commit) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.View)
	w.WriteUint64(m.Seq)
	w.WriteRaw(m.Digest[:])
}

func (m *commit) UnmarshalWire(r *wire.Reader) {
	m.View = r.ReadUint64()
	m.Seq = r.ReadUint64()
	copy(m.Digest[:], r.ReadRaw(crypto.DigestSize))
}

// checkpointMsg announces that the sender delivered every batch up to
// BatchSeq, having emitted global sequence numbers up to GlobalSeq,
// with the given delivery chain digest. 2f+1 matching messages form a
// stable checkpoint: the low watermark advances and older log entries
// are discarded.
type checkpointMsg struct {
	BatchSeq  uint64
	GlobalSeq uint64
	Chain     crypto.Digest
}

func (m *checkpointMsg) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.BatchSeq)
	w.WriteUint64(m.GlobalSeq)
	w.WriteRaw(m.Chain[:])
}

func (m *checkpointMsg) UnmarshalWire(r *wire.Reader) {
	m.BatchSeq = r.ReadUint64()
	m.GlobalSeq = r.ReadUint64()
	copy(m.Chain[:], r.ReadRaw(crypto.DigestSize))
}

// preparedProof certifies that a batch was prepared: the original
// pre-prepare (signed by the proposer of its view) plus prepare
// signatures that, together with the proposer, form a quorum.
type preparedProof struct {
	PrePrepare signedRaw
	Prepares   []signedRaw
}

func (m *preparedProof) MarshalWire(w *wire.Writer) {
	m.PrePrepare.MarshalWire(w)
	writeRawSlice(w, m.Prepares)
}

func (m *preparedProof) UnmarshalWire(r *wire.Reader) {
	m.PrePrepare.UnmarshalWire(r)
	m.Prepares = readRawSlice(r)
}

// viewChange asks to install NewView. It carries the sender's stable
// checkpoint (with certificate) and a prepared proof for every batch
// above the checkpoint the sender prepared.
type viewChange struct {
	NewView      uint64
	StableBatch  uint64
	StableGlobal uint64
	StableChain  crypto.Digest
	StableProof  []signedRaw
	Prepared     []preparedProof
}

func (m *viewChange) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.NewView)
	w.WriteUint64(m.StableBatch)
	w.WriteUint64(m.StableGlobal)
	w.WriteRaw(m.StableChain[:])
	writeRawSlice(w, m.StableProof)
	w.WriteInt(len(m.Prepared))
	for i := range m.Prepared {
		m.Prepared[i].MarshalWire(w)
	}
}

func (m *viewChange) UnmarshalWire(r *wire.Reader) {
	m.NewView = r.ReadUint64()
	m.StableBatch = r.ReadUint64()
	m.StableGlobal = r.ReadUint64()
	copy(m.StableChain[:], r.ReadRaw(crypto.DigestSize))
	m.StableProof = readRawSlice(r)
	n := r.ReadInt()
	if n < 0 || n > 1<<16 {
		return
	}
	m.Prepared = make([]preparedProof, n)
	for i := range m.Prepared {
		m.Prepared[i].UnmarshalWire(r)
	}
}

// newView installs a view: the quorum of view-change messages that
// justifies it and the pre-prepares the new leader re-issues for
// batches that may have committed in earlier views. Each re-issued
// pre-prepare is individually signed by the new leader so it remains a
// transferable proof in subsequent view changes.
type newView struct {
	View        uint64
	ViewChanges []signedRaw
	PrePrepares []signedRaw
}

func (m *newView) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.View)
	writeRawSlice(w, m.ViewChanges)
	writeRawSlice(w, m.PrePrepares)
}

func (m *newView) UnmarshalWire(r *wire.Reader) {
	m.View = r.ReadUint64()
	m.ViewChanges = readRawSlice(r)
	m.PrePrepares = readRawSlice(r)
}

// Vote kinds a voteRequest may ask for.
const (
	voteKindPrepare uint8 = iota + 1
	voteKindCommit
)

// voteRequest asks a peer to re-issue one of its normal-case votes as
// a signed message. It is the MAC fast path's fallback: a receiver
// that cannot verify a MAC-vector entry (corrupted, truncated, or
// replayed under the wrong view) drops the frame and requests a signed
// copy instead of stalling, and the view-change proof-upgrade round
// uses the same re-issued votes to rebuild transferable prepared
// proofs from MAC-authenticated state.
type voteRequest struct {
	Kind uint8
	View uint64
	Seq  uint64
}

func (m *voteRequest) MarshalWire(w *wire.Writer) {
	w.WriteU8(m.Kind)
	w.WriteUint64(m.View)
	w.WriteUint64(m.Seq)
}

func (m *voteRequest) UnmarshalWire(r *wire.Reader) {
	m.Kind = r.ReadU8()
	m.View = r.ReadUint64()
	m.Seq = r.ReadUint64()
}

// suspicion tells the group that a payload the sender Ordered has waited
// out the failure detector's timeout in View. One changes nothing: f+1
// of them start a view change (core.handleSuspicion).
type suspicion struct {
	View uint64
}

func (m *suspicion) MarshalWire(w *wire.Writer)   { w.WriteUint64(m.View) }
func (m *suspicion) UnmarshalWire(r *wire.Reader) { m.View = r.ReadUint64() }

// statusRequest asks peers for catch-up help: the sender has delivered
// batches below NextDeliver and wants newer checkpoint proofs plus any
// commit certificates it is missing.
type statusRequest struct {
	NextDeliver uint64
}

func (m *statusRequest) MarshalWire(w *wire.Writer) { w.WriteUint64(m.NextDeliver) }
func (m *statusRequest) UnmarshalWire(r *wire.Reader) {
	m.NextDeliver = r.ReadUint64()
}

// committedEntry is a self-contained commit certificate for one batch:
// the signed pre-prepare plus a quorum of signed commits.
type committedEntry struct {
	PrePrepare signedRaw
	Commits    []signedRaw
}

func (m *committedEntry) MarshalWire(w *wire.Writer) {
	m.PrePrepare.MarshalWire(w)
	writeRawSlice(w, m.Commits)
}

func (m *committedEntry) UnmarshalWire(r *wire.Reader) {
	m.PrePrepare.UnmarshalWire(r)
	m.Commits = readRawSlice(r)
}

// statusReply carries the responder's latest stable checkpoint
// certificate, commit certificates for batches the requester is
// missing, and the new-view envelope that installed the responder's
// current view (so a laggard stuck in an old view can adopt it; the
// envelope is self-certifying since it embeds the view-change quorum).
type statusReply struct {
	StableBatch  uint64
	StableGlobal uint64
	StableChain  crypto.Digest
	StableProof  []signedRaw
	Entries      []committedEntry
	NewViewEnv   []byte
}

func (m *statusReply) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.StableBatch)
	w.WriteUint64(m.StableGlobal)
	w.WriteRaw(m.StableChain[:])
	writeRawSlice(w, m.StableProof)
	w.WriteInt(len(m.Entries))
	for i := range m.Entries {
		m.Entries[i].MarshalWire(w)
	}
	w.WriteBytes(m.NewViewEnv)
}

func (m *statusReply) UnmarshalWire(r *wire.Reader) {
	m.StableBatch = r.ReadUint64()
	m.StableGlobal = r.ReadUint64()
	copy(m.StableChain[:], r.ReadRaw(crypto.DigestSize))
	m.StableProof = readRawSlice(r)
	n := r.ReadInt()
	if n < 0 || n > 1<<16 {
		return
	}
	m.Entries = make([]committedEntry, n)
	for i := range m.Entries {
		m.Entries[i].UnmarshalWire(r)
	}
	m.NewViewEnv = r.ReadBytes()
}
