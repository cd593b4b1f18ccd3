// Package core implements Spider, the paper's primary contribution: a
// BFT geo-replication architecture composed of one agreement group and
// any number of execution groups, connected exclusively through
// inter-regional message channels. The three roles follow the pseudo
// code of the extended paper: clients (Figure 15), execution replicas
// (Figure 16), and agreement replicas (Figure 17).
package core

import (
	"fmt"
	"sort"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/wire"
)

// RequestKind distinguishes the operation classes of Section 3.3.
type RequestKind uint8

// Request kinds.
const (
	KindWrite      RequestKind = iota + 1 // agreed, executed everywhere
	KindStrongRead                        // agreed, executed at the designated group
	KindWeakRead                          // answered locally, no agreement
	KindAdmin                             // reconfiguration command (Section 3.6)
)

// String names the kind for diagnostics.
func (k RequestKind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindStrongRead:
		return "strong-read"
	case KindWeakRead:
		return "weak-read"
	case KindAdmin:
		return "admin"
	default:
		return "unknown"
	}
}

// ClientRequest is the message a client submits to its execution
// group: ⟨Write, w, c, tc⟩ in the paper, generalized over kinds. The
// client's signature covers kind, identity, counter, and operation;
// transport-level MACs are added per replica.
type ClientRequest struct {
	Kind    RequestKind
	Client  ids.ClientID
	Counter uint64
	Op      []byte
	Sig     []byte
}

// SigPayload returns the bytes the client signature covers.
func (r *ClientRequest) SigPayload() []byte {
	var w wire.Writer
	w.WriteU8(byte(r.Kind))
	w.WriteClient(r.Client)
	w.WriteUint64(r.Counter)
	w.WriteBytes(r.Op)
	return w.Bytes()
}

// MarshalWire implements wire.Marshaler.
func (r *ClientRequest) MarshalWire(w *wire.Writer) {
	w.WriteU8(byte(r.Kind))
	w.WriteClient(r.Client)
	w.WriteUint64(r.Counter)
	w.WriteBytes(r.Op)
	w.WriteBytes(r.Sig)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ClientRequest) UnmarshalWire(rd *wire.Reader) {
	r.Kind = RequestKind(rd.ReadU8())
	r.Client = rd.ReadClient()
	r.Counter = rd.ReadUint64()
	r.Op = rd.ReadBytes()
	r.Sig = rd.ReadBytes()
}

// WrappedRequest is ⟨Request, r, e⟩: a client request wrapped with the
// execution group that forwarded it (the designated group for strong
// reads).
type WrappedRequest struct {
	Req   ClientRequest
	Group ids.GroupID
}

// MarshalWire implements wire.Marshaler.
func (r *WrappedRequest) MarshalWire(w *wire.Writer) {
	r.Req.MarshalWire(w)
	w.WriteGroup(r.Group)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *WrappedRequest) UnmarshalWire(rd *wire.Reader) {
	r.Req.UnmarshalWire(rd)
	r.Group = rd.ReadGroup()
}

// Item kinds on the wire. Placeholder (0) and full (1) match the
// historical bool encoding of this frame. Kind 2 is reserved: older
// builds sent it as a by-digest reference, and it must not be reused,
// so that such a frame fails to decode like any unknown kind.
const (
	itemPlaceholder byte = 0
	itemFull        byte = 1
)

// ExecuteItem is one request slot of an ExecuteBatchMsg: a full
// request (⟨Execute, r, s⟩ in the paper), the placeholder variant
// (client and counter only) that non-designated groups receive for
// strong reads, or — when neither Full nor a valid Client is set — a
// no-op slot that only consumes its sequence number.
type ExecuteItem struct {
	Full    bool
	Req     WrappedRequest // set when Full
	Client  ids.ClientID   // placeholder fields when not Full
	Counter uint64
}

// MarshalWire implements wire.Marshaler.
func (m *ExecuteItem) MarshalWire(w *wire.Writer) {
	switch {
	case m.Full:
		w.WriteU8(itemFull)
		m.Req.MarshalWire(w)
	default:
		w.WriteU8(itemPlaceholder)
		w.WriteClient(m.Client)
		w.WriteUint64(m.Counter)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ExecuteItem) UnmarshalWire(rd *wire.Reader) {
	switch kind := rd.ReadU8(); kind {
	case itemFull:
		m.Full = true
		m.Req.UnmarshalWire(rd)
	case itemPlaceholder:
		m.Client = rd.ReadClient()
		m.Counter = rd.ReadUint64()
	default:
		rd.Poison("unknown execute item kind")
	}
}

// MaxBatchItems bounds the requests one commit-channel position may
// carry. It is far above any sane consensus batch size; its job is to
// make oversized (or length-corrupted) batches fail decoding instead
// of provoking huge allocations.
const MaxBatchItems = 4096

// ExecuteBatchMsg is the commit-channel payload: every Execute of one
// consensus batch travels in a single subchannel position, so the
// per-position costs — one MAC'd Send per execution group, one window
// step, one wide-area frame — are paid once per batch instead of once
// per request. Item i carries the request agreed at sequence number
// Start+i; an empty Items slice announces a null batch (a view change
// filled a pipeline gap) whose position must still be consumed.
type ExecuteBatchMsg struct {
	Start ids.SeqNr
	Items []ExecuteItem
}

// End returns the sequence number of the last item, or Start-1 when
// the batch is empty.
func (m *ExecuteBatchMsg) End() ids.SeqNr {
	return m.Start + ids.SeqNr(len(m.Items)) - 1
}

// MarshalWire implements wire.Marshaler.
func (m *ExecuteBatchMsg) MarshalWire(w *wire.Writer) {
	w.WriteSeq(m.Start)
	w.WriteInt(len(m.Items))
	for i := range m.Items {
		m.Items[i].MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ExecuteBatchMsg) UnmarshalWire(rd *wire.Reader) {
	m.Start = rd.ReadSeq()
	n := rd.ReadInt()
	if n < 0 || n > MaxBatchItems {
		// Poison the reader so the oversized claim fails Decode rather
		// than silently yielding an empty batch.
		rd.Poison("oversized batch item count")
		return
	}
	m.Items = make([]ExecuteItem, n)
	for i := range m.Items {
		m.Items[i].UnmarshalWire(rd)
	}
}

// Reply is ⟨Result, u, tc⟩ from an execution replica to the client.
type Reply struct {
	Counter uint64
	Result  []byte
}

// MarshalWire implements wire.Marshaler.
func (m *Reply) MarshalWire(w *wire.Writer) {
	w.WriteUint64(m.Counter)
	w.WriteBytes(m.Result)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Reply) UnmarshalWire(rd *wire.Reader) {
	m.Counter = rd.ReadUint64()
	m.Result = rd.ReadBytes()
}

// AdminKind distinguishes reconfiguration commands.
type AdminKind uint8

// Admin operations (Section 3.6).
const (
	AdminAddGroup AdminKind = iota + 1
	AdminRemoveGroup
)

// AdminOp is the payload of a KindAdmin request: ⟨AddGroup, e, E⟩ or
// ⟨RemoveGroup, e⟩.
type AdminOp struct {
	Kind   AdminKind
	Group  ids.Group // full membership for AddGroup; only ID matters for removal
	Region string    // registry annotation: where the group lives
}

// MarshalWire implements wire.Marshaler.
func (m *AdminOp) MarshalWire(w *wire.Writer) {
	w.WriteU8(byte(m.Kind))
	w.WriteGroup(m.Group.ID)
	w.WriteInt(m.Group.F)
	w.WriteInt(len(m.Group.Members))
	for _, n := range m.Group.Members {
		w.WriteNode(n)
	}
	w.WriteString(m.Region)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *AdminOp) UnmarshalWire(rd *wire.Reader) {
	m.Kind = AdminKind(rd.ReadU8())
	m.Group.ID = rd.ReadGroup()
	m.Group.F = rd.ReadInt()
	n := rd.ReadInt()
	if n < 0 || n > 1<<10 {
		return
	}
	m.Group.Members = make([]ids.NodeID, n)
	for i := range m.Group.Members {
		m.Group.Members[i] = rd.ReadNode()
	}
	m.Region = rd.ReadString()
}

// EncodeAdminOp serializes an admin operation for use as a request Op.
func EncodeAdminOp(op AdminOp) []byte { return wire.Encode(&op) }

// DecodeAdminOp parses an admin operation.
func DecodeAdminOp(b []byte) (AdminOp, error) {
	var op AdminOp
	if err := wire.Decode(b, &op); err != nil {
		return AdminOp{}, fmt.Errorf("core: decode admin op: %w", err)
	}
	return AdminOp{Kind: op.Kind, Group: op.Group.Clone(), Region: op.Region}, nil
}

// GroupEntry is one execution-replica registry record.
type GroupEntry struct {
	Group  ids.Group
	Region string
}

// RegistryQuery asks an agreement replica for the current registry.
type RegistryQuery struct {
	Client ids.ClientID
}

// MarshalWire implements wire.Marshaler.
func (m *RegistryQuery) MarshalWire(w *wire.Writer) { w.WriteClient(m.Client) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *RegistryQuery) UnmarshalWire(rd *wire.Reader) { m.Client = rd.ReadClient() }

// RegistryInfo is one agreement replica's view of the registry. A
// client accepts a registry after fa+1 replicas report identical
// contents.
type RegistryInfo struct {
	Seq     ids.SeqNr // agreement sequence number the view reflects
	Entries []GroupEntry
}

// MarshalWire implements wire.Marshaler.
func (m *RegistryInfo) MarshalWire(w *wire.Writer) {
	w.WriteSeq(m.Seq)
	w.WriteInt(len(m.Entries))
	for _, e := range m.Entries {
		w.WriteGroup(e.Group.ID)
		w.WriteInt(e.Group.F)
		w.WriteInt(len(e.Group.Members))
		for _, n := range e.Group.Members {
			w.WriteNode(n)
		}
		w.WriteString(e.Region)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *RegistryInfo) UnmarshalWire(rd *wire.Reader) {
	m.Seq = rd.ReadSeq()
	n := rd.ReadInt()
	if n < 0 || n > 1<<10 {
		return
	}
	m.Entries = make([]GroupEntry, n)
	for i := range m.Entries {
		m.Entries[i].Group.ID = rd.ReadGroup()
		m.Entries[i].Group.F = rd.ReadInt()
		k := rd.ReadInt()
		if k < 0 || k > 1<<10 {
			return
		}
		m.Entries[i].Group.Members = make([]ids.NodeID, k)
		for j := range m.Entries[i].Group.Members {
			m.Entries[i].Group.Members[j] = rd.ReadNode()
		}
		m.Entries[i].Region = rd.ReadString()
	}
}

// Message tags for client <-> replica traffic.
const (
	tagRequest wire.TypeTag = iota + 1
	tagReply
	tagRegistryQuery
	tagRegistryInfo
)

var clientRegistry = func() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(tagRequest, "request", func() wire.Message { return new(ClientRequest) })
	r.Register(tagReply, "reply", func() wire.Message { return new(Reply) })
	r.Register(tagRegistryQuery, "registry-query", func() wire.Message { return new(RegistryQuery) })
	r.Register(tagRegistryInfo, "registry-info", func() wire.Message { return new(RegistryInfo) })
	return r
}()

// macEnvelope wraps client <-> replica frames with a pairwise MAC, as
// the paper prescribes for this traffic class (HMACs, Section 3.3).
type macEnvelope struct {
	From  ids.NodeID
	Frame []byte
	MAC   []byte
}

func (e *macEnvelope) MarshalWire(w *wire.Writer) {
	w.WriteNode(e.From)
	w.WriteBytes(e.Frame)
	w.WriteBytes(e.MAC)
}

func (e *macEnvelope) UnmarshalWire(rd *wire.Reader) {
	e.From = rd.ReadNode()
	e.Frame = rd.ReadBytes()
	e.MAC = rd.ReadBytes()
}

// sealClientFrame MACs a frame for one recipient.
func sealClientFrame(suite crypto.Suite, d crypto.Domain, frame []byte, to ids.NodeID) []byte {
	env := macEnvelope{From: suite.Node(), Frame: frame, MAC: suite.MAC(to, d, frame)}
	return wire.Encode(&env)
}

// openClientFrame verifies and decodes a client-traffic envelope.
func openClientFrame(suite crypto.Suite, d crypto.Domain, from ids.NodeID, payload []byte) (wire.TypeTag, wire.Message, error) {
	var env macEnvelope
	if err := wire.Decode(payload, &env); err != nil {
		return 0, nil, err
	}
	if env.From != from {
		return 0, nil, fmt.Errorf("core: envelope from %v via %v", env.From, from)
	}
	if err := suite.VerifyMAC(from, d, env.Frame, env.MAC); err != nil {
		return 0, nil, err
	}
	return clientRegistry.DecodeFrame(env.Frame)
}

// OpenClientRequest verifies a client-traffic envelope and returns the
// contained request. It checks the MAC and that the request's author
// matches the transport sender; the signature check is the caller's
// (it is only needed for requests that reach agreement). The baseline
// systems share this client protocol.
func OpenClientRequest(suite crypto.Suite, from ids.NodeID, payload []byte) (*ClientRequest, error) {
	tag, msg, err := openClientFrame(suite, crypto.DomainClientRequest, from, payload)
	if err != nil {
		return nil, err
	}
	if tag != tagRequest {
		return nil, fmt.Errorf("core: unexpected tag %d", tag)
	}
	req := msg.(*ClientRequest)
	if req.Client.Node() != from {
		return nil, fmt.Errorf("core: request by %v arrived from %v", req.Client, from)
	}
	return req, nil
}

// SendReply MACs and sends a reply to a client's inbox stream.
func SendReply(suite crypto.Suite, node transport.Node, client ids.ClientID, counter uint64, result []byte) {
	reply := &Reply{Counter: counter, Result: result}
	frame := clientRegistry.EncodeFrame(tagReply, reply)
	env := sealClientFrame(suite, crypto.DomainReply, frame, client.Node())
	node.Send(client.Node(), replyStream(), env)
}

// --- snapshots ------------------------------------------------------------

// replyCacheEntry is u[c]: the latest reply (or strong-read
// placeholder) per client.
type replyCacheEntry struct {
	Counter     uint64
	Result      []byte
	Placeholder bool
}

// execSnapshot is the execution checkpoint content: the reply cache
// plus the application snapshot (Section 3.4). NextPos is the commit
// channel position of the first batch NOT covered by the snapshot;
// commit positions count batches, so a replica restoring this snapshot
// resumes receiving there. It is identical across groups (every commit
// channel carries the same batches at the same positions), which is
// what lets a joining group adopt another group's checkpoint.
type execSnapshot struct {
	Seq     ids.SeqNr
	NextPos ids.Position
	Replies map[ids.ClientID]replyCacheEntry
	App     []byte
}

func (s *execSnapshot) MarshalWire(w *wire.Writer) {
	w.WriteSeq(s.Seq)
	w.WritePos(s.NextPos)
	clients := make([]ids.ClientID, 0, len(s.Replies))
	for c := range s.Replies {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	w.WriteInt(len(clients))
	for _, c := range clients {
		e := s.Replies[c]
		w.WriteClient(c)
		w.WriteUint64(e.Counter)
		w.WriteBytes(e.Result)
		w.WriteBool(e.Placeholder)
	}
	w.WriteBytes(s.App)
}

func (s *execSnapshot) UnmarshalWire(rd *wire.Reader) {
	s.Seq = rd.ReadSeq()
	s.NextPos = rd.ReadPos()
	n := rd.ReadInt()
	if n < 0 || n > 1<<22 {
		return
	}
	s.Replies = make(map[ids.ClientID]replyCacheEntry, n)
	for i := 0; i < n; i++ {
		c := rd.ReadClient()
		s.Replies[c] = replyCacheEntry{
			Counter:     rd.ReadUint64(),
			Result:      rd.ReadBytes(),
			Placeholder: rd.ReadBool(),
		}
	}
	s.App = rd.ReadBytes()
}

// histEntry is one remembered batch of Executes: its commit-channel
// position, the sequence number of its first request, and the ordered
// requests — enough to rebuild the per-group commit-channel payloads
// for a resend after a checkpoint adoption. A request slot whose
// client id is invalid marks a no-op (a payload that failed to decode
// at delivery; see AgreementReplica.deliver).
type histEntry struct {
	Pos   ids.Position
	Start ids.SeqNr
	Reqs  []WrappedRequest
}

// end returns the sequence number of the entry's last request.
func (h *histEntry) end() ids.SeqNr {
	return h.Start + ids.SeqNr(len(h.Reqs)) - 1
}

func (h *histEntry) MarshalWire(w *wire.Writer) {
	w.WritePos(h.Pos)
	w.WriteSeq(h.Start)
	w.WriteInt(len(h.Reqs))
	for i := range h.Reqs {
		h.Reqs[i].MarshalWire(w)
	}
}

func (h *histEntry) UnmarshalWire(rd *wire.Reader) {
	h.Pos = rd.ReadPos()
	h.Start = rd.ReadSeq()
	n := rd.ReadInt()
	if n < 0 || n > MaxBatchItems {
		rd.Poison("oversized hist entry") // oversized entries must not decode
		return
	}
	h.Reqs = make([]WrappedRequest, n)
	for i := range h.Reqs {
		h.Reqs[i].UnmarshalWire(rd)
	}
}

// agreementSnapshot is the agreement checkpoint content: the counter
// vector t, the batch history covering the commit-channel capacity,
// the next commit-channel position, and the execution-replica registry
// (so recovering replicas know the current group set).
type agreementSnapshot struct {
	Seq     ids.SeqNr
	NextPos ids.Position
	T       map[ids.ClientID]uint64
	Hist    []histEntry
	Groups  []GroupEntry
}

func (s *agreementSnapshot) MarshalWire(w *wire.Writer) {
	w.WriteSeq(s.Seq)
	w.WritePos(s.NextPos)
	clients := make([]ids.ClientID, 0, len(s.T))
	for c := range s.T {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	w.WriteInt(len(clients))
	for _, c := range clients {
		w.WriteClient(c)
		w.WriteUint64(s.T[c])
	}
	w.WriteInt(len(s.Hist))
	for i := range s.Hist {
		s.Hist[i].MarshalWire(w)
	}
	info := RegistryInfo{Entries: s.Groups}
	w.WriteMessage(&info)
}

func (s *agreementSnapshot) UnmarshalWire(rd *wire.Reader) {
	s.Seq = rd.ReadSeq()
	s.NextPos = rd.ReadPos()
	n := rd.ReadInt()
	if n < 0 || n > 1<<22 {
		return
	}
	s.T = make(map[ids.ClientID]uint64, n)
	for i := 0; i < n; i++ {
		c := rd.ReadClient()
		s.T[c] = rd.ReadUint64()
	}
	h := rd.ReadInt()
	if h < 0 || h > 1<<20 {
		return
	}
	s.Hist = make([]histEntry, h)
	for i := range s.Hist {
		s.Hist[i].UnmarshalWire(rd)
	}
	var info RegistryInfo
	rd.ReadMessage(&info)
	s.Groups = info.Entries
}
