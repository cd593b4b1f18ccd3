package irmc

import (
	"errors"
	"fmt"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/wire"
)

// Message type tags shared by the IRMC implementations.
const (
	TagSend wire.TypeTag = iota + 1
	TagMove
	TagSigShare
	TagCertificate
	TagProgress
	TagSelect
	TagResend
)

// NewRegistry builds the message registry for a channel endpoint.
func NewRegistry() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(TagSend, "send", func() wire.Message { return new(SendMsg) })
	r.Register(TagMove, "move", func() wire.Message { return new(MoveMsg) })
	r.Register(TagSigShare, "sig-share", func() wire.Message { return new(SigShareMsg) })
	r.Register(TagCertificate, "certificate", func() wire.Message { return new(CertificateMsg) })
	r.Register(TagProgress, "progress", func() wire.Message { return new(ProgressMsg) })
	r.Register(TagSelect, "select", func() wire.Message { return new(SelectMsg) })
	r.Register(TagResend, "resend", func() wire.Message { return new(ResendMsg) })
	return r
}

// SendMsg carries one message for a subchannel position (IRMC-RC).
// It is signed by the sender so receivers can count distinct vouchers.
type SendMsg struct {
	Subchannel ids.Subchannel
	Position   ids.Position
	Payload    []byte
}

// MarshalWire implements wire.Marshaler.
func (m *SendMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WritePos(m.Position)
	w.WriteBytes(m.Payload)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *SendMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.Position = r.ReadPos()
	m.Payload = r.ReadBytes()
}

// MoveMsg requests a subchannel window to start at Position.
type MoveMsg struct {
	Subchannel ids.Subchannel
	Position   ids.Position
}

// MarshalWire implements wire.Marshaler.
func (m *MoveMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WritePos(m.Position)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *MoveMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.Position = r.ReadPos()
}

// SigShareMsg is a sender's signed endorsement of message content for
// a subchannel position (IRMC-SC). The signature covers the share
// payload (digest, subchannel, position) and is transferable inside
// certificates.
type SigShareMsg struct {
	Subchannel ids.Subchannel
	Position   ids.Position
	Digest     crypto.Digest
	Sig        []byte // share signature by the announcing sender
}

// MarshalWire implements wire.Marshaler.
func (m *SigShareMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WritePos(m.Position)
	w.WriteRaw(m.Digest[:])
	w.WriteBytes(m.Sig)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *SigShareMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.Position = r.ReadPos()
	copy(m.Digest[:], r.ReadRaw(crypto.DigestSize))
	m.Sig = r.ReadBytes()
}

// SharePayload is the byte string a share signature covers.
func SharePayload(sc ids.Subchannel, p ids.Position, digest crypto.Digest) []byte {
	var w wire.Writer
	w.WriteSubchannel(sc)
	w.WritePos(p)
	w.WriteRaw(digest[:])
	return w.Bytes()
}

// ShareSig is one sender's share signature inside a certificate.
type ShareSig struct {
	Node ids.NodeID
	Sig  []byte
}

// CertificateMsg proves that fs+1 senders endorsed the payload for a
// subchannel position (IRMC-SC). A collector assembles and forwards
// it; any receiver can verify it without trusting the collector.
type CertificateMsg struct {
	Subchannel ids.Subchannel
	Position   ids.Position
	Payload    []byte
	Shares     []ShareSig
}

// MarshalWire implements wire.Marshaler.
func (m *CertificateMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WritePos(m.Position)
	w.WriteBytes(m.Payload)
	w.WriteInt(len(m.Shares))
	for _, s := range m.Shares {
		w.WriteNode(s.Node)
		w.WriteBytes(s.Sig)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *CertificateMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.Position = r.ReadPos()
	m.Payload = r.ReadBytes()
	n := r.ReadInt()
	if n < 0 || n > 1<<12 {
		return
	}
	m.Shares = make([]ShareSig, n)
	for i := range m.Shares {
		m.Shares[i].Node = r.ReadNode()
		m.Shares[i].Sig = r.ReadBytes()
	}
}

// ProgressMsg announces, per subchannel, the highest position through
// which the sender holds certificates without gaps (IRMC-SC). It lets
// receivers detect collectors that withhold certificates.
type ProgressMsg struct {
	Subchannels []ids.Subchannel
	Positions   []ids.Position
}

// MarshalWire implements wire.Marshaler.
func (m *ProgressMsg) MarshalWire(w *wire.Writer) {
	w.WriteInt(len(m.Subchannels))
	for i := range m.Subchannels {
		w.WriteSubchannel(m.Subchannels[i])
		w.WritePos(m.Positions[i])
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ProgressMsg) UnmarshalWire(r *wire.Reader) {
	n := r.ReadInt()
	if n < 0 || n > 1<<16 {
		return
	}
	m.Subchannels = make([]ids.Subchannel, n)
	m.Positions = make([]ids.Position, n)
	for i := 0; i < n; i++ {
		m.Subchannels[i] = r.ReadSubchannel()
		m.Positions[i] = r.ReadPos()
	}
}

// SelectMsg tells the sender group which collector the announcing
// receiver wants for a subchannel. Epoch increases with every switch
// so replayed selections cannot revert a newer choice.
type SelectMsg struct {
	Subchannel ids.Subchannel
	Collector  ids.NodeID
	Epoch      uint64
}

// MarshalWire implements wire.Marshaler.
func (m *SelectMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WriteNode(m.Collector)
	w.WriteUint64(m.Epoch)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *SelectMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.Collector = r.ReadNode()
	m.Epoch = r.ReadUint64()
}

// ResendMsg is a receiver's request (IRMC-RC with resend repair) that
// the sender re-transmit its retained Send envelopes for subchannel
// positions at or above From. Receivers issue it when a Receive has
// been blocked on an in-window, unresolved position for a full repair
// interval — the signature that the original Send multicast was lost
// (partition, crash, restart) rather than merely late.
type ResendMsg struct {
	Subchannel ids.Subchannel
	From       ids.Position
}

// MarshalWire implements wire.Marshaler.
func (m *ResendMsg) MarshalWire(w *wire.Writer) {
	w.WriteSubchannel(m.Subchannel)
	w.WritePos(m.From)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ResendMsg) UnmarshalWire(r *wire.Reader) {
	m.Subchannel = r.ReadSubchannel()
	m.From = r.ReadPos()
}

// Envelope is the on-wire frame of every IRMC message: the encoded
// frame plus authentication. Only Send envelopes carry a signature;
// everything else carries a pairwise MAC, as in the paper. That
// includes SigShare: what authenticates a share is the signature
// inside the message, which binds signer, subchannel, position and
// digest and is checked by every party that counts it (fellow senders
// before storing it, receivers inside the certificate). The envelope
// only tells the receiving sender who is talking, so a MAC suffices.
type Envelope struct {
	From  ids.NodeID
	Frame []byte
	Auth  []byte
}

// MarshalWire implements wire.Marshaler.
func (e *Envelope) MarshalWire(w *wire.Writer) {
	w.WriteNode(e.From)
	w.WriteBytes(e.Frame)
	w.WriteBytes(e.Auth)
}

// UnmarshalWire implements wire.Unmarshaler.
func (e *Envelope) UnmarshalWire(r *wire.Reader) {
	e.From = r.ReadNode()
	e.Frame = r.ReadBytes()
	e.Auth = r.ReadBytes()
}

// AuthDomain returns the signing/MAC domain for a message tag and
// whether the envelope is signed (true) or MAC'd (false).
func AuthDomain(tag wire.TypeTag) (crypto.Domain, bool, error) {
	switch tag {
	case TagSend:
		return crypto.DomainIRMCSend, true, nil
	case TagSigShare:
		return crypto.DomainIRMCShare, false, nil
	case TagMove:
		return crypto.DomainIRMCMove, false, nil
	case TagCertificate:
		return crypto.DomainIRMCCert, false, nil
	case TagProgress:
		return crypto.DomainIRMCProgress, false, nil
	case TagSelect:
		return crypto.DomainIRMCSelect, false, nil
	case TagResend:
		return crypto.DomainIRMCResend, false, nil
	default:
		return 0, false, fmt.Errorf("irmc: unknown tag %d", tag)
	}
}

// Seal builds an authenticated envelope for one recipient.
func Seal(suite crypto.Suite, tag wire.TypeTag, frame []byte, to ids.NodeID) ([]byte, error) {
	domain, signed, err := AuthDomain(tag)
	if err != nil {
		return nil, err
	}
	env := Envelope{From: suite.Node(), Frame: frame}
	if signed {
		env.Auth = suite.Sign(domain, frame)
	} else {
		env.Auth = suite.MAC(to, domain, frame)
	}
	return wire.Encode(&env), nil
}

// SealMulti builds MAC-authenticated envelopes for every recipient,
// marshaling the message exactly once: each recipient's envelope is
// assembled in a pooled writer (MAC into reused scratch) and costs one
// exactly-sized allocation. emit is called once per recipient with a
// slice the callee owns. The one signed tag, Send, is recipient
// independent and sealed once with Seal.
func SealMulti(suite crypto.Suite, tag wire.TypeTag, frame []byte, to []ids.NodeID, emit func(ids.NodeID, []byte)) error {
	domain, signed, err := AuthDomain(tag)
	if err != nil {
		return err
	}
	if signed {
		return fmt.Errorf("irmc: tag %d is signed, seal it once with Seal", tag)
	}
	ew := wire.GetWriter()
	var macScratch [crypto.DigestSize]byte
	e := Envelope{From: suite.Node(), Frame: frame}
	for _, r := range to {
		e.Auth = suite.MACAppend(r, domain, frame, macScratch[:0])
		ew.Reset()
		e.MarshalWire(ew)
		env := append([]byte(nil), ew.Bytes()...)
		emit(r, env)
	}
	wire.PutWriter(ew)
	return nil
}

// errUnwanted drops a frame its endpoint could no longer use.
var errUnwanted = errors.New("irmc: frame can no longer change anything")

// Open verifies an envelope received from `from` and returns the
// decoded message. The envelope is decoded zero-copy (its frame and
// auth fields alias payload, which the transport contract keeps
// immutable); the inner message is decoded with owning reads, so
// nothing the caller retains aliases the transport buffer.
func Open(suite crypto.Suite, reg *wire.Registry, from ids.NodeID, payload []byte) (wire.TypeTag, wire.Message, error) {
	return openWanted(suite, reg, from, payload, nil)
}

// openWanted is Open with the admission question (see OpenLanes) asked
// where it saves work: after the MAC check of a MAC'd envelope, before
// the signature check of a signed one.
func openWanted(suite crypto.Suite, reg *wire.Registry, from ids.NodeID, payload []byte,
	wanted func(wire.TypeTag, wire.Message) bool) (wire.TypeTag, wire.Message, error) {
	var env Envelope
	if err := wire.DecodeShared(payload, &env); err != nil {
		return 0, nil, err
	}
	if env.From != from {
		return 0, nil, fmt.Errorf("irmc: envelope from %v arrived via %v", env.From, from)
	}
	if len(env.Frame) == 0 {
		return 0, nil, fmt.Errorf("irmc: empty frame")
	}
	tag := wire.TypeTag(env.Frame[0])
	domain, signed, err := AuthDomain(tag)
	if err != nil {
		return 0, nil, err
	}
	if !signed {
		if err := suite.VerifyMAC(from, domain, env.Frame, env.Auth); err != nil {
			return 0, nil, err
		}
	}
	tag, msg, err := reg.DecodeFrame(env.Frame)
	if err != nil {
		return 0, nil, err
	}
	if wanted != nil && !wanted(tag, msg) {
		return 0, nil, errUnwanted
	}
	if signed {
		if err := suite.Verify(from, domain, env.Frame, env.Auth); err != nil {
			return 0, nil, err
		}
	}
	return tag, msg, nil
}
