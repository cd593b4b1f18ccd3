package crypto

import (
	"fmt"

	"spider/internal/ids"
)

// AuthKind tags how a protocol frame is authenticated.
type AuthKind uint8

// Authentication kinds.
const (
	// AuthSignature authenticates a frame with the sender's signature:
	// expensive to produce, but transferable — any third party holding
	// the directory can re-verify it, so signed frames may be embedded
	// in certificates and proofs.
	AuthSignature AuthKind = iota + 1
	// AuthMACVector authenticates a frame with one HMAC per group
	// member (PBFT's "authenticator"): cheap symmetric crypto, but each
	// receiver can only check its own entry, and any holder of a
	// pairwise key could have forged that entry. MAC-vector frames are
	// valid evidence only to their direct verifier, never inside
	// transferable proofs.
	AuthMACVector
)

// String names the kind for logs and errors.
func (k AuthKind) String() string {
	switch k {
	case AuthSignature:
		return "signature"
	case AuthMACVector:
		return "mac-vector"
	default:
		return "unauthenticated"
	}
}

// GroupAuthenticator produces and checks frame authentication within a
// fixed group of nodes under one signing domain. It is the seam that
// lets a protocol switch its normal-case messages between signatures
// and MAC vectors without touching message flow. Implementations are
// safe for concurrent use: every peer's delivery goroutine verifies
// with the same one.
type GroupAuthenticator interface {
	// Kind reports which authentication this instance produces.
	Kind() AuthKind
	// Authenticate authenticates frame for the whole group, returning
	// (sig, nil) for signatures and (nil, vector) for MAC vectors.
	Authenticate(frame []byte) (sig []byte, vec [][]byte)
	// Verify checks frame's authentication material as produced by
	// from. Exactly one of sig and vec should be set; a signature is
	// checked against the directory, a MAC vector against this node's
	// own entry.
	Verify(from ids.NodeID, frame []byte, sig []byte, vec [][]byte) error
}

// signatureAuth implements GroupAuthenticator with plain signatures.
type signatureAuth struct {
	s Suite
	d Domain
}

// NewSignatureAuthenticator authenticates frames with s's signature
// under domain d.
func NewSignatureAuthenticator(s Suite, d Domain) GroupAuthenticator {
	return &signatureAuth{s: s, d: d}
}

func (a *signatureAuth) Kind() AuthKind { return AuthSignature }

func (a *signatureAuth) Authenticate(frame []byte) ([]byte, [][]byte) {
	return a.s.Sign(a.d, frame), nil
}

func (a *signatureAuth) Verify(from ids.NodeID, frame []byte, sig []byte, vec [][]byte) error {
	if len(sig) == 0 {
		return fmt.Errorf("%w: expected signature from %v", ErrBadSignature, from)
	}
	return a.s.Verify(from, a.d, frame, sig)
}

// macVectorAuth implements GroupAuthenticator with per-member HMAC
// vectors over a fixed member list in canonical order.
type macVectorAuth struct {
	s       Suite
	members []ids.NodeID
	d       Domain
}

// NewMACVectorAuthenticator authenticates frames to every member of
// the group with pairwise MACs under domain d. All endpoints must pass
// the same member order.
func NewMACVectorAuthenticator(s Suite, members []ids.NodeID, d Domain) GroupAuthenticator {
	return &macVectorAuth{s: s, members: append([]ids.NodeID(nil), members...), d: d}
}

func (a *macVectorAuth) Kind() AuthKind { return AuthMACVector }

func (a *macVectorAuth) Authenticate(frame []byte) ([]byte, [][]byte) {
	return nil, MACVector(a.s, a.members, a.d, frame)
}

func (a *macVectorAuth) Verify(from ids.NodeID, frame []byte, sig []byte, vec [][]byte) error {
	if len(vec) == 0 {
		return fmt.Errorf("%w: expected MAC vector from %v", ErrBadMAC, from)
	}
	return VerifyMACVector(a.s, from, a.members, a.d, frame, vec)
}
