// Package crypto provides the authentication primitives used throughout
// the reproduction, mirroring the paper's two choices (Section 5):
// signatures where a message must convince a third party — client
// requests, IRMC-SC signature shares and certificates, checkpoint and
// view-change proofs, and PBFT when it runs signed — and HMAC-SHA-256
// MACs everywhere else, IRMC envelopes and PBFT's MAC vectors included.
// Signatures are RSA-1024 as in the paper's evaluation, Ed25519, or an
// insecure HMAC stand-in for tests; one suite implementation serves all
// three, and only its signing step differs by kind.
//
// Every signing and MAC operation is bound to a Domain so that bytes
// signed in one protocol context can never be replayed in another.
// Suites share a public-key directory; pairwise MAC keys are derived
// from a deployment master secret (standing in for the key exchange a
// production deployment would run).
package crypto

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"spider/internal/ids"
)

// DigestSize is the size of a message digest in bytes (SHA-256).
const DigestSize = sha256.Size

// Digest is a SHA-256 hash of an encoded message.
type Digest [DigestSize]byte

// Hash digests raw bytes.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// String returns a short hexadecimal prefix for logging.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// Domain separates signing contexts. A signature produced under one
// domain never verifies under another, even for identical message
// bytes. All domains are declared here to rule out collisions between
// protocol packages.
type Domain uint8

// Signing and MAC domains used by the protocol packages.
const (
	DomainClientRequest Domain = iota + 1 // client Write/Read signatures
	DomainReply                           // execution replica -> client replies
	DomainIRMCSend                        // IRMC-RC Send messages
	DomainIRMCMove                        // IRMC Move window updates
	DomainIRMCShare                       // IRMC-SC SigShare messages
	DomainIRMCCert                        // IRMC-SC Certificate messages
	DomainIRMCProgress                    // IRMC-SC Progress messages
	DomainIRMCSelect                      // IRMC-SC collector selection
	DomainCheckpoint                      // checkpoint component messages
	DomainPBFT                            // PBFT protocol messages
	DomainHFTGlobal                       // HFT global protocol (threshold shares)
	DomainIRMCResend                      // IRMC-RC resend requests (window-loss repair)
)

// Errors returned by verification.
var (
	ErrBadSignature = errors.New("crypto: signature verification failed")
	ErrBadMAC       = errors.New("crypto: MAC verification failed")
	ErrUnknownNode  = errors.New("crypto: unknown node")
)

// Suite bundles the cryptographic identity of one node: its signing
// key, the shared public-key directory, and its pairwise MAC keys.
// Implementations are safe for concurrent use.
type Suite interface {
	// Node returns the identity this suite signs as.
	Node() ids.NodeID
	// Sign produces a signature over msg bound to domain d.
	Sign(d Domain, msg []byte) []byte
	// Verify checks that sig is signer's signature over msg under d.
	Verify(signer ids.NodeID, d Domain, msg, sig []byte) error
	// MAC authenticates msg to the single receiver `to` under d.
	MAC(to ids.NodeID, d Domain, msg []byte) []byte
	// MACAppend appends the MAC for (to, d, msg) to dst and returns
	// the extended slice. It is the allocation-free variant of MAC:
	// with a dst of sufficient capacity no allocation occurs.
	MACAppend(to ids.NodeID, d Domain, msg, dst []byte) []byte
	// VerifyMAC checks a MAC produced by `from` for this node under d.
	VerifyMAC(from ids.NodeID, d Domain, msg, mac []byte) error
}

// MACVector authenticates msg to every member of a group, as used by
// PBFT-style protocols: one MAC per member, in member order. Members
// equal to the sender get an empty entry.
//
// All MACs share one exactly-sized backing array and the underlying
// HMAC states are pooled per peer, so producing a whole vector costs
// two allocations (the entry headers and the backing) regardless of
// group size.
func MACVector(s Suite, members []ids.NodeID, d Domain, msg []byte) [][]byte {
	vec := make([][]byte, len(members))
	backing := make([]byte, 0, DigestSize*len(members))
	for i, m := range members {
		if m == s.Node() {
			continue
		}
		start := len(backing)
		backing = s.MACAppend(m, d, msg, backing)
		vec[i] = backing[start:len(backing):len(backing)]
	}
	return vec
}

// VerifyMACVector checks this node's entry of a MAC vector produced by
// from over members in canonical order.
func VerifyMACVector(s Suite, from ids.NodeID, members []ids.NodeID, d Domain, msg []byte, vec [][]byte) error {
	if len(vec) != len(members) {
		return fmt.Errorf("%w: vector size %d != group size %d", ErrBadMAC, len(vec), len(members))
	}
	for i, m := range members {
		if m == s.Node() {
			return s.VerifyMAC(from, d, msg, vec[i])
		}
	}
	return fmt.Errorf("%w: receiver %v not in group", ErrBadMAC, s.Node())
}
