package crypto

import (
	"crypto"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"sync"

	"spider/internal/ids"
)

// DefaultKeyBits matches the paper's evaluation setup (1024-bit RSA).
const DefaultKeyBits = 1024

// Ed25519SignatureSize is the fixed Ed25519 signature length (64 bytes,
// half of an RSA-1024 signature). Like SignatureSize it is a capacity
// hint only; signatures are length-prefixed on the wire.
const Ed25519SignatureSize = ed25519.SignatureSize

// suite implements Suite for every kind; only the signing step differs.
// key is an *rsa.PrivateKey or an ed25519.PrivateKey, and dir holds the
// matching public key of every node. With a nil key the suite is the
// insecure one: its signatures are HMACs under the master secret, which
// fail for tampered messages, wrong signers and wrong domains like real
// signatures do, but anyone holding the secret can forge any node's. It
// exists so that protocol-logic tests and latency-focused benchmarks
// are not dominated by signature cost. MACs are the pooled pairwise
// HMACs of macProvider for every kind.
type suite struct {
	node ids.NodeID
	key  crypto.Signer
	dir  map[ids.NodeID]crypto.PublicKey
	macs *macProvider
}

var _ Suite = (*suite)(nil)

// newSuite creates the suite for one node. All suites of a deployment
// must share the same directory and master secret. Pairwise MAC keys
// are derived on first contact with a peer.
func newSuite(node ids.NodeID, key crypto.Signer, dir map[ids.NodeID]crypto.PublicKey, master []byte) *suite {
	return &suite{node: node, key: key, dir: dir, macs: newMACProvider(node, master)}
}

// NewInsecureSuite returns a fast, non-Byzantine-secure suite for tests
// and benchmarks. All suites of a deployment must share masterSecret.
func NewInsecureSuite(node ids.NodeID, masterSecret []byte) Suite {
	return newSuite(node, nil, nil, masterSecret)
}

// payloadPool pools the scratch buffers of Sign and Verify. Entries
// grow to the largest payload they have carried and are reused as-is;
// consensus messages are small, so the steady state is a handful of
// KB-sized buffers per P.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// signerLen is the length of the signer's id at the head of a payload.
const signerLen = 4

// payload fills a pooled buffer with signer ‖ d ‖ msg. RSA and Ed25519
// sign the bytes from the domain on; the insecure pseudo-signature
// covers the signer too, since its key is the same for every node.
func payload(signer ids.NodeID, d Domain, msg []byte) *[]byte {
	bp := payloadPool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0, byte(d))
	putNodeID(b, signer)
	*bp = append(b, msg...)
	return bp
}

// pseudoSig is the insecure suite's signature over a payload.
func pseudoSig(master, b []byte) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write(b)
	return mac.Sum(nil)
}

func (s *suite) Node() ids.NodeID { return s.node }

func (s *suite) Sign(d Domain, msg []byte) []byte {
	bp := payload(s.node, d, msg)
	defer payloadPool.Put(bp)
	b := *bp
	var sig []byte
	var err error
	switch key := s.key.(type) {
	case nil:
		sig = pseudoSig(s.macs.master, b)
	case ed25519.PrivateKey:
		sig = ed25519.Sign(key, b[signerLen:])
	case *rsa.PrivateKey:
		h := sha256.Sum256(b[signerLen:])
		sig, err = rsa.SignPKCS1v15(rand.Reader, key, crypto.SHA256, h[:])
	}
	if err != nil {
		// Signing with a valid key and digest cannot fail; a failure
		// here means the suite was constructed with a broken key,
		// which is a programming error.
		panic(fmt.Sprintf("crypto: sign: %v", err))
	}
	return sig
}

func (s *suite) Verify(signer ids.NodeID, d Domain, msg, sig []byte) error {
	pub, known := s.dir[signer]
	if !known && s.key != nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, signer)
	}
	bp := payload(signer, d, msg)
	defer payloadPool.Put(bp)
	b := *bp
	var ok bool
	switch pub := pub.(type) {
	case nil:
		ok = hmac.Equal(pseudoSig(s.macs.master, b), sig)
	case ed25519.PublicKey:
		ok = ed25519.Verify(pub, b[signerLen:], sig)
	case *rsa.PublicKey:
		h := sha256.Sum256(b[signerLen:])
		ok = rsa.VerifyPKCS1v15(pub, crypto.SHA256, h[:], sig) == nil
	}
	if !ok {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, signer)
	}
	return nil
}

func (s *suite) MAC(to ids.NodeID, d Domain, msg []byte) []byte {
	return s.macs.mac(to, d, msg)
}

func (s *suite) MACAppend(to ids.NodeID, d Domain, msg, dst []byte) []byte {
	return s.macs.macAppend(to, d, msg, dst)
}

func (s *suite) VerifyMAC(from ids.NodeID, d Domain, msg, mac []byte) error {
	return s.macs.verify(from, d, msg, mac)
}
