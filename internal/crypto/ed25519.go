package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"sync"

	"spider/internal/ids"
)

// Ed25519SignatureSize is the fixed Ed25519 signature length (64 bytes,
// half of an RSA-1024 signature). Like SignatureSize it is a capacity
// hint only; signatures are length-prefixed on the wire.
const Ed25519SignatureSize = ed25519.SignatureSize

// Ed25519Directory is an immutable map from node identity to Ed25519
// public key, the Ed25519 counterpart of Directory.
type Ed25519Directory struct {
	keys map[ids.NodeID]ed25519.PublicKey
}

// NewEd25519Directory builds a directory from the given public keys.
func NewEd25519Directory(keys map[ids.NodeID]ed25519.PublicKey) *Ed25519Directory {
	copied := make(map[ids.NodeID]ed25519.PublicKey, len(keys))
	for id, k := range keys {
		copied[id] = k
	}
	return &Ed25519Directory{keys: copied}
}

// PublicKey returns the key registered for id, or nil.
func (d *Ed25519Directory) PublicKey(id ids.NodeID) ed25519.PublicKey { return d.keys[id] }

// ed25519Suite implements Suite with Ed25519 signatures and the same
// pooled pairwise HMAC-SHA-256 MACs as the RSA suite. Sign and Verify
// borrow a pooled scratch buffer for the domain-prefixed payload, so in
// steady state signing allocates only the 64-byte signature itself.
type ed25519Suite struct {
	node ids.NodeID
	priv ed25519.PrivateKey
	dir  *Ed25519Directory
	macs *macProvider
}

var _ Suite = (*ed25519Suite)(nil)

// edPayloadPool pools the domain-prefix scratch buffers of Sign and
// Verify. Entries grow to the largest payload they have carried and are
// reused as-is; consensus messages are small, so the steady state is a
// handful of KB-sized buffers per P.
var edPayloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// NewEd25519Suite creates the suite for one node. All suites of a
// deployment must share the same directory and master secret. Pairwise
// MAC keys are derived on first contact with a peer.
func NewEd25519Suite(node ids.NodeID, priv ed25519.PrivateKey, dir *Ed25519Directory, masterSecret []byte) Suite {
	return &ed25519Suite{
		node: node,
		priv: priv,
		dir:  dir,
		macs: newMACProvider(node, masterSecret),
	}
}

func (s *ed25519Suite) Node() ids.NodeID { return s.node }

func (s *ed25519Suite) Sign(d Domain, msg []byte) []byte {
	bp := edPayloadPool.Get().(*[]byte)
	b := append((*bp)[:0], byte(d))
	b = append(b, msg...)
	sig := ed25519.Sign(s.priv, b)
	*bp = b
	edPayloadPool.Put(bp)
	return sig
}

func (s *ed25519Suite) Verify(signer ids.NodeID, d Domain, msg, sig []byte) error {
	pub := s.dir.PublicKey(signer)
	if pub == nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, signer)
	}
	bp := edPayloadPool.Get().(*[]byte)
	b := append((*bp)[:0], byte(d))
	b = append(b, msg...)
	ok := ed25519.Verify(pub, b, sig)
	*bp = b
	edPayloadPool.Put(bp)
	if !ok {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, signer)
	}
	return nil
}

func (s *ed25519Suite) MAC(to ids.NodeID, d Domain, msg []byte) []byte {
	return s.macs.mac(to, d, msg)
}

func (s *ed25519Suite) MACAppend(to ids.NodeID, d Domain, msg, dst []byte) []byte {
	return s.macs.macAppend(to, d, msg, dst)
}

func (s *ed25519Suite) VerifyMAC(from ids.NodeID, d Domain, msg, mac []byte) error {
	return s.macs.verify(from, d, msg, mac)
}

// GenerateEd25519Key creates a fresh Ed25519 private key.
func GenerateEd25519Key() (ed25519.PrivateKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generate Ed25519 key: %w", err)
	}
	return priv, nil
}

// MarshalEd25519PrivateKeyPEM encodes a private key for on-disk storage
// (PKCS#8, the standard container for Ed25519 keys).
func MarshalEd25519PrivateKeyPEM(key ed25519.PrivateKey) []byte {
	der, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		// Marshalling a valid in-memory key cannot fail; a failure here
		// means the suite holds a malformed key, a programming error.
		panic(fmt.Sprintf("crypto: marshal Ed25519 private key: %v", err))
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der})
}

// ParseEd25519PrivateKeyPEM decodes a key written by
// MarshalEd25519PrivateKeyPEM.
func ParseEd25519PrivateKeyPEM(data []byte) (ed25519.PrivateKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PRIVATE KEY" {
		return nil, fmt.Errorf("crypto: no Ed25519 private key block found")
	}
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("crypto: parse Ed25519 private key: %w", err)
	}
	priv, ok := key.(ed25519.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("crypto: private key is %T, want Ed25519", key)
	}
	return priv, nil
}

// MarshalEd25519PublicKeyPEM encodes a public key for distribution
// (PKIX, the standard container for Ed25519 public keys).
func MarshalEd25519PublicKeyPEM(key ed25519.PublicKey) []byte {
	der, err := x509.MarshalPKIXPublicKey(key)
	if err != nil {
		panic(fmt.Sprintf("crypto: marshal Ed25519 public key: %v", err))
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der})
}

// ParseEd25519PublicKeyPEM decodes a key written by
// MarshalEd25519PublicKeyPEM.
func ParseEd25519PublicKeyPEM(data []byte) (ed25519.PublicKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PUBLIC KEY" {
		return nil, fmt.Errorf("crypto: no Ed25519 public key block found")
	}
	key, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("crypto: parse Ed25519 public key: %w", err)
	}
	pub, ok := key.(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("crypto: public key is %T, want Ed25519", key)
	}
	return pub, nil
}

// devEd25519Pool caches generated Ed25519 keys for the lifetime of the
// process, mirroring devPool for RSA: prefix-stable handout so two
// calls with overlapping node lists receive compatible keys.
var devEd25519Pool struct {
	mu   sync.Mutex
	keys []ed25519.PrivateKey
}

// devEd25519Keys returns n cached Ed25519 keys, generating any missing
// ones. Generation is microseconds per key, so unlike devKeys there is
// no parallel fill.
func devEd25519Keys(n int) []ed25519.PrivateKey {
	devEd25519Pool.mu.Lock()
	defer devEd25519Pool.mu.Unlock()
	for len(devEd25519Pool.keys) < n {
		key, err := GenerateEd25519Key()
		if err != nil {
			// Only a broken system randomness source fails here;
			// nothing in the process can proceed in that case.
			panic(err)
		}
		devEd25519Pool.keys = append(devEd25519Pool.keys, key)
	}
	out := make([]ed25519.PrivateKey, n)
	copy(out, devEd25519Pool.keys[:n])
	return out
}
