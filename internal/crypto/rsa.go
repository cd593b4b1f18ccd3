package crypto

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"fmt"

	"spider/internal/ids"
)

// DefaultKeyBits matches the paper's evaluation setup (1024-bit RSA).
const DefaultKeyBits = 1024

// Directory is an immutable map from node identity to RSA public key.
// One directory is shared by all suites of a deployment.
type Directory struct {
	keys map[ids.NodeID]*rsa.PublicKey
}

// NewDirectory builds a directory from the given public keys.
func NewDirectory(keys map[ids.NodeID]*rsa.PublicKey) *Directory {
	copied := make(map[ids.NodeID]*rsa.PublicKey, len(keys))
	for id, k := range keys {
		copied[id] = k
	}
	return &Directory{keys: copied}
}

// PublicKey returns the key registered for id, or nil.
func (d *Directory) PublicKey(id ids.NodeID) *rsa.PublicKey { return d.keys[id] }

// rsaSuite implements Suite with RSA signatures and pairwise
// HMAC-SHA-256 MACs derived from a deployment master secret.
type rsaSuite struct {
	node ids.NodeID
	priv *rsa.PrivateKey
	dir  *Directory
	macs *macProvider
}

var _ Suite = (*rsaSuite)(nil)

// NewRSASuite creates the suite for one node. All suites of a
// deployment must share the same directory and master secret. Pairwise
// MAC keys are derived on first contact with a peer.
func NewRSASuite(node ids.NodeID, priv *rsa.PrivateKey, dir *Directory, masterSecret []byte) Suite {
	return &rsaSuite{
		node: node,
		priv: priv,
		dir:  dir,
		macs: newMACProvider(node, masterSecret),
	}
}

func (s *rsaSuite) Node() ids.NodeID { return s.node }

func (s *rsaSuite) Sign(d Domain, msg []byte) []byte {
	h := sha256.Sum256(payload(d, msg))
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.priv, crypto.SHA256, h[:])
	if err != nil {
		// Signing with a valid key and digest cannot fail; a failure
		// here means the suite was constructed with a broken key,
		// which is a programming error.
		panic(fmt.Sprintf("crypto: RSA sign: %v", err))
	}
	return sig
}

func (s *rsaSuite) Verify(signer ids.NodeID, d Domain, msg, sig []byte) error {
	pub := s.dir.PublicKey(signer)
	if pub == nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, signer)
	}
	h := sha256.Sum256(payload(d, msg))
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, h[:], sig); err != nil {
		return fmt.Errorf("%w: signer %v: %v", ErrBadSignature, signer, err)
	}
	return nil
}

func (s *rsaSuite) MAC(to ids.NodeID, d Domain, msg []byte) []byte {
	return s.macs.mac(to, d, msg)
}

func (s *rsaSuite) MACAppend(to ids.NodeID, d Domain, msg, dst []byte) []byte {
	return s.macs.macAppend(to, d, msg, dst)
}

func (s *rsaSuite) VerifyMAC(from ids.NodeID, d Domain, msg, mac []byte) error {
	return s.macs.verify(from, d, msg, mac)
}

// GenerateKey creates a fresh RSA key of the given size.
func GenerateKey(bits int) (*rsa.PrivateKey, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("crypto: generate RSA-%d key: %w", bits, err)
	}
	return key, nil
}

// MarshalPrivateKeyPEM encodes a private key for on-disk storage, used
// by the multi-process deployment tooling.
func MarshalPrivateKeyPEM(key *rsa.PrivateKey) []byte {
	return pem.EncodeToMemory(&pem.Block{
		Type:  "RSA PRIVATE KEY",
		Bytes: x509.MarshalPKCS1PrivateKey(key),
	})
}

// ParsePrivateKeyPEM decodes a key written by MarshalPrivateKeyPEM.
func ParsePrivateKeyPEM(data []byte) (*rsa.PrivateKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "RSA PRIVATE KEY" {
		return nil, fmt.Errorf("crypto: no RSA private key block found")
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("crypto: parse private key: %w", err)
	}
	return key, nil
}

// MarshalPublicKeyPEM encodes a public key for distribution.
func MarshalPublicKeyPEM(key *rsa.PublicKey) []byte {
	return pem.EncodeToMemory(&pem.Block{
		Type:  "RSA PUBLIC KEY",
		Bytes: x509.MarshalPKCS1PublicKey(key),
	})
}

// ParsePublicKeyPEM decodes a key written by MarshalPublicKeyPEM.
func ParsePublicKeyPEM(data []byte) (*rsa.PublicKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "RSA PUBLIC KEY" {
		return nil, fmt.Errorf("crypto: no RSA public key block found")
	}
	key, err := x509.ParsePKCS1PublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("crypto: parse public key: %w", err)
	}
	return key, nil
}
