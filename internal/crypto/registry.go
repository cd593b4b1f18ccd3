package crypto

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"os"
	"sort"

	"spider/internal/ids"
)

// suiteSpec is one entry of the suite registry: everything the rest of
// the system needs to treat a signature suite as data — its canonical
// name (config files, manifests, bench labels), its signature size (for
// capacity hints only; the wire format is length-prefixed and never
// assumes a size), and its key generator. Every kind shares one suite
// implementation and one key codec (PKCS#8 private keys, PKIX public
// keys).
type suiteSpec struct {
	name    string
	sigSize int
	// newKey creates one fresh signing key. It is nil for suites
	// without key files (shared-secret test crypto), which are
	// constructed from the master secret alone.
	newKey func() (crypto.Signer, error)
}

// suiteRegistry maps every known SuiteKind to its spec. Adding a suite
// means adding a constant in pool.go, an entry here, and its key types
// in suite.go and keyKind; NewSuites, the deploy key tooling, the
// behavioural test matrix, and the CI suite matrix all pick it up from
// this table.
var suiteRegistry = map[SuiteKind]suiteSpec{
	SuiteRSA: {
		name:    "rsa",
		sigSize: DefaultKeyBits / 8,
		newKey: func() (crypto.Signer, error) {
			return rsa.GenerateKey(rand.Reader, DefaultKeyBits)
		},
	},
	SuiteInsecure: {
		name:    "insecure",
		sigSize: DigestSize,
	},
	SuiteEd25519: {
		name:    "ed25519",
		sigSize: Ed25519SignatureSize,
		newKey: func() (crypto.Signer, error) {
			_, key, err := ed25519.GenerateKey(rand.Reader)
			return key, err
		},
	},
}

// spec returns the registry entry for k, panicking on unknown kinds: a
// SuiteKind not in the registry is a programming error, not input.
func (k SuiteKind) spec() suiteSpec {
	s, ok := suiteRegistry[k]
	if !ok {
		panic(fmt.Sprintf("crypto: unknown suite kind %d", int(k)))
	}
	return s
}

// String returns the canonical suite name used in config files, key-dir
// manifests, and benchmark labels.
func (k SuiteKind) String() string {
	if s, ok := suiteRegistry[k]; ok {
		return s.name
	}
	return fmt.Sprintf("suite(%d)", int(k))
}

// ParseSuiteKind maps a canonical suite name back to its kind.
func ParseSuiteKind(name string) (SuiteKind, error) {
	for k, s := range suiteRegistry {
		if s.name == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("crypto: unknown suite %q", name)
}

// RegisteredSuiteKinds lists every registered suite in stable order, so
// test matrices and tooling iterate the registry instead of hand-built
// lists that silently miss new suites.
func RegisteredSuiteKinds() []SuiteKind {
	kinds := make([]SuiteKind, 0, len(suiteRegistry))
	for k := range suiteRegistry {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// SignatureSize returns the suite's signature length in bytes. It is a
// capacity hint for buffer pre-sizing only: every signature crosses the
// wire length-prefixed, and verifiers never assume a size.
func SignatureSize(k SuiteKind) int { return k.spec().sigSize }

// HasKeyFiles reports whether the suite stores per-node key pairs in a
// key directory (see deploy.GenerateKeys).
func HasKeyFiles(k SuiteKind) bool { return k.spec().newKey != nil }

// PEM block types of the key codec.
const (
	privateKeyPEM = "PRIVATE KEY" // PKCS#8
	publicKeyPEM  = "PUBLIC KEY"  // PKIX
)

// GenerateSuiteKeyPEM creates one fresh key pair for the suite in PEM
// form, for the deployment key tooling.
func GenerateSuiteKeyPEM(k SuiteKind) (priv, pub []byte, err error) {
	s := k.spec()
	if s.newKey == nil {
		return nil, nil, fmt.Errorf("crypto: suite %v has no key files", k)
	}
	key, err := s.newKey()
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: generate %v key: %w", k, err)
	}
	return marshalKeyPEM(key)
}

// marshalKeyPEM encodes a key pair in the key codec: PKCS#8 for the
// private key, PKIX for the public one.
func marshalKeyPEM(key crypto.Signer) (priv, pub []byte, err error) {
	privDER, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: marshal %T: %w", key, err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(key.Public())
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: marshal %T: %w", key.Public(), err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: privateKeyPEM, Bytes: privDER}),
		pem.EncodeToMemory(&pem.Block{Type: publicKeyPEM, Bytes: pubDER}), nil
}

// SuiteFromKeys builds one node's suite from PEM key material read from
// a key directory. Suites without key files ignore priv and pubs and
// derive everything from the master secret.
func SuiteFromKeys(k SuiteKind, self ids.NodeID, priv []byte, pubs map[ids.NodeID][]byte, master []byte) (Suite, error) {
	if !HasKeyFiles(k) {
		return newSuite(self, nil, nil, master), nil
	}
	key, err := parseKeyPEM(k, priv, privateKeyPEM, x509.ParsePKCS8PrivateKey)
	if err != nil {
		return nil, err
	}
	dir := make(map[ids.NodeID]crypto.PublicKey, len(pubs))
	for id, data := range pubs {
		if dir[id], err = parseKeyPEM(k, data, publicKeyPEM, x509.ParsePKIXPublicKey); err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
	}
	return newSuite(self, key.(crypto.Signer), dir, master), nil
}

// parseKeyPEM decodes one PEM block of the given type with parse and
// rejects a key that does not belong to suite k.
func parseKeyPEM(k SuiteKind, data []byte, blockType string, parse func([]byte) (any, error)) (any, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != blockType {
		found := "no PEM block"
		if block != nil {
			found = fmt.Sprintf("a %q block", block.Type)
		}
		return nil, fmt.Errorf("crypto: want a %q PEM block, found %s", blockType, found)
	}
	key, err := parse(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("crypto: parse %v key: %w", k, err)
	}
	if keyKind(key) != k {
		return nil, fmt.Errorf("crypto: %T is not a %v key", key, k)
	}
	return key, nil
}

// keyKind names the suite a parsed key belongs to. Keys of no
// registered suite report SuiteInsecure, which has no keys, so they
// match no suite that reads key files.
func keyKind(key any) SuiteKind {
	switch key.(type) {
	case *rsa.PrivateKey, *rsa.PublicKey:
		return SuiteRSA
	case ed25519.PrivateKey, ed25519.PublicKey:
		return SuiteEd25519
	}
	return SuiteInsecure
}

// EnvSuiteKind returns the suite selected by the SPIDER_SUITE
// environment variable, or def when it is unset. Test helpers that
// would otherwise hardwire a suite (the PBFT cluster harness, the IRMC
// conformance suite, the chaos scenarios) route through this so the CI
// suite matrix can re-run them under any registered suite. An
// unparseable value panics: a matrix leg silently falling back to the
// default suite would pass without testing anything.
func EnvSuiteKind(def SuiteKind) SuiteKind {
	name := os.Getenv("SPIDER_SUITE")
	if name == "" {
		return def
	}
	k, err := ParseSuiteKind(name)
	if err != nil {
		panic(fmt.Sprintf("crypto: SPIDER_SUITE: %v", err))
	}
	return k
}
