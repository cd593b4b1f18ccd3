package crypto

import (
	"crypto"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"testing"

	"spider/internal/ids"
)

func TestSuiteKindNamesRoundTrip(t *testing.T) {
	for _, kind := range RegisteredSuiteKinds() {
		name := kind.String()
		parsed, err := ParseSuiteKind(name)
		if err != nil {
			t.Errorf("ParseSuiteKind(%q): %v", name, err)
		}
		if parsed != kind {
			t.Errorf("ParseSuiteKind(%q) = %v, want %v", name, parsed, kind)
		}
	}
	if _, err := ParseSuiteKind("quantum"); err == nil {
		t.Error("unknown suite name parsed")
	}
	// The zero value must stay RSA: zero-valued configs rely on it.
	if SuiteRSA != 0 {
		t.Error("SuiteRSA is not the zero value")
	}
}

func TestSignatureSizes(t *testing.T) {
	if got := SignatureSize(SuiteRSA); got != 128 {
		t.Errorf("RSA signature size = %d, want 128", got)
	}
	if got := SignatureSize(SuiteEd25519); got != 64 {
		t.Errorf("Ed25519 signature size = %d, want 64", got)
	}
	for _, kind := range RegisteredSuiteKinds() {
		suites := testSuites(t, 2)[kind]
		sig := suites[1].Sign(DomainPBFT, []byte("m"))
		if len(sig) != SignatureSize(kind) {
			t.Errorf("%v: len(sig) = %d, want %d", kind, len(sig), SignatureSize(kind))
		}
	}
}

func TestEnvSuiteKind(t *testing.T) {
	t.Setenv("SPIDER_SUITE", "")
	if got := EnvSuiteKind(SuiteInsecure); got != SuiteInsecure {
		t.Errorf("unset SPIDER_SUITE: got %v", got)
	}
	t.Setenv("SPIDER_SUITE", "ed25519")
	if got := EnvSuiteKind(SuiteInsecure); got != SuiteEd25519 {
		t.Errorf("SPIDER_SUITE=ed25519: got %v", got)
	}
	t.Setenv("SPIDER_SUITE", "bogus")
	defer func() {
		if recover() == nil {
			t.Error("unparseable SPIDER_SUITE did not panic")
		}
	}()
	EnvSuiteKind(SuiteInsecure)
}

// checkKeyPEMRoundTrip encodes a dev key of the given suite in the key
// codec and parses it back: both halves must come back equal, and
// garbage or a key of the other key-file suite must be rejected.
func checkKeyPEMRoundTrip(t *testing.T, kind, other SuiteKind) {
	t.Helper()
	key := devKeys(kind, 1)[0]
	priv, pub, err := marshalKeyPEM(key)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parseKeyPEM(kind, priv, privateKeyPEM, x509.ParsePKCS8PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.(interface{ Equal(crypto.PrivateKey) bool }).Equal(key) {
		t.Error("private key round trip mismatch")
	}
	parsedPub, err := parseKeyPEM(kind, pub, publicKeyPEM, x509.ParsePKIXPublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if !parsedPub.(interface{ Equal(crypto.PublicKey) bool }).Equal(key.Public()) {
		t.Error("public key round trip mismatch")
	}
	if _, err := parseKeyPEM(kind, []byte("garbage"), privateKeyPEM, x509.ParsePKCS8PrivateKey); err == nil {
		t.Error("garbage private key accepted")
	}
	if _, err := parseKeyPEM(kind, []byte("garbage"), publicKeyPEM, x509.ParsePKIXPublicKey); err == nil {
		t.Error("garbage public key accepted")
	}
	// A well-formed key of the other suite must fail with a type
	// error, not be mis-parsed.
	otherPriv, otherPub, err := marshalKeyPEM(devKeys(other, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseKeyPEM(kind, otherPriv, privateKeyPEM, x509.ParsePKCS8PrivateKey); err == nil {
		t.Errorf("%v private key accepted as %v", other, kind)
	}
	if _, err := parseKeyPEM(kind, otherPub, publicKeyPEM, x509.ParsePKIXPublicKey); err == nil {
		t.Errorf("%v public key accepted as %v", other, kind)
	}
}

func TestKeyPEMRoundTrip(t *testing.T) { checkKeyPEMRoundTrip(t, SuiteRSA, SuiteEd25519) }

func TestEd25519KeyPEMRoundTrip(t *testing.T) { checkKeyPEMRoundTrip(t, SuiteEd25519, SuiteRSA) }

// TestSuiteFromKeysRoundTrip drives every key-file suite through the
// key codec: generate PEM material, build suites for two nodes from it,
// and cross-verify. Garbage, a PEM block of the wrong type (a PKCS#1
// key of earlier builds, or a public key where the private one belongs)
// and a key of another suite are all rejected at parse time.
func TestSuiteFromKeysRoundTrip(t *testing.T) {
	for _, kind := range RegisteredSuiteKinds() {
		if !HasKeyFiles(kind) {
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			nodes := []ids.NodeID{1, 2}
			privs := make(map[ids.NodeID][]byte)
			pubs := make(map[ids.NodeID][]byte)
			for _, n := range nodes {
				priv, pub, err := GenerateSuiteKeyPEM(kind)
				if err != nil {
					t.Fatal(err)
				}
				privs[n], pubs[n] = priv, pub
			}
			master := []byte("registry-test-master")
			s1, err := SuiteFromKeys(kind, 1, privs[1], pubs, master)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := SuiteFromKeys(kind, 2, privs[2], pubs, master)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("round trip")
			if err := s2.Verify(1, DomainPBFT, msg, s1.Sign(DomainPBFT, msg)); err != nil {
				t.Errorf("signature round trip: %v", err)
			}
			if err := s2.VerifyMAC(1, DomainReply, msg, s1.MAC(2, DomainReply, msg)); err != nil {
				t.Errorf("MAC round trip: %v", err)
			}
			// Keys of the wrong suite must be rejected at parse time
			// with a clear error, not mis-parsed.
			otherKind := SuiteRSA
			if kind == SuiteRSA {
				otherKind = SuiteEd25519
			}
			wrongPriv, wrongPub, err := GenerateSuiteKeyPEM(otherKind)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := SuiteFromKeys(kind, 1, wrongPriv, pubs, master); err == nil {
				t.Error("private key of wrong suite accepted")
			}
			if _, err := SuiteFromKeys(kind, 1, privs[1], map[ids.NodeID][]byte{1: pubs[1], 2: wrongPub}, master); err == nil {
				t.Error("public key of wrong suite accepted")
			}
			pkcs1 := devKeys(SuiteRSA, 1)[0].(*rsa.PrivateKey)
			for _, bad := range []struct{ name, priv, pub string }{
				{"garbage", "garbage", "garbage"},
				{"swapped", string(pubs[1]), string(privs[1])},
				{"PKCS#1",
					string(pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: x509.MarshalPKCS1PrivateKey(pkcs1)})),
					string(pem.EncodeToMemory(&pem.Block{Type: "RSA PUBLIC KEY", Bytes: x509.MarshalPKCS1PublicKey(&pkcs1.PublicKey)}))},
			} {
				if _, err := SuiteFromKeys(kind, 1, []byte(bad.priv), pubs, master); err == nil {
					t.Errorf("%s private key accepted", bad.name)
				}
				if _, err := SuiteFromKeys(kind, 1, privs[1], map[ids.NodeID][]byte{1: pubs[1], 2: []byte(bad.pub)}, master); err == nil {
					t.Errorf("%s public key accepted", bad.name)
				}
			}
		})
	}
}

// TestCrossSuiteSignatureRejected pins the admission contract every
// protocol layer relies on: a signature produced under one suite —
// including truncated or padded variants matching the other suite's
// length — never verifies under another suite. The protocol-level
// rejection tests (PBFT pre-prepare, IRMC-SC shares/certificates,
// client requests) all reduce to this property plus "the verifier
// returns an error instead of stalling".
func TestCrossSuiteSignatureRejected(t *testing.T) {
	msg := []byte("cross-suite payload")
	all := testSuites(t, 3)
	for _, signerKind := range RegisteredSuiteKinds() {
		sig := all[signerKind][1].Sign(DomainPBFT, msg)
		for _, verifierKind := range RegisteredSuiteKinds() {
			if signerKind == verifierKind {
				continue
			}
			verifier := all[verifierKind][2]
			if err := verifier.Verify(1, DomainPBFT, msg, sig); err == nil {
				t.Errorf("%v signature accepted by %v verifier", signerKind, verifierKind)
			}
			// Resized to the verifier's native signature length: a
			// 128-byte RSA signature truncated to 64 bytes, or a
			// 64-byte Ed25519 signature zero-padded to 128.
			want := SignatureSize(verifierKind)
			resized := make([]byte, want)
			copy(resized, sig)
			if err := verifier.Verify(1, DomainPBFT, msg, resized); err == nil {
				t.Errorf("%v signature resized to %d bytes accepted by %v verifier", signerKind, want, verifierKind)
			}
		}
	}
	// Truncation and padding within one suite must also fail.
	for _, kind := range RegisteredSuiteKinds() {
		suites := all[kind]
		sig := suites[1].Sign(DomainPBFT, msg)
		if err := suites[2].Verify(1, DomainPBFT, msg, sig[:len(sig)/2]); err == nil {
			t.Errorf("%v: truncated signature accepted", kind)
		}
		if err := suites[2].Verify(1, DomainPBFT, msg, append(append([]byte(nil), sig...), 0)); err == nil {
			t.Errorf("%v: padded signature accepted", kind)
		}
		if err := suites[2].Verify(1, DomainPBFT, msg, nil); err == nil {
			t.Errorf("%v: empty signature accepted", kind)
		}
	}
}
