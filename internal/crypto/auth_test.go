package crypto

import (
	"testing"

	"spider/internal/ids"
)

func TestGroupAuthenticatorSignature(t *testing.T) {
	members := []ids.NodeID{1, 2, 3}
	suites := NewSuites(members, SuiteInsecure)
	auth1 := NewSignatureAuthenticator(suites[1], DomainPBFT)
	auth2 := NewSignatureAuthenticator(suites[2], DomainPBFT)
	if auth1.Kind() != AuthSignature {
		t.Fatalf("kind = %v", auth1.Kind())
	}
	frame := []byte("frame")
	sig, vec := auth1.Authenticate(frame)
	if len(sig) == 0 || vec != nil {
		t.Fatal("signature authenticator produced wrong material")
	}
	if err := auth2.Verify(1, frame, sig, nil); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := auth2.Verify(3, frame, sig, nil); err == nil {
		t.Fatal("signature accepted for wrong signer")
	}
	if err := auth2.Verify(1, []byte("other"), sig, nil); err == nil {
		t.Fatal("signature accepted for tampered frame")
	}
	if err := auth2.Verify(1, frame, nil, nil); err == nil {
		t.Fatal("missing signature accepted")
	}
}

func TestGroupAuthenticatorMACVector(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4}
	suites := NewSuites(members, SuiteInsecure)
	sender := NewMACVectorAuthenticator(suites[1], members, DomainPBFT)
	if sender.Kind() != AuthMACVector {
		t.Fatalf("kind = %v", sender.Kind())
	}
	frame := []byte("frame")
	sig, vec := sender.Authenticate(frame)
	if sig != nil || len(vec) != len(members) {
		t.Fatal("MAC authenticator produced wrong material")
	}
	for _, m := range members[1:] {
		recv := NewMACVectorAuthenticator(suites[m], members, DomainPBFT)
		if err := recv.Verify(1, frame, nil, vec); err != nil {
			t.Fatalf("member %v rejected valid vector: %v", m, err)
		}
		if err := recv.Verify(2, frame, nil, vec); err == nil {
			t.Fatalf("member %v accepted vector for wrong sender", m)
		}
		if err := recv.Verify(1, []byte("other"), nil, vec); err == nil {
			t.Fatalf("member %v accepted vector for tampered frame", m)
		}
		if err := recv.Verify(1, frame, nil, vec[:2]); err == nil {
			t.Fatalf("member %v accepted truncated vector", m)
		}
	}
}
