package crypto

import (
	"errors"
	"testing"
	"testing/quick"

	"spider/internal/ids"
	"spider/internal/wire"
)

// suites under test: every registered implementation must satisfy the
// same behavioural contract. Iterating the registry means a new suite
// kind is covered by the whole matrix the moment it is registered.
func testSuites(t *testing.T, n int) map[SuiteKind]map[ids.NodeID]Suite {
	t.Helper()
	nodes := make([]ids.NodeID, n)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	out := make(map[SuiteKind]map[ids.NodeID]Suite)
	for _, kind := range RegisteredSuiteKinds() {
		out[kind] = NewSuites(nodes, kind)
	}
	return out
}

func kindName(k SuiteKind) string { return k.String() }

func TestSignVerify(t *testing.T) {
	for kind, suites := range testSuites(t, 3) {
		t.Run(kindName(kind), func(t *testing.T) {
			msg := []byte("the quick brown fox")
			sig := suites[1].Sign(DomainPBFT, msg)

			if err := suites[2].Verify(1, DomainPBFT, msg, sig); err != nil {
				t.Errorf("valid signature rejected: %v", err)
			}
			if err := suites[2].Verify(1, DomainIRMCSend, msg, sig); err == nil {
				t.Error("cross-domain signature accepted")
			}
			if err := suites[2].Verify(2, DomainPBFT, msg, sig); err == nil {
				t.Error("wrong signer accepted")
			}
			tampered := append([]byte(nil), msg...)
			tampered[0] ^= 1
			if err := suites[2].Verify(1, DomainPBFT, tampered, sig); err == nil {
				t.Error("tampered message accepted")
			}
		})
	}
}

func TestVerifyUnknownNode(t *testing.T) {
	for kind, suites := range testSuites(t, 2) {
		if !HasKeyFiles(kind) {
			continue
		}
		if err := suites[1].Verify(99, DomainPBFT, []byte("m"), []byte("sig")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("%v: unknown signer: got %v, want ErrUnknownNode", kind, err)
		}
	}
}

func TestMAC(t *testing.T) {
	for kind, suites := range testSuites(t, 3) {
		t.Run(kindName(kind), func(t *testing.T) {
			msg := []byte("hello")
			mac := suites[1].MAC(2, DomainReply, msg)

			if err := suites[2].VerifyMAC(1, DomainReply, msg, mac); err != nil {
				t.Errorf("valid MAC rejected: %v", err)
			}
			if err := suites[2].VerifyMAC(1, DomainPBFT, msg, mac); err == nil {
				t.Error("cross-domain MAC accepted")
			}
			if err := suites[2].VerifyMAC(3, DomainReply, msg, mac); err == nil {
				t.Error("wrong sender accepted")
			}
			if err := suites[2].VerifyMAC(1, DomainReply, []byte("h3llo"), mac); err == nil {
				t.Error("tampered message accepted")
			}
		})
	}
}

func TestMACVector(t *testing.T) {
	suites := testSuites(t, 4)[SuiteInsecure]
	members := []ids.NodeID{2, 3, 4}
	msg := []byte("request")

	vec := MACVector(suites[1], members, DomainClientRequest, msg)
	if len(vec) != 3 {
		t.Fatalf("vector size = %d", len(vec))
	}
	for _, m := range members {
		if err := VerifyMACVector(suites[m], 1, members, DomainClientRequest, msg, vec); err != nil {
			t.Errorf("member %v rejected vector: %v", m, err)
		}
	}
	// A receiver outside the group must reject.
	if err := VerifyMACVector(suites[1], 1, members, DomainClientRequest, msg, vec); err == nil {
		t.Error("non-member accepted vector")
	}
	// Wrong vector size must reject.
	if err := VerifyMACVector(suites[2], 1, members, DomainClientRequest, msg, vec[:2]); err == nil {
		t.Error("short vector accepted")
	}
}

func TestThreshold(t *testing.T) {
	suites := testSuites(t, 4)[SuiteRSA]
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	msg := []byte("proposal")
	k := 3

	var shares []Share
	for _, n := range group.Members[:3] {
		shares = append(shares, SignShare(suites[n], DomainHFTGlobal, msg))
	}
	ts, ok := Combine(shares, k)
	if !ok {
		t.Fatal("combine failed with k shares")
	}
	if err := VerifyThreshold(suites[4], group, k, DomainHFTGlobal, msg, ts); err != nil {
		t.Errorf("valid threshold signature rejected: %v", err)
	}

	// Too few shares.
	if _, ok := Combine(shares[:2], k); ok {
		t.Error("combine succeeded with k-1 shares")
	}
	// Duplicate shares from one signer must not count twice.
	dup := []Share{shares[0], shares[0], shares[0]}
	if _, ok := Combine(dup, k); ok {
		t.Error("combine accepted duplicate signers")
	}
	// A share from outside the group must not count.
	outsider := NewInsecureSuite(99, []byte("spider-deployment-master-secret"))
	bad := ThresholdSig{Shares: []Share{
		shares[0], shares[1], SignShare(outsider, DomainHFTGlobal, msg),
	}}
	if err := VerifyThreshold(suites[4], group, k, DomainHFTGlobal, msg, bad); err == nil {
		t.Error("outsider share counted toward threshold")
	}
	// Tampered message must fail.
	if err := VerifyThreshold(suites[4], group, k, DomainHFTGlobal, []byte("other"), ts); err == nil {
		t.Error("threshold signature verified for wrong message")
	}
}

func TestThresholdSigWire(t *testing.T) {
	in := ThresholdSig{Shares: []Share{{Node: 1, Sig: []byte("s1")}, {Node: 2, Sig: []byte("s2")}}}
	out := new(ThresholdSig)
	if err := wire.Decode(wire.Encode(&in), out); err != nil {
		t.Fatal(err)
	}
	if len(out.Shares) != 2 || out.Shares[1].Node != 2 || string(out.Shares[1].Sig) != "s2" {
		t.Errorf("round trip = %+v", out)
	}
}

func TestHashMessage(t *testing.T) {
	d1 := Hash([]byte("a"))
	d2 := Hash([]byte("b"))
	if d1 == d2 {
		t.Error("distinct inputs hashed equal")
	}
	if d1.IsZero() {
		t.Error("digest of data is zero")
	}
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest not recognized")
	}
	if len(d1.String()) == 0 {
		t.Error("empty digest string")
	}
}

func TestQuickMACConsistency(t *testing.T) {
	suites := testSuites(t, 2)[SuiteInsecure]
	f := func(msg []byte) bool {
		mac := suites[1].MAC(2, DomainReply, msg)
		return suites[2].VerifyMAC(1, DomainReply, msg, mac) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// macKeys returns how many pairwise keys s has derived.
func macKeys(s Suite) int { return len(*s.(*suite).macs.peers.Load()) }

// TestMACKeysDerivedOnFirstContact: a suite derives a pairwise key the
// first time it meets a peer, never at construction — a deployment
// builds one suite per identity (528 on the repository benchmark), and
// deriving every pair up front cost it ≈ 279 000 keys — and both ends of
// every pair derive the same key.
func TestMACKeysDerivedOnFirstContact(t *testing.T) {
	nodes := make([]ids.NodeID, 528)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	deployments := map[string]map[ids.NodeID]Suite{
		"ed25519":  NewSuites(nodes, SuiteEd25519),
		"insecure": NewSuites(nodes, SuiteInsecure),
		"rsa":      testSuites(t, 4)[SuiteRSA],
	}
	msg := []byte("payload")
	for name, suites := range deployments {
		for id, s := range suites {
			if n := macKeys(s); n != 0 {
				t.Fatalf("%s: suite %v derived %d keys before first contact", name, id, n)
			}
		}
		met := nodes[:min(40, len(suites))]
		for _, a := range met {
			for _, b := range met {
				mac := suites[a].MAC(b, DomainReply, msg)
				if err := suites[b].VerifyMAC(a, DomainReply, msg, mac); err != nil {
					t.Fatalf("%s: pair (%v,%v): %v", name, a, b, err)
				}
			}
		}
		if n := macKeys(suites[1]); n != len(met) {
			t.Errorf("%s: suite 1 holds %d keys after meeting %d peers", name, n, len(met))
		}
	}
}
