package crypto

import (
	"testing"
	"testing/quick"
	"time"

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
	suites := testSuites(t, 2)[SuiteRSA]
	if err := suites[1].Verify(99, DomainPBFT, []byte("m"), []byte("sig")); err == nil {
		t.Fatal("unknown signer accepted")
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

func TestMACVectorWire(t *testing.T) {
	vec := [][]byte{[]byte("a"), nil, []byte("ccc")}
	var w wire.Writer
	WriteMACVector(&w, vec)
	r := wire.NewReader(w.Bytes())
	got := ReadMACVector(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "a" || len(got[1]) != 0 || string(got[2]) != "ccc" {
		t.Errorf("round trip = %q", got)
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

func TestKeyPEMRoundTrip(t *testing.T) {
	key := devKeys(1)[0]
	parsed, err := ParsePrivateKeyPEM(MarshalPrivateKeyPEM(key))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.D.Cmp(key.D) != 0 {
		t.Error("private key round trip mismatch")
	}
	pub, err := ParsePublicKeyPEM(MarshalPublicKeyPEM(&key.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(key.N) != 0 {
		t.Error("public key round trip mismatch")
	}
	if _, err := ParsePrivateKeyPEM([]byte("garbage")); err == nil {
		t.Error("garbage private key accepted")
	}
	if _, err := ParsePublicKeyPEM([]byte("garbage")); err == nil {
		t.Error("garbage public key accepted")
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

// TestMACPreloadMatchesLazy: a provider filled by preload and one that
// meets its peers one at a time derive the same pairwise keys — every
// pair's MAC is byte-identical and verifies at the other end — and
// preloading a deployment-sized peer set (528 identities on the
// repository benchmark) builds the table once rather than once per
// peer.
func TestMACPreloadMatchesLazy(t *testing.T) {
	master, msg := []byte("master secret"), []byte("payload")
	nodes := make([]ids.NodeID, 528)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	small := nodes[:40]
	pre := make(map[ids.NodeID]*macProvider, len(small))
	for _, id := range small {
		pre[id] = newMACProvider(id, master)
		pre[id].preload(small)
	}
	for _, a := range small {
		lazy := newMACProvider(a, master)
		for _, b := range small {
			want := lazy.mac(b, DomainReply, msg)
			if got := pre[a].mac(b, DomainReply, msg); string(got) != string(want) {
				t.Fatalf("pair (%v,%v): preloaded MAC differs from the lazily derived one", a, b)
			}
			if err := pre[b].verify(a, DomainReply, msg, want); err != nil {
				t.Fatalf("pair (%v,%v): %v", a, b, err)
			}
		}
	}

	// Copying the table per peer took ≈ 7 ms for 528 peers (≈ 3.3 s
	// for a deployment's 528 providers); one pass takes ≈ 0.9 ms
	// (≈ 0.4 s). The bound is a coarse guard against the quadratic
	// shape coming back, best of three so a descheduled run cannot
	// fail it.
	best := time.Hour
	for i := 0; i < 3; i++ {
		p := newMACProvider(1, master)
		start := time.Now()
		p.preload(nodes)
		if d := time.Since(start); d < best {
			best = d
		}
		if n := len(*p.peers.Load()); n != len(nodes) {
			t.Fatalf("preload left %d peers in the table, want %d", n, len(nodes))
		}
	}
	if best > 100*time.Millisecond {
		t.Fatalf("preload of %d peers took %v", len(nodes), best)
	}
}
