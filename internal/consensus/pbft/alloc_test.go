package pbft

import (
	"testing"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/raceflag"
	"spider/internal/wire"
)

// benchNodes is the 4-member group used by the allocation guards.
var benchNodes = []ids.NodeID{1, 2, 3, 4}

// TestPrepareEnvelopeAllocs is the allocation-regression guard for the
// pooled envelope-encoding path: building a prepare frame in a pooled
// writer, producing its MAC vector, and encoding the multicast
// envelope — the per-message work of Replica.authMulticast — must stay
// within a fixed allocation budget. The envelope itself is one
// irreducible allocation (the transport retains it); the budget allows
// it plus the two MAC-vector allocations.
func TestPrepareEnvelopeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	suites := crypto.NewSuites(benchNodes, crypto.SuiteInsecure)
	auth := crypto.NewMACVectorAuthenticator(suites[1], benchNodes, crypto.DomainPBFT)
	p := &prepare{View: 1, Seq: 42, Digest: crypto.Hash([]byte("payload"))}

	encodeOnce := func() {
		fw := wire.GetWriter()
		fw.WriteU8(byte(tagPrepare))
		p.MarshalWire(fw)
		frame := fw.Bytes()
		sig, vec := auth.Authenticate(frame)
		raw := signedRaw{From: 1, Frame: frame, Sig: sig, MACVec: vec}
		env := wire.Encode(&raw)
		wire.PutWriter(fw)
		if len(env) == 0 {
			t.Fatal("empty envelope")
		}
	}
	encodeOnce() // warm the writer and HMAC state pools

	allocs := testing.AllocsPerRun(200, encodeOnce)
	// 1 envelope + 2 MAC vector (headers + backing); headroom for the
	// occasional pool refill.
	if allocs > 4 {
		t.Errorf("prepare envelope via pooled path: %.1f allocs/op, want <= 4", allocs)
	}
}

// TestSharedDecodeAllocs guards the inbound admission path: decoding a
// prepare envelope with the zero-copy reader must cost only the
// per-message structures (MAC vector headers), never per-field copies.
func TestSharedDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	suites := crypto.NewSuites(benchNodes, crypto.SuiteInsecure)
	auth := crypto.NewMACVectorAuthenticator(suites[1], benchNodes, crypto.DomainPBFT)
	p := &prepare{View: 1, Seq: 42, Digest: crypto.Hash([]byte("payload"))}
	frame := registry.EncodeFrame(tagPrepare, p)
	sig, vec := auth.Authenticate(frame)
	env := wire.Encode(&signedRaw{From: 1, Frame: frame, Sig: sig, MACVec: vec})

	var raw signedRaw // hoisted so the envelope struct itself is not counted
	allocs := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeShared(env, &raw); err != nil {
			t.Fatal(err)
		}
	})
	// 1 for the MAC-vector header slice; Frame/Sig/entries alias env.
	if allocs > 1 {
		t.Errorf("shared decode of prepare envelope: %.1f allocs/op, want <= 1", allocs)
	}
}
