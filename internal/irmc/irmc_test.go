package irmc

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"spider/internal/crypto"
	"spider/internal/crypto/cryptotest"
	"spider/internal/ids"
	"spider/internal/wire"
)

func TestWindow(t *testing.T) {
	w := NewWindow(10)
	if w.Start != 1 || w.Max() != 10 {
		t.Fatalf("initial window = [%d,%d]", w.Start, w.Max())
	}
	if !w.Contains(1) || !w.Contains(10) || w.Contains(0) || w.Contains(11) {
		t.Error("Contains boundaries wrong")
	}
	if w.Advance(1) {
		t.Error("Advance to same start reported change")
	}
	if !w.Advance(5) || w.Start != 5 || w.Max() != 14 {
		t.Errorf("after Advance(5): [%d,%d]", w.Start, w.Max())
	}
	if w.Advance(3) {
		t.Error("window moved backwards")
	}
}

func TestKHighest(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4}
	vals := map[ids.NodeID]ids.Position{1: 10, 2: 7, 3: 3}
	// Positions considered: 10, 7, 3, 1 (missing member 4 counts as 1).
	cases := []struct {
		k    int
		want ids.Position
	}{{1, 10}, {2, 7}, {3, 3}, {4, 1}, {0, 1}, {5, 1}}
	for _, c := range cases {
		if got := KHighest(vals, members, c.k); got != c.want {
			t.Errorf("KHighest(k=%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestQuickKHighest: with k = f+1, at least one of the top-k values
// must come from a correct replica; equivalently the result never
// exceeds the (f+1)-th largest and is monotone in the values.
func TestQuickKHighest(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4, 5}
	f := func(raw [5]uint16, k0 uint8) bool {
		k := int(k0)%5 + 1
		vals := make(map[ids.NodeID]ids.Position, 5)
		all := make([]ids.Position, 0, 5)
		for i, m := range members {
			p := ids.Position(raw[i]) + 1
			vals[m] = p
			all = append(all, p)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
		want := all[k-1]
		if got := KHighest(vals, members, k); got != want {
			return false
		}
		// Monotonicity: raising one value never lowers the result.
		vals[members[0]] += 100
		return KHighest(vals, members, k) >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []wire.Message{
		&SendMsg{Subchannel: 3, Position: 9, Payload: []byte("m")},
		&MoveMsg{Subchannel: -1, Position: 42},
		&SigShareMsg{Subchannel: 2, Position: 7, Digest: crypto.Hash([]byte("x")), Sig: []byte("s")},
		&CertificateMsg{Subchannel: 1, Position: 2, Payload: []byte("p"),
			Shares: []ShareSig{{Node: 1, Sig: []byte("a")}, {Node: 2, Sig: []byte("b")}}},
		&ProgressMsg{Subchannels: []ids.Subchannel{1, 2}, Positions: []ids.Position{5, 6}},
		&SelectMsg{Subchannel: 4, Collector: 2, Epoch: 3},
	}
	reg := NewRegistry()
	tags := []wire.TypeTag{TagSend, TagMove, TagSigShare, TagCertificate, TagProgress, TagSelect}
	for i, m := range msgs {
		frame := reg.EncodeFrame(tags[i], m)
		tag, decoded, err := reg.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if tag != tags[i] {
			t.Errorf("%T tag = %d", m, tag)
		}
		if !bytes.Equal(wire.Encode(decoded), wire.Encode(m)) {
			t.Errorf("%T round trip mismatch", m)
		}
	}
}

func TestEnvelopeAuth(t *testing.T) {
	suites := crypto.NewSuites([]ids.NodeID{1, 2, 3}, crypto.SuiteInsecure)
	reg := NewRegistry()
	frame := reg.EncodeFrame(TagSend, &SendMsg{Subchannel: 0, Position: 1, Payload: []byte("m")})

	env, err := Seal(suites[1], TagSend, frame, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(suites[2], reg, 1, env); err != nil {
		t.Errorf("valid signed envelope rejected: %v", err)
	}
	// Envelope relayed under the wrong transport identity must fail.
	if _, _, err := Open(suites[2], reg, 3, env); err == nil {
		t.Error("spoofed transport identity accepted")
	}
	// Tampered frame must fail.
	bad := append([]byte(nil), env...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := Open(suites[2], reg, 1, bad); err == nil {
		t.Error("tampered envelope accepted")
	}

	// MAC'd envelope is recipient specific.
	mframe := reg.EncodeFrame(TagMove, &MoveMsg{Subchannel: 0, Position: 2})
	menv, err := Seal(suites[1], TagMove, mframe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(suites[2], reg, 1, menv); err != nil {
		t.Errorf("valid MAC envelope rejected: %v", err)
	}
	if _, _, err := Open(suites[3], reg, 1, menv); err == nil {
		t.Error("MAC envelope accepted by wrong recipient")
	}

	// A share travels in a MAC'd envelope as well: the signature that
	// counts is the one inside the message, and Open never checks it.
	share := &SigShareMsg{Subchannel: 0, Position: 1, Sig: []byte("checked by the endpoint, not by Open")}
	senv, err := Seal(suites[1], TagSigShare, reg.EncodeFrame(TagSigShare, share), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(suites[2], reg, 1, senv); err != nil {
		t.Errorf("valid share envelope rejected: %v", err)
	}
	if _, _, err := Open(suites[3], reg, 1, senv); err == nil {
		t.Error("share envelope accepted by wrong recipient: it is not MAC'd")
	}
	if err := SealMulti(suites[1], TagSend, frame, []ids.NodeID{2, 3}, func(ids.NodeID, []byte) {
		t.Error("SealMulti emitted an envelope for a signed tag")
	}); err == nil {
		t.Error("SealMulti accepted a signed tag")
	}
	for tag, wantSigned := range map[wire.TypeTag]bool{
		TagSend: true, TagSigShare: false, TagMove: false, TagCertificate: false,
		TagProgress: false, TagSelect: false, TagResend: false,
	} {
		if _, signed, err := AuthDomain(tag); err != nil || signed != wantSigned {
			t.Errorf("AuthDomain(%d): signed=%v err=%v, want signed=%v", tag, signed, err, wantSigned)
		}
	}
}

// TestOpenAsksBeforeVerifying: the admission question comes after a MAC
// check and before a signature check, and a refusal drops the frame.
func TestOpenAsksBeforeVerifying(t *testing.T) {
	suites := crypto.NewSuites([]ids.NodeID{1, 2}, crypto.SuiteInsecure)
	counting := cryptotest.Counting(suites[2])
	reg := NewRegistry()
	send, err := Seal(suites[1], TagSend, reg.EncodeFrame(TagSend, &SendMsg{Position: 7, Payload: []byte("m")}), 2)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	refuse := func(tag wire.TypeTag, msg wire.Message) bool {
		asked++
		if tag != TagSend || msg.(*SendMsg).Position != 7 {
			t.Errorf("asked about tag %d %+v", tag, msg)
		}
		return false
	}
	if _, _, err := openWanted(counting, reg, 1, send, refuse); err == nil {
		t.Error("refused Send was opened")
	}
	if n := counting.Verifies(crypto.DomainIRMCSend); asked != 1 || n != 0 {
		t.Errorf("refused Send: asked %d times, %d signature checks; want 1 and 0", asked, n)
	}
	if _, _, err := openWanted(counting, reg, 1, send, func(wire.TypeTag, wire.Message) bool { return true }); err != nil {
		t.Errorf("wanted Send rejected: %v", err)
	}
	if n := counting.Verifies(crypto.DomainIRMCSend); n != 1 {
		t.Errorf("wanted Send: %d signature checks, want 1", n)
	}

	// A MAC'd frame that fails its MAC is never asked about.
	move, err := Seal(suites[1], TagMove, reg.EncodeFrame(TagMove, &MoveMsg{Position: 2}), 2)
	if err != nil {
		t.Fatal(err)
	}
	move[len(move)-1] ^= 0xFF
	asked = 0
	if _, _, err := openWanted(counting, reg, 1, move, refuse); err == nil || asked != 0 {
		t.Errorf("forged MAC frame: err=%v, asked %d times", err, asked)
	}
}

func TestAuthDomainUnknownTag(t *testing.T) {
	if _, _, err := AuthDomain(99); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := Seal(nil, 99, nil, 0); err == nil {
		t.Error("Seal with unknown tag accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	s, r := ids.Group{ID: 1, Members: []ids.NodeID{1}, F: 0}, ids.Group{ID: 2, Members: []ids.NodeID{2}, F: 0}
	suite := crypto.NewInsecureSuite(1, []byte("k"))
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero capacity", Config{Senders: s, Receivers: r, Suite: suite}, false},
		{"no groups", Config{Capacity: 1, Suite: suite}, false},
		{"no suite", Config{Capacity: 1, Senders: s, Receivers: r}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v", c.name, err)
		}
	}
}

func TestTooOldError(t *testing.T) {
	err := error(&TooOldError{NewStart: 7})
	tooOld, ok := AsTooOld(err)
	if !ok || tooOld.NewStart != 7 {
		t.Errorf("AsTooOld = %v, %v", tooOld, ok)
	}
	if _, ok := AsTooOld(ErrClosed); ok {
		t.Error("AsTooOld matched ErrClosed")
	}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}
