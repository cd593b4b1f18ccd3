package irmc

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/crypto"
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

// seal builds one envelope from suite's node to recipient to.
func seal(t *testing.T, suite crypto.Suite, tag wire.TypeTag, msg wire.Marshaler, to ids.NodeID) []byte {
	t.Helper()
	var env []byte
	if err := SealMulti(suite, tag, NewRegistry().EncodeFrame(tag, msg), []ids.NodeID{to}, func(_ ids.NodeID, e []byte) { env = e }); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeAuth(t *testing.T) {
	suites := crypto.NewSuites([]ids.NodeID{1, 2, 3}, crypto.SuiteInsecure)
	reg := NewRegistry()
	send := &SendMsg{Subchannel: 0, Position: 1, Payload: []byte("m")}

	env := seal(t, suites[1], TagSend, send, 2)
	if _, _, err := Open(suites[2], reg, 1, env); err != nil {
		t.Errorf("valid Send envelope rejected: %v", err)
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

	// Every envelope is recipient specific, a Send's included: what 1
	// sealed for 2 does not convince 3.
	share := &SigShareMsg{Subchannel: 0, Position: 1, Sig: []byte("checked by the endpoint, not by Open")}
	for _, c := range []struct {
		tag wire.TypeTag
		msg wire.Marshaler
	}{
		{TagSend, send}, {TagMove, &MoveMsg{Position: 2}}, {TagSigShare, share},
		{TagCertificate, &CertificateMsg{Position: 1}}, {TagProgress, &ProgressMsg{}},
		{TagSelect, &SelectMsg{Collector: 1}}, {TagResend, &ResendMsg{From: 1}},
	} {
		env := seal(t, suites[1], c.tag, c.msg, 2)
		if tag, _, err := Open(suites[2], reg, 1, env); err != nil || tag != c.tag {
			t.Errorf("tag %d: valid envelope opened as %d, %v", c.tag, tag, err)
		}
		if _, _, err := Open(suites[3], reg, 1, env); !errors.Is(err, crypto.ErrBadMAC) {
			t.Errorf("tag %d: envelope for another recipient: err=%v, want a bad MAC", c.tag, err)
		}
	}
}

// TestOpenAsksBeforeVerifying: Admit asks its question after the MAC
// check and before the public-key check, and a refusal drops the frame.
func TestOpenAsksBeforeVerifying(t *testing.T) {
	suites := crypto.NewSuites([]ids.NodeID{1, 2}, crypto.SuiteInsecure)
	e := &endpoint{Cfg: Config{Suite: suites[2]}, Reg: NewRegistry()}
	share := seal(t, suites[1], TagSigShare, &SigShareMsg{Position: 7, Sig: []byte("s")}, 2)
	var asked, verified, delivered int
	admit := func(payload []byte, want bool) {
		e.Admit(1, true, [][]byte{payload}, func(tag wire.TypeTag, msg wire.Message) bool {
			asked++
			if tag != TagSigShare || msg.(*SigShareMsg).Position != 7 {
				t.Errorf("asked about tag %d %+v", tag, msg)
			}
			return want
		}, func(wire.TypeTag, wire.Message) error {
			verified++
			return nil
		}, func(time.Time, wire.TypeTag, wire.Message) { delivered++ })
	}
	admit(share, false)
	if asked != 1 || verified != 0 || delivered != 0 {
		t.Errorf("refused share: asked %d, verified %d, delivered %d; want 1, 0, 0", asked, verified, delivered)
	}
	admit(share, true)
	if asked != 2 || verified != 1 || delivered != 1 {
		t.Errorf("wanted share: asked %d, verified %d, delivered %d; want 2, 1, 1", asked, verified, delivered)
	}

	// A frame that fails its MAC is never asked about.
	share[len(share)-1] ^= 0xFF
	admit(share, true)
	if asked != 2 || verified != 1 || delivered != 1 {
		t.Errorf("forged MAC frame: asked %d, verified %d, delivered %d; want 2, 1, 1", asked, verified, delivered)
	}
}

func TestAuthDomainUnknownTag(t *testing.T) {
	if _, err := authDomain(99); err == nil {
		t.Error("unknown tag accepted")
	}
	if err := SealMulti(nil, 99, nil, []ids.NodeID{1}, func(ids.NodeID, []byte) {}); err == nil {
		t.Error("SealMulti with unknown tag accepted")
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
