package sc

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/irmctest"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

// truncSuite wraps a Suite so every signature it emits is cut to half
// its size — the shape of a 64-byte Ed25519 signature fed to a verifier
// or of corruption in flight.
type truncSuite struct{ crypto.Suite }

func (s truncSuite) Sign(d crypto.Domain, msg []byte) []byte {
	sig := s.Suite.Sign(d, msg)
	return sig[:len(sig)/2]
}

// newSuiteChannel builds an IRMC-SC channel where each node's crypto
// suite comes from suiteFor, so tests can hand individual nodes a
// wrong-suite or corrupted identity.
func newSuiteChannel(t *testing.T, suiteFor func(ids.NodeID) crypto.Suite) *irmctest.Channel {
	t.Helper()
	senders, receivers := irmctest.Groups()
	net := memnet.New(memnet.Options{})
	stream := transport.MakeStream(transport.KindBench, 2)

	c := &irmctest.Channel{Net: net, SenderG: senders, ReceiverG: receivers}
	for _, id := range senders.Members {
		s, err := NewSender(irmc.Config{
			Senders:            senders,
			Receivers:          receivers,
			Capacity:           8,
			Suite:              suiteFor(id),
			Node:               net.Node(id),
			Stream:             stream,
			ProgressIntervalMS: 20,
			CollectorTimeoutMS: 150,
		})
		if err != nil {
			t.Fatalf("NewSender(%v): %v", id, err)
		}
		c.Senders = append(c.Senders, s)
	}
	for _, id := range receivers.Members {
		r, err := NewReceiver(irmc.Config{
			Senders:            senders,
			Receivers:          receivers,
			Capacity:           8,
			Suite:              suiteFor(id),
			Node:               net.Node(id),
			Stream:             stream,
			ProgressIntervalMS: 20,
			CollectorTimeoutMS: 150,
		})
		if err != nil {
			t.Fatalf("NewReceiver(%v): %v", id, err)
		}
		c.Receivers = append(c.Receivers, r)
	}
	return c
}

// receiveOrFatal asserts the channel delivers the expected payload.
func receiveOrFatal(t *testing.T, c *irmctest.Channel, want []byte) {
	t.Helper()
	ch := make(chan []byte, 1)
	go func() {
		msg, err := c.Receivers[0].Receive(0, 1)
		if err == nil {
			ch <- msg
		}
	}()
	for _, s := range c.Senders {
		if err := s.Send(0, 1, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case msg := <-ch:
		if !bytes.Equal(msg, want) {
			t.Fatalf("delivered %q, want %q", msg, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("channel stalled: message never delivered")
	}
}

// TestCrossSuiteSenderDoesNotStall runs an Ed25519 deployment in which
// the default collector (sender 1) signs with RSA instead. Its 128-byte
// shares fail Ed25519 verification everywhere, and it in turn rejects
// the honest Ed25519 shares, so it can never assemble a certificate —
// the receivers must treat it exactly like a faulty collector, fail
// over, and deliver from the fs+1 honest senders.
func TestCrossSuiteSenderDoesNotStall(t *testing.T) {
	senders, receivers := irmctest.Groups()
	all := append(append([]ids.NodeID(nil), senders.Members...), receivers.Members...)
	ed := crypto.NewSuites(all, crypto.SuiteEd25519)
	rsa := crypto.NewSuites(all, crypto.SuiteRSA)
	bad := senders.Members[0]
	c := newSuiteChannel(t, func(id ids.NodeID) crypto.Suite {
		if id == bad {
			return rsa[id]
		}
		return ed[id]
	})
	defer c.Close()
	receiveOrFatal(t, c, []byte("delivered despite a wrong-suite collector"))
}

// TestTruncatedShareSigDoesNotStall gives one honest-positioned sender
// an identity whose Ed25519 signatures are truncated to 32 bytes. Its
// share envelopes pass (they carry a MAC) and the share signatures
// inside them fail verification; the remaining fs+1 intact senders
// still deliver.
func TestTruncatedShareSigDoesNotStall(t *testing.T) {
	senders, receivers := irmctest.Groups()
	all := append(append([]ids.NodeID(nil), senders.Members...), receivers.Members...)
	ed := crypto.NewSuites(all, crypto.SuiteEd25519)
	bad := senders.Members[1] // not the default collector
	c := newSuiteChannel(t, func(id ids.NodeID) crypto.Suite {
		if id == bad {
			return truncSuite{ed[id]}
		}
		return ed[id]
	})
	defer c.Close()
	receiveOrFatal(t, c, []byte("delivered despite truncated share signatures"))
}

// TestCrossSuiteCertificateRejected points an entire RSA sender group
// at Ed25519 receivers. The senders agree among themselves and assemble
// certificates (their MAC envelopes even pass, since pairwise MAC keys
// are suite-independent), but every share signature inside the
// certificate fails Ed25519 verification at the receivers — nothing may
// ever be delivered.
func TestCrossSuiteCertificateRejected(t *testing.T) {
	senders, receivers := irmctest.Groups()
	all := append(append([]ids.NodeID(nil), senders.Members...), receivers.Members...)
	ed := crypto.NewSuites(all, crypto.SuiteEd25519)
	rsa := crypto.NewSuites(all, crypto.SuiteRSA)
	c := newSuiteChannel(t, func(id ids.NodeID) crypto.Suite {
		if senders.Contains(id) {
			return rsa[id]
		}
		return ed[id]
	})
	defer c.Close()

	for _, s := range c.Senders {
		if err := s.Send(0, 1, []byte("wrong-suite certificate")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		if _, err := c.Receivers[0].Receive(0, 1); err == nil {
			close(done)
		}
	}()
	select {
	case <-done:
		t.Fatal("certificate built from wrong-suite shares was delivered")
	case <-time.After(500 * time.Millisecond):
	}
}
