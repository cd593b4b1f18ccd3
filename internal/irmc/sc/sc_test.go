package sc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/irmctest"
	"spider/internal/irmc/rc"
	"spider/internal/topo"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

func newChannelTimeouts(t *testing.T, o irmctest.Options, progressMS, collectorMS int) *irmctest.Channel {
	t.Helper()
	senders, receivers := irmctest.Groups()
	suites := o.SuiteSet()
	net := memnet.New(memnet.Options{})
	stream := transport.MakeStream(transport.KindBench, 2)

	c := &irmctest.Channel{Net: net, SenderG: senders, ReceiverG: receivers}
	for _, id := range senders.Members {
		s, err := NewSender(irmc.Config{
			Senders:            senders,
			Receivers:          receivers,
			Capacity:           o.Capacity,
			Suite:              suites[id],
			Node:               net.Node(id),
			Stream:             stream,
			ProgressIntervalMS: progressMS,
			CollectorTimeoutMS: collectorMS,
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
			Capacity:           o.Capacity,
			Suite:              suites[id],
			Node:               net.Node(id),
			Stream:             stream,
			ProgressIntervalMS: progressMS,
			CollectorTimeoutMS: collectorMS,
		})
		if err != nil {
			t.Fatalf("NewReceiver(%v): %v", id, err)
		}
		c.Receivers = append(c.Receivers, r)
	}
	return c
}

func newChannel(t *testing.T, o irmctest.Options) *irmctest.Channel {
	return newChannelTimeouts(t, o, 20, 200)
}

func TestConformance(t *testing.T) {
	irmctest.Run(t, newChannel)
}

// never is an endpoint interval, in ms, that outlasts any test: the
// tests that tick the endpoints themselves build them with it.
const never = 3_600_000

// wireChannel builds a channel of capacity 8 on w whose endpoints' own
// timers never fire; the test calls their ticks.
func wireChannel(t *testing.T, w *irmctest.Wire) (senders []*Sender, receivers []*Receiver) {
	t.Helper()
	sg, rg := irmctest.Groups()
	suites := irmctest.Suites()
	cfg := func(id ids.NodeID) irmc.Config {
		return irmc.Config{Senders: sg, Receivers: rg, Capacity: 8, Suite: suites[id], Node: w.Node(id),
			Stream: transport.MakeStream(transport.KindBench, 2), ProgressIntervalMS: never, CollectorTimeoutMS: never}
	}
	for _, id := range sg.Members {
		s, err := NewSender(cfg(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		senders = append(senders, s)
	}
	for _, id := range rg.Members {
		r, err := NewReceiver(cfg(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		receivers = append(receivers, r)
	}
	return senders, receivers
}

// TestCollectorFailover cuts the default collector off from the
// receivers; progress announcements from the other senders must make
// the receivers switch collectors and obtain the certificates anyway
// (Section 4, "protection against faulty collectors"). The test ticks
// every endpoint itself, on synthetic time: a receiver does not switch
// before the collector timeout and switches once after it.
func TestCollectorFailover(t *testing.T) {
	w := irmctest.NewWire()
	senders, receivers := wireChannel(t, w)
	sg, rg := irmctest.Groups()
	// Sever collector (sender 1) <-> all receivers, keeping the
	// sender group fully connected so certificates still assemble.
	for _, rr := range rg.Members {
		w.Cut(sg.Members[0], rr, true)
	}
	want := []byte("despite faulty collector")
	for _, s := range senders {
		if err := s.Send(0, 1, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	w.Flush()

	tick := func(now time.Time) {
		for _, s := range senders {
			s.Locked(func() { s.tick(now) })
		}
		for _, r := range receivers {
			r.Locked(func() { r.checkCollectors(now) })
		}
		w.Flush()
	}
	state := func(r *Receiver) (delivered bool, collector ids.NodeID, epoch uint64) {
		r.Mu.Lock()
		defer r.Mu.Unlock()
		sub := r.Subs[0]
		if sub == nil {
			return false, 0, 0
		}
		return sub.Delivered(1), sub.X.collector, sub.X.epoch
	}
	// Progress arrives stamped with the time of its arrival, before
	// start + timeout.
	start, timeout := time.Now(), time.Duration(never)*time.Millisecond
	for _, now := range []time.Time{start, start.Add(timeout / 2)} {
		tick(now)
		for i, r := range receivers {
			if delivered, _, epoch := state(r); delivered || epoch != 0 {
				t.Fatalf("receiver %d before the timeout: delivered %v, epoch %d", i, delivered, epoch)
			}
		}
	}
	tick(start.Add(2 * timeout))
	for i, r := range receivers {
		delivered, collector, epoch := state(r)
		if !delivered || collector != sg.Members[1] || epoch != 1 {
			t.Fatalf("receiver %d after the timeout: delivered %v, collector %v, epoch %d; want true, %v, 1",
				i, delivered, collector, epoch, sg.Members[1])
		}
		if msg, err := r.Receive(0, 1); err != nil || !bytes.Equal(msg, want) {
			t.Fatalf("receiver %d: Receive = %q, %v", i, msg, err)
		}
	}
}

// TestEarlyShareAssemblesWithoutFailover: the peers' shares reach the
// default collector before its window covers the position (they moved
// first); the window advance comes second. The collector must hold the
// shares and assemble the certificate itself — with the shares dropped
// it never could, and delivery would wait for the receivers' watchdog
// to rotate collectors, which the 30 s timeout here rules out.
func TestEarlyShareAssemblesWithoutFailover(t *testing.T) {
	c := newChannelTimeouts(t, irmctest.Options{Capacity: 2}, 20, 30_000)
	defer c.Close()
	collector := c.Senders[0].(*Sender)
	// Keep the receivers' announcements from the collector, so that
	// only its own MoveWindow advances its window.
	for _, r := range c.ReceiverG.Members {
		c.Net.SetDropRate(r, c.SenderG.Members[0], 1)
	}

	want := []byte("shares first, window second")
	for _, s := range c.Senders[1:] {
		s.MoveWindow(0, 10)
		if err := s.Send(0, 10, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, peer := range c.SenderG.Members[1:] {
		for collector.Held(0, peer) != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("share of sender %v never reached the collector's hold", peer)
			}
			time.Sleep(time.Millisecond)
		}
	}

	collector.MoveWindow(0, 10)
	if err := collector.Send(0, 10, want); err != nil {
		t.Fatalf("collector Send: %v", err)
	}
	for _, r := range c.Receivers {
		got := make(chan []byte, 1)
		go func() {
			if msg, err := r.Receive(0, 10); err == nil {
				got <- msg
			}
		}()
		select {
		case msg := <-got:
			if !bytes.Equal(msg, want) {
				t.Fatalf("delivered %q", msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no certificate from the default collector")
		}
		rr := r.(*Receiver)
		rr.Mu.Lock()
		epoch, coll := rr.Subs[0].X.epoch, rr.Subs[0].X.collector
		rr.Mu.Unlock()
		if epoch != 0 || coll != c.SenderG.Members[0] {
			t.Fatalf("receiver switched to collector %v (epoch %d)", coll, epoch)
		}
	}
}

// gatedSigner blocks every share signature until released, so a test
// can act while Send is between its two locked sections.
type gatedSigner struct {
	crypto.Suite
	entered chan struct{}
	release chan struct{}
}

func (g gatedSigner) Sign(d crypto.Domain, msg []byte) []byte {
	if d == crypto.DomainIRMCShare {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Suite.Sign(d, msg)
}

// TestSendSignsOutsideTheLock: while Send signs its share the endpoint
// lock is free — a window move goes through — and a move that passes
// the position meanwhile leaves nothing of it behind: the own share is
// not admitted below the window, where nothing would ever prune it.
func TestSendSignsOutsideTheLock(t *testing.T) {
	suites := irmctest.Suites()
	gate := gatedSigner{Suite: suites[1], entered: make(chan struct{}), release: make(chan struct{})}
	suites[1] = gate
	c := newChannel(t, irmctest.Options{Capacity: 8, NodeSuites: suites})
	defer c.Close()
	s := c.Senders[0].(*Sender)

	sent := make(chan error, 1)
	go func() { sent <- s.Send(0, 3, []byte("overtaken")) }()
	<-gate.entered
	moved := make(chan struct{})
	go func() {
		s.MoveWindow(0, 10)
		close(moved)
	}()
	select {
	case <-moved:
	case <-time.After(5 * time.Second):
		t.Fatal("MoveWindow waited for a share signature: Send signs under the endpoint lock")
	}
	close(gate.release)
	if err := <-sent; err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Mu.Lock()
	defer s.Mu.Unlock()
	sub := s.Subs[0].X
	if _, ok := sub.data[3]; ok {
		t.Error("payload of a position below the window retained")
	}
	if len(sub.shares.At(3)) != 0 || sub.certs[3] != nil {
		t.Error("own share admitted below the window")
	}
}

// TestShareEquivocationHoldsOneShare: a faulty peer that signs many
// digests for one in-window position gets one share there — one
// verification, one stored signature — whatever the others carry, and
// the position still gets its certificate once the correct senders send.
func TestShareEquivocationHoldsOneShare(t *testing.T) {
	suites := irmctest.Suites()
	c := newChannel(t, irmctest.Options{Capacity: 8, NodeSuites: suites})
	defer c.Close()
	collector := c.Senders[0].(*Sender)
	peer := c.SenderG.Members[1]
	const p = ids.Position(3)

	wanted := 0
	for i := range 500 {
		d := crypto.Hash([]byte(fmt.Sprintf("equivocation %d", i)))
		m := &irmc.SigShareMsg{Subchannel: 0, Position: p, Digest: d,
			Sig: suites[peer].Sign(crypto.DomainIRMCShare, irmc.SharePayload(0, p, d))}
		collector.Locked(func() {
			if collector.wantShare(peer, m) {
				wanted++
			}
			collector.onShare(peer, m)
		})
	}
	collector.Mu.Lock()
	stored := 0
	for _, v := range collector.Subs[0].X.shares.At(p) {
		if v.From == peer {
			stored++
		}
	}
	collector.Mu.Unlock()
	if wanted > 1 || stored > 1 {
		t.Fatalf("one peer's equivocating shares at one position: %d wanted, %d stored, want at most 1", wanted, stored)
	}

	want := []byte("certified despite the equivocation")
	got := make(chan []byte, 1)
	go func() {
		if msg, err := c.Receivers[0].Receive(0, p); err == nil {
			got <- msg
		}
	}()
	for _, s := range []irmc.Sender{c.Senders[0], c.Senders[2]} {
		if err := s.Send(0, p, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case msg := <-got:
		if !bytes.Equal(msg, want) {
			t.Fatalf("delivered %q", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no certificate after the correct senders sent")
	}
}

// TestCertificateRejectsForgery checks a certificate with too few or
// invalid shares never delivers.
func TestCertificateRejectsForgery(t *testing.T) {
	c := newChannel(t, irmctest.Options{Capacity: 8})
	defer c.Close()

	// A single sender (Byzantine) submits; even as the collector it
	// can never assemble fs+1 valid shares.
	if err := c.Senders[0].Send(0, 1, []byte("forged")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := c.Receivers[0].Receive(0, 1); err == nil {
			close(done)
		}
	}()
	select {
	case <-done:
		t.Fatal("single-sender content was delivered")
	case <-time.After(400 * time.Millisecond):
	}
}

// TestWANSavings verifies the headline IRMC-SC property: for the same
// workload it moves far fewer wide-area bytes than IRMC-RC, because
// only one certificate per receiver crosses the WAN while the share
// exchange stays inside the sender region (Figure 9d).
func TestWANSavings(t *testing.T) {
	senders, receivers := irmctest.Groups()
	suites := irmctest.Suites()
	stream := transport.MakeStream(transport.KindBench, 3)

	placedNet := func() *memnet.Network {
		p := topo.NewPlacement(0.0005) // keep emulated latency negligible
		for i, id := range senders.Members {
			p.Place(id, topo.Site{Region: topo.Virginia, Zone: i})
		}
		for i, id := range receivers.Members {
			p.Place(id, topo.Site{Region: topo.Tokyo, Zone: i})
		}
		return memnet.New(memnet.Options{Placement: p})
	}

	run := func(c *irmctest.Channel) int64 {
		defer c.Close()
		payload := bytes.Repeat([]byte("x"), 1024)
		for p := ids.Position(1); p <= 32; p++ {
			for _, s := range c.Senders {
				if err := s.Send(0, p, payload); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
		}
		for p := ids.Position(1); p <= 32; p++ {
			if _, err := c.Receivers[0].Receive(0, p); err != nil {
				t.Fatalf("Receive: %v", err)
			}
		}
		return c.Net.Stats().BytesWAN()
	}

	scNet := placedNet()
	scChannel := &irmctest.Channel{Net: scNet, SenderG: senders, ReceiverG: receivers}
	for _, id := range senders.Members {
		s, err := NewSender(irmc.Config{
			Senders: senders, Receivers: receivers, Capacity: 64,
			Suite: suites[id], Node: scNet.Node(id), Stream: stream,
			ProgressIntervalMS: 50, CollectorTimeoutMS: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		scChannel.Senders = append(scChannel.Senders, s)
	}
	for _, id := range receivers.Members {
		r, err := NewReceiver(irmc.Config{
			Senders: senders, Receivers: receivers, Capacity: 64,
			Suite: suites[id], Node: scNet.Node(id), Stream: stream,
			ProgressIntervalMS: 50, CollectorTimeoutMS: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		scChannel.Receivers = append(scChannel.Receivers, r)
	}
	scBytes := run(scChannel)

	rcNet := placedNet()
	rcChannel := &irmctest.Channel{Net: rcNet, SenderG: senders, ReceiverG: receivers}
	for _, id := range senders.Members {
		s, err := rc.NewSender(irmc.Config{
			Senders: senders, Receivers: receivers, Capacity: 64,
			Suite: suites[id], Node: rcNet.Node(id), Stream: stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		rcChannel.Senders = append(rcChannel.Senders, s)
	}
	for _, id := range receivers.Members {
		r, err := rc.NewReceiver(irmc.Config{
			Senders: senders, Receivers: receivers, Capacity: 64,
			Suite: suites[id], Node: rcNet.Node(id), Stream: stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		rcChannel.Receivers = append(rcChannel.Receivers, r)
	}
	rcBytes := run(rcChannel)

	if scBytes >= rcBytes {
		t.Fatalf("IRMC-SC moved %d WAN bytes, IRMC-RC %d; expected SC < RC", scBytes, rcBytes)
	}
}
