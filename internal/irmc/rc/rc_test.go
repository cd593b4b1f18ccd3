package rc

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/irmctest"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

func newChannel(t *testing.T, o irmctest.Options) *irmctest.Channel {
	t.Helper()
	senders, receivers := irmctest.Groups()
	suites := o.SuiteSet()
	net := memnet.New(memnet.Options{})
	stream := transport.MakeStream(transport.KindBench, 1)

	c := &irmctest.Channel{Net: net, SenderG: senders, ReceiverG: receivers}
	for _, id := range senders.Members {
		s, err := NewSender(irmc.Config{
			Senders:   senders,
			Receivers: receivers,
			Capacity:  o.Capacity,
			Suite:     suites[id],
			Node:      net.Node(id),
			Stream:    stream,
		})
		if err != nil {
			t.Fatalf("NewSender(%v): %v", id, err)
		}
		c.Senders = append(c.Senders, s)
	}
	for _, id := range receivers.Members {
		r, err := NewReceiver(irmc.Config{
			Senders:   senders,
			Receivers: receivers,
			Capacity:  o.Capacity,
			Suite:     suites[id],
			Node:      net.Node(id),
			Stream:    stream,
		})
		if err != nil {
			t.Fatalf("NewReceiver(%v): %v", id, err)
		}
		c.Receivers = append(c.Receivers, r)
	}
	return c
}

func TestConformance(t *testing.T) {
	irmctest.Run(t, newChannel)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSender(irmc.Config{}); err == nil {
		t.Error("empty sender config accepted")
	}
	if _, err := NewReceiver(irmc.Config{}); err == nil {
		t.Error("empty receiver config accepted")
	}
}

// TestResendRepairsMissedSend: a receiver cut off while the senders
// sent position 1 asks for it again once a Receive has been stuck there
// on two consecutive ticks, and then delivers. The test ticks the
// receiver itself, on synthetic time; frames travel only when flushed.
func TestResendRepairsMissedSend(t *testing.T) {
	const never = 3_600_000 // ms: the endpoints' own timers never fire
	sg, rg := irmctest.Groups()
	suites := irmctest.Suites()
	w := irmctest.NewWire()
	cfg := func(id ids.NodeID) irmc.Config {
		return irmc.Config{Senders: sg, Receivers: rg, Capacity: 8, Suite: suites[id], Node: w.Node(id),
			Stream: transport.MakeStream(transport.KindBench, 1), Resend: true,
			ProgressIntervalMS: never, CollectorTimeoutMS: never}
	}
	var senders []*Sender
	for _, id := range sg.Members {
		s, err := NewSender(cfg(id))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		senders = append(senders, s)
	}
	lost, err := NewReceiver(cfg(rg.Members[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer lost.Close()

	want := []byte("sent while cut off")
	for _, id := range sg.Members {
		w.Cut(id, rg.Members[0], true)
	}
	for _, s := range senders {
		if err := s.Send(0, 1, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	w.Flush()
	for _, id := range sg.Members {
		w.Cut(id, rg.Members[0], false)
	}

	got := make(chan []byte, 1)
	go func() {
		msg, _ := lost.Receive(0, 1)
		got <- msg
	}()
	stuck := func() ids.Position {
		lost.Mu.Lock()
		defer lost.Mu.Unlock()
		if sub := lost.Subs[0]; sub != nil {
			return sub.Stuck()
		}
		return 0
	}
	for deadline := time.Now().Add(10 * time.Second); stuck() != 1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("Receive never blocked on position 1")
		}
	}
	start, interval := time.Now(), time.Duration(never)*time.Millisecond
	lost.Locked(func() { lost.nackStuck(start) })
	if n := w.Flush(); n != 0 {
		t.Fatalf("first tick on a stuck position sent %d frames, want none", n)
	}
	lost.Locked(func() { lost.nackStuck(start.Add(interval)) })
	w.Flush()
	if stuck() != 0 {
		t.Fatal("position 1 still stuck after the second tick")
	}
	if msg := <-got; !bytes.Equal(msg, want) {
		t.Fatalf("Receive = %q, want %q", msg, want)
	}
}
