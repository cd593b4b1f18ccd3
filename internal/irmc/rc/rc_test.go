package rc

import (
	"testing"

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
