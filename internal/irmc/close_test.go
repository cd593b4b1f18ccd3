package irmc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/irmctest"
	"spider/internal/irmc/rc"
	"spider/internal/irmc/sc"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
)

// countingNode counts the frames an endpoint hands to the transport.
type countingNode struct {
	transport.Node
	sent *atomic.Int64
}

func (n countingNode) Send(to ids.NodeID, s transport.Stream, payload []byte) {
	n.sent.Add(1)
	n.Node.Send(to, s, payload)
}

// TestCloseSilences: endpoints whose ticks have something to send every
// time — moves no receiver acknowledges, a Receive stuck on a position
// nobody sent — send nothing at all once Close has returned, for three
// of their longest tick intervals.
func TestCloseSilences(t *testing.T) {
	const progressMS, collectorMS = 5, 20 // ticks: senders 5 ms, receivers 20 ms (RC), 10 ms (SC)
	type kind struct {
		sender   func(irmc.Config) (irmc.Sender, error)
		receiver func(irmc.Config) (irmc.Receiver, error)
	}
	kinds := map[string]kind{
		"rc": {func(c irmc.Config) (irmc.Sender, error) { return rc.NewSender(c) },
			func(c irmc.Config) (irmc.Receiver, error) { return rc.NewReceiver(c) }},
		"sc": {func(c irmc.Config) (irmc.Sender, error) { return sc.NewSender(c) },
			func(c irmc.Config) (irmc.Receiver, error) { return sc.NewReceiver(c) }},
	}
	for name, k := range kinds {
		t.Run(name, func(t *testing.T) {
			sg, rg := irmctest.Groups()
			suites := irmctest.Suites()
			net := memnet.New(memnet.Options{})
			defer net.Close()
			var sent atomic.Int64
			cfg := func(id ids.NodeID) irmc.Config {
				return irmc.Config{
					Senders: sg, Receivers: rg, Capacity: 8, Suite: suites[id],
					Node: countingNode{net.Node(id), &sent}, Stream: transport.MakeStream(transport.KindBench, 4),
					Resend: true, ProgressIntervalMS: progressMS, CollectorTimeoutMS: collectorMS,
				}
			}
			var endpoints []interface{ Close() }
			var senders []irmc.Sender
			var receivers []irmc.Receiver
			for _, id := range sg.Members {
				s, err := k.sender(cfg(id))
				if err != nil {
					t.Fatal(err)
				}
				endpoints, senders = append(endpoints, s), append(senders, s)
			}
			for _, id := range rg.Members {
				r, err := k.receiver(cfg(id))
				if err != nil {
					t.Fatal(err)
				}
				endpoints, receivers = append(endpoints, r), append(receivers, r)
			}
			for _, s := range sg.Members {
				for _, r := range rg.Members {
					net.Cut(s, r, true)
				}
			}
			for _, s := range senders {
				s.MoveWindow(0, 5)
			}
			for _, r := range receivers {
				go r.Receive(0, 5)
			}
			for deadline := time.Now().Add(10 * time.Second); sent.Load() < 100; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d frames sent by the ticks", sent.Load())
				}
			}
			for _, e := range endpoints {
				e.Close()
			}
			before := sent.Load()
			time.Sleep(3 * collectorMS * time.Millisecond)
			if n := sent.Load() - before; n != 0 {
				t.Fatalf("%d frames sent after Close returned", n)
			}
		})
	}
}
