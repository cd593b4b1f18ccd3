package pbft

import (
	"sync"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/wire"
)

// lateNewViewNode delivers one replica's inbound frames with a single
// reordering: the first new-view message is kept back — with everything
// its sender sends after it, so that link stays FIFO — until a prepare
// vote cast in the new view by another replica has been handed over.
// That is the order a replica sees when a peer installs the view a
// moment before it does.
type lateNewViewNode struct {
	transport.Node

	mu       sync.Mutex
	leader   ids.NodeID // sender of the kept-back new-view; 0 before and after
	kept     [][]byte
	released bool
}

func (n *lateNewViewNode) Handle(stream transport.Stream, h transport.Handler) {
	n.Node.Handle(stream, func(from ids.NodeID, payload []byte) {
		tag, view := peekFrame(payload)
		n.mu.Lock()
		switch {
		case n.leader == 0 && !n.released && tag == tagNewView:
			n.leader = from
			n.kept = append(n.kept, payload)
			n.mu.Unlock()
			return
		case n.leader == from:
			n.kept = append(n.kept, payload)
			n.mu.Unlock()
			return
		}
		release := n.leader != 0 && tag == tagPrepare && view > 0
		var kept [][]byte
		var leader ids.NodeID
		if release {
			kept, leader = n.kept, n.leader
			n.kept, n.leader, n.released = nil, 0, true
		}
		n.mu.Unlock()
		h(from, payload)
		for _, p := range kept {
			h(leader, p)
		}
	})
}

// peekFrame decodes an envelope far enough to tell its type and, for a
// prepare, its view.
func peekFrame(payload []byte) (wire.TypeTag, uint64) {
	var raw signedRaw
	if wire.Decode(payload, &raw) != nil {
		return 0, 0
	}
	tag, msg, err := registry.DecodeFrame(raw.Frame)
	if err != nil {
		return 0, 0
	}
	if p, ok := msg.(*prepare); ok {
		return tag, p.View
	}
	return tag, 0
}

// TestVoteAheadOfNewViewIsKept: with the leader down every remaining
// replica's vote is needed, and PBFT never resends one. A prepare that
// reaches a replica before the new-view message it belongs to must
// therefore be counted once the view is installed; dropped, the first
// instance of the new view stalls until the group changes view again.
func TestVoteAheadOfNewViewIsKept(t *testing.T) {
	for _, m := range batchModes {
		if m.adaptive {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			var late *lateNewViewNode
			c := newCluster(t, 4, 1, func(i int, cfg *Config) {
				cfg.NormalCaseAuth = m.auth
				if i == 3 {
					late = &lateNewViewNode{Node: cfg.Node}
					cfg.Node = late
				}
			})
			defer c.stop()
			c.start()
			c.orderAll(payloadN(0))
			c.waitDeliveries(1, 5*time.Second, nil)

			c.net.Isolate(1, true)
			c.replicas[0].Stop()
			for _, r := range c.replicas[1:] {
				r.Order(payloadN(1))
			}
			c.waitDeliveries(2, 15*time.Second, func(i int) bool { return i != 0 })

			late.mu.Lock()
			released := late.released
			late.mu.Unlock()
			if !released {
				t.Fatal("the new-view message was never overtaken by a vote; the test did not test anything")
			}
			for i, r := range c.replicas[1:] {
				if v := r.View(); v != 1 {
					t.Errorf("replica %d is in view %d: the first instance of view 1 did not complete", i+1, v)
				}
			}
		})
	}
}
