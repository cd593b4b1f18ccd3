package pbft

import (
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/wire"
)

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
//
// Replica 4 gets its frames with a single reordering: the first new-view
// message is kept back — with everything its sender sends after it, so
// that link stays FIFO — until a prepare vote cast in the new view by
// another replica has been handed over. That is the order a replica sees
// when a peer installs the view a moment before it does.
func TestVoteAheadOfNewViewIsKept(t *testing.T) {
	for _, m := range batchModes {
		t.Run(m.name, func(t *testing.T) {
			s := newSim(t, func(cfg *Config) { cfg.NormalCaseAuth = m.auth })
			s.order(payloadN(0), s.members...)
			s.run("the first payload", time.Second, s.allDelivered(1))

			var kept []simFrame
			var leader ids.NodeID // sender of the kept-back new-view; 0 before and after
			released := false     // a new-view vote was handed over before the new view
			s.intercept = func(f simFrame) bool {
				if f.to != 4 || released {
					return false
				}
				tag, view := peekFrame(f.env)
				switch {
				case leader == 0 && tag == tagNewView:
					leader = f.from
				case leader != f.from && tag == tagPrepare && view > 0:
					// A vote in the new view that outruns the new-view
					// message on its own is the order under test too; the
					// new view then passes unheld.
					released = true
					s.arrive(f)
					for _, k := range kept {
						s.arrive(k)
					}
					return true
				case leader != f.from:
					return false
				}
				kept = append(kept, f)
				return true
			}

			s.down[1] = true
			s.order(payloadN(1), 2, 3, 4)
			s.run("the first instance of view 1", 15*time.Second, s.allDelivered(2))

			if !released {
				t.Fatal("the new-view message was never overtaken by a vote; the test did not test anything")
			}
			for _, id := range s.live() {
				if v := s.reps[id].core.view; v != 1 {
					t.Errorf("replica %v is in view %d: the first instance of view 1 did not complete", id, v)
				}
			}
		})
	}
}
