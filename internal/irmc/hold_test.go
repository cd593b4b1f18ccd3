package irmc

import (
	"math/rand"
	"testing"

	"spider/internal/ids"
)

// TestSenderWindowOwnMoveIsImmediate pins the sender-side window rule:
// start = max(own move, fr+1-highest receiver announcement), with the
// drained count following the receiver quorum alone.
func TestSenderWindowOwnMoveIsImmediate(t *testing.T) {
	receivers := ids.Group{Members: []ids.NodeID{11, 12, 13, 14}, F: 1}
	w := NewSenderWindow(2)

	fresh, advanced := w.Request(10)
	if !fresh || !advanced || w.Start != 10 || w.Max() != 11 {
		t.Fatalf("Request(10): fresh=%v advanced=%v window=[%d,%d]", fresh, advanced, w.Start, w.Max())
	}
	if fresh, advanced = w.Request(7); fresh || advanced || w.Start != 10 {
		t.Fatalf("Request(7) after 10: fresh=%v advanced=%v start=%d", fresh, advanced, w.Start)
	}
	if pos, lag := w.Unacknowledged(receivers.Members); pos != 10 || len(lag) != 4 {
		t.Fatalf("Unacknowledged = %d %v, want 10 and all four receivers", pos, lag)
	}

	// One receiver (≤ fr) announcing far ahead moves nothing.
	if drained, advanced := w.Announce(11, 50, receivers); drained != 0 || advanced {
		t.Fatalf("single announcement: drained=%d advanced=%v", drained, advanced)
	}
	// The quorum catching up with the own move drains positions 1..9
	// without moving the start, which is already there.
	drained, advanced := w.Announce(12, 10, receivers)
	if drained != 9 || advanced || w.Start != 10 {
		t.Fatalf("quorum at 10: drained=%d advanced=%v start=%d", drained, advanced, w.Start)
	}
	// The quorum passing the own move moves the start.
	drained, advanced = w.Announce(12, 12, receivers)
	if drained != 2 || !advanced || w.Start != 12 {
		t.Fatalf("quorum at 12: drained=%d advanced=%v start=%d", drained, advanced, w.Start)
	}
	if _, lag := w.Unacknowledged(receivers.Members); len(lag) != 2 {
		t.Fatalf("lagging receivers = %v, want the two silent ones", lag)
	}
	// A request below the current start is still announced (fresh) but
	// moves nothing here.
	if fresh, advanced = w.Request(11); !fresh || advanced || w.Start != 12 {
		t.Fatalf("Request(11) below start: fresh=%v advanced=%v start=%d", fresh, advanced, w.Start)
	}
}

func TestHoldReleasesWhatTheWindowReaches(t *testing.T) {
	h := NewHold[string](2)
	h.Put(1, 10, "a10")
	h.Put(1, 10, "dup") // first submission per peer and position wins
	h.Put(1, 11, "a11")
	h.Put(2, 10, "b10")
	h.Put(2, 4, "b4") // more than a window below peer 2's newest: refused
	if h.Len(1) != 2 || h.Len(2) != 1 {
		t.Fatalf("held %d/%d, want 2/1", h.Len(1), h.Len(2))
	}

	got := map[ids.NodeID]map[ids.Position]string{1: {}, 2: {}}
	admit := func(peer ids.NodeID, p ids.Position, v string) { got[peer][p] = v }

	h.Release(Window{Start: 5, Capacity: 2}, admit) // [5,6]: nothing reached
	if len(got[1])+len(got[2]) != 0 || h.Len(1) != 2 {
		t.Fatalf("released %v before the window reached anything", got)
	}
	h.Release(Window{Start: 10, Capacity: 1}, admit) // [10,10]
	if got[1][10] != "a10" || got[2][10] != "b10" || len(got[1]) != 1 {
		t.Fatalf("released %v at [10,10]", got)
	}
	h.Release(Window{Start: 12, Capacity: 2}, admit) // 11 is stale now
	if len(got[1]) != 1 || h.Len(1) != 0 {
		t.Fatalf("stale entry admitted or kept: %v, %d held", got, h.Len(1))
	}

	h.Put(3, 20, "c20")
	h.Put(3, 21, "c21")
	h.DropBelow(3, 21)
	if h.Len(3) != 1 {
		t.Fatalf("DropBelow kept %d entries, want 1", h.Len(3))
	}
}

// TestHoldBoundedPerPeer: whatever one peer submits, it never occupies
// more than capacity entries, never disturbs another peer's, and what a
// correct peer has outstanding (a run inside one window) survives.
func TestHoldBoundedPerPeer(t *testing.T) {
	const capacity = 3
	rng := rand.New(rand.NewSource(14))
	h := NewHold[int](capacity)
	h.Put(1, 100, 0)
	h.Put(1, 101, 0)
	h.Put(1, 102, 0)
	for i := 0; i < 10_000; i++ {
		h.Put(2, ids.Position(rng.Intn(1<<20)+1), i)
		if n := h.Len(2); n > capacity {
			t.Fatalf("after %d puts the faulty peer holds %d entries, capacity %d", i+1, n, capacity)
		}
	}
	if h.Len(1) != 3 {
		t.Fatalf("correct peer's entries = %d, want 3", h.Len(1))
	}
	released := 0
	h.Release(Window{Start: 100, Capacity: capacity}, func(peer ids.NodeID, _ ids.Position, _ int) {
		if peer == 1 {
			released++
		}
	})
	if released != 3 {
		t.Fatalf("released %d of the correct peer's entries, want 3", released)
	}
}
