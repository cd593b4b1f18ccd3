package rc

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/irmctest"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlowStatsCountAcksAndBlocks pins the window auto-sizer's
// measurement inputs: positions the receiver ack quorum drains past
// count as Acked, and a Send stalling on a full effective window
// counts as Blocked and completes once acks advance the window. The
// sender's own move ticks neither.
func TestFlowStatsCountAcksAndBlocks(t *testing.T) {
	const sc = ids.Subchannel(3)
	c := newChannel(t, irmctest.Options{Capacity: 8})
	defer c.Close()
	s := c.Senders[0].(*Sender)

	// Fill positions 1..4 from every sender so receivers resolve them.
	for p := ids.Position(1); p <= 4; p++ {
		msg := fmt.Appendf(nil, "flow-%d", p)
		for _, snd := range c.Senders {
			if err := snd.Send(sc, p, msg); err != nil {
				t.Fatalf("send %d: %v", p, err)
			}
		}
		for _, r := range c.Receivers {
			if _, err := r.Receive(sc, p); err != nil {
				t.Fatalf("receive %d: %v", p, err)
			}
		}
	}
	st := s.FlowStats(sc)
	if st.Acked != 0 || st.Blocked != 0 {
		t.Fatalf("counters before any window move: %+v", st)
	}
	if st.Outstanding != 4 || st.Capacity != 8 {
		t.Fatalf("outstanding/capacity = %d/%d, want 4/8", st.Outstanding, st.Capacity)
	}

	// Receivers drain: every receiver moves its window to 5, the
	// fr+1-highest ack advances the sender window by 4.
	for _, r := range c.Receivers {
		r.MoveWindow(sc, 5)
	}
	waitCond(t, "acks to drain 4 positions", func() bool {
		return s.FlowStats(sc).Acked == 4
	})
	if st = s.FlowStats(sc); st.Outstanding != 0 {
		t.Fatalf("outstanding after full drain = %d, want 0", st.Outstanding)
	}

	// Shrink the effective window to 2: position 7 (window start 5,
	// max 6) must stall and count as blocked, then complete when the
	// receivers drain past 5.
	s.SetCapacity(sc, 2)
	if got := s.FlowStats(sc).Capacity; got != 2 {
		t.Fatalf("capacity after shrink = %d, want 2", got)
	}
	for p := ids.Position(5); p <= 6; p++ {
		msg := fmt.Appendf(nil, "flow-%d", p)
		for _, snd := range c.Senders {
			if err := snd.Send(sc, p, msg); err != nil {
				t.Fatalf("send %d: %v", p, err)
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Send(sc, 7, []byte("flow-7")) }()
	waitCond(t, "send 7 to stall on the shrunk window", func() bool {
		return s.FlowStats(sc).Blocked == 1
	})
	select {
	case err := <-done:
		t.Fatalf("send 7 completed through a 2-position window at start 5: %v", err)
	default:
	}
	for _, r := range c.Receivers {
		for p := ids.Position(5); p <= 6; p++ {
			if _, err := r.Receive(sc, p); err != nil {
				t.Fatalf("receive %d: %v", p, err)
			}
		}
		r.MoveWindow(sc, 7)
	}
	if err := <-done; err != nil {
		t.Fatalf("send 7 after drain: %v", err)
	}

	// A sender-requested move admits the Send behind it at once — that
	// is not a stall — and the positions it skips were not drained by
	// anyone: Acked only follows the receiver quorum, which a single
	// sender's Move does not shift.
	before := s.FlowStats(sc)
	s.MoveWindow(sc, 20)
	if err := s.Send(sc, 20, []byte("flow-20")); err != nil {
		t.Fatalf("send 20 after own move: %v", err)
	}
	if st = s.FlowStats(sc); st.Blocked != before.Blocked || st.Acked != before.Acked || st.Outstanding != 1 {
		t.Fatalf("after own move to 20: %+v, want blocked/acked unchanged from %+v and 1 outstanding", st, before)
	}
	// Once the other senders move too, the receivers follow and
	// announce 20: now the quorum has passed 7..19.
	for _, snd := range c.Senders[1:] {
		snd.MoveWindow(sc, 20)
	}
	waitCond(t, "receiver quorum to announce the move", func() bool {
		return s.FlowStats(sc).Acked == before.Acked+13
	})
	if got := s.FlowStats(sc).Blocked; got != before.Blocked {
		t.Fatalf("blocked = %d after the quorum caught up, want %d", got, before.Blocked)
	}

	// Growing the window back wakes nothing retroactively but must
	// clamp to the configured capacity on both ends.
	s.SetCapacity(sc, 1000)
	if got := s.FlowStats(sc).Capacity; got != 8 {
		t.Fatalf("capacity after oversized grow = %d, want the configured 8", got)
	}
	s.SetCapacity(sc, 0)
	if got := s.FlowStats(sc).Capacity; got != 1 {
		t.Fatalf("capacity after zero request = %d, want the floor 1", got)
	}
}

// TestSetCapacityUnblocksWaiters: a Send stalled on a shrunk window
// completes as soon as the auto-sizer grows it again — no ack needed.
func TestSetCapacityUnblocksWaiters(t *testing.T) {
	const sc = ids.Subchannel(4)
	c := newChannel(t, irmctest.Options{Capacity: 8})
	defer c.Close()
	s := c.Senders[0].(*Sender)

	s.SetCapacity(sc, 1)
	if err := s.Send(sc, 1, []byte("a")); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Send(sc, 2, []byte("b")) }()
	waitCond(t, "send 2 to stall", func() bool { return s.FlowStats(sc).Blocked == 1 })
	s.SetCapacity(sc, 4)
	if err := <-done; err != nil {
		t.Fatalf("send 2 after grow: %v", err)
	}
	var fc irmc.FlowControlled = s // the resize loop's type assertion
	if got := fc.FlowStats(sc).Outstanding; got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
}
