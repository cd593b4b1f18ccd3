package core

import (
	"testing"
	"time"
)

// TestClientSessionsWithCounterJumps models what cmd/spider-client
// does: several short-lived client processes share one identity, each
// seeding its request counter from a clock. Every session's first
// request jumps the client's subchannel window far ahead; the system
// must execute each request exactly once.
func TestClientSessionsWithCounterJumps(t *testing.T) {
	d := newDeployment(t, 1, nil, 101)
	d.start()

	base := uint64(1_000_000_000_000)
	for session := 0; session < 3; session++ {
		c, err := NewClient(ClientConfig{
			ID:             101,
			Group:          d.execGroups[0],
			AgreementGroup: d.agGroup,
			Suite:          d.suites[101],
			Node:           d.net.Node(101),
			Retry:          500 * time.Millisecond,
			Deadline:       10 * time.Second,
			CounterStart:   base + uint64(session)*1_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Write(incOp("visits", 1))
		if err != nil {
			t.Fatalf("session %d write: %v", session, err)
		}
		got := decodeResult(t, res)
		if got.Counter != int64(session+1) {
			t.Fatalf("session %d: counter = %d, want %d (request replayed or skipped)",
				session, got.Counter, session+1)
		}
	}
}
