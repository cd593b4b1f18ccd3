package core

import (
	"errors"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
)

// TestNextRetryInterval pins the capped doubling: 2s → 4s → 8s → 8s …
// and never past the cap.
func TestNextRetryInterval(t *testing.T) {
	max := 8 * time.Second
	cur := 2 * time.Second
	want := []time.Duration{4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second}
	for i, w := range want {
		cur = nextRetryInterval(cur, max)
		if cur != w {
			t.Fatalf("step %d: interval = %v, want %v", i, cur, w)
		}
	}
	if got := nextRetryInterval(10*time.Second, max); got != max {
		t.Fatalf("interval above the cap returned %v, want %v", got, max)
	}
}

// TestJitterRetry pins the ±20% band: the jittered sleep spans
// [0.8, 1.2) × interval across the rng range and is exact at the
// endpoints.
func TestJitterRetry(t *testing.T) {
	interval := time.Second
	if got := jitterRetry(interval, func() float64 { return 0 }); got != 800*time.Millisecond {
		t.Fatalf("rnd=0: %v, want 800ms", got)
	}
	if got := jitterRetry(interval, func() float64 { return 0.5 }); got != time.Second {
		t.Fatalf("rnd=0.5: %v, want 1s", got)
	}
	if got := jitterRetry(interval, func() float64 { return 0.999999 }); got >= 1200*time.Millisecond || got < time.Second {
		t.Fatalf("rnd→1: %v, want just under 1.2s", got)
	}
	// A spread of draws stays inside the band.
	for _, r := range []float64{0.1, 0.25, 0.4, 0.6, 0.75, 0.9} {
		r := r
		got := jitterRetry(interval, func() float64 { return r })
		if got < 800*time.Millisecond || got > 1200*time.Millisecond {
			t.Fatalf("rnd=%.2f: %v escaped [0.8s, 1.2s]", r, got)
		}
	}
}

// TestClientConfigRetryDefaults: RetryMax defaults to 8× Retry.
func TestClientConfigRetryDefaults(t *testing.T) {
	cfg := ClientConfig{Retry: 2 * time.Second}
	cfg.applyDefaults()
	if cfg.RetryMax != 16*time.Second {
		t.Fatalf("RetryMax default = %v, want 8× Retry = 16s", cfg.RetryMax)
	}
}

// TestClientRetryBacksOff: a client nobody answers re-broadcasts on the
// backed-off schedule — there is no other — so the second retry waits
// longer than the first (0.8–1.2 × Retry, then 1.6–2.4 × Retry).
func TestClientRetryBacksOff(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3}, F: 1}
	suites := crypto.NewSuites(append([]ids.NodeID{101}, group.Members...), crypto.SuiteInsecure)

	arrivals := make(chan time.Time, 16) // a 700 ms deadline sees four broadcasts
	net.Node(1).Handle(clientStream(group.ID), func(ids.NodeID, []byte) {
		arrivals <- time.Now()
	})
	client, err := NewClient(ClientConfig{
		ID: 101, Group: group, Suite: suites[101], Node: net.Node(101),
		Retry: 100 * time.Millisecond, Deadline: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("unanswered")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Write without replicas: %v, want ErrTimeout", err)
	}
	if len(arrivals) < 3 {
		t.Fatalf("%d broadcasts before the deadline, want at least 3", len(arrivals))
	}
	t0, t1, t2 := <-arrivals, <-arrivals, <-arrivals
	if first, second := t1.Sub(t0), t2.Sub(t1); second <= first {
		t.Fatalf("second retry waited %v, the first %v: the interval did not back off", second, first)
	}
}
