package pbft

import (
	"strings"
	"testing"
	"time"
)

// monitorTestConfig returns the Config the synthetic-clock tests below
// run the monitor under: a 100ms interval, 200ms of grace and an 800ms
// cooldown, all derived from the request timeout.
func monitorTestConfig() *Config {
	return &Config{RequestTimeout: 800 * time.Millisecond}
}

// feedHealthy advances the monitor through n intervals of healthy
// traffic: 10 deliveries per interval at ~5ms latency, evaluated each
// tick. Returns the clock after the last interval.
func feedHealthy(t *testing.T, m *monitor, start time.Time, n int) time.Time {
	t.Helper()
	now := start
	for i := 0; i < n; i++ {
		now = now.Add(100 * time.Millisecond)
		m.observeArrival(now)
		m.observeDelivery(now, 10)
		if reason := m.evaluate(now, 0, true, 5*time.Millisecond, 5*time.Millisecond); reason != "" {
			t.Fatalf("healthy interval %d accused the leader: %s", i, reason)
		}
	}
	return now
}

// TestMonitorAccusesSlowLeader drives the monitor with a synthetic
// clock: after a healthy baseline, a leader degraded to ~40× the
// healthy latency and a fraction of the healthy throughput must be
// accused — no sooner than monitorStrikes intervals into the fault
// (hysteresis), and within a handful of intervals overall (the
// 4-interval sliding rate window still carries healthy history for the
// first ticks, so detection lands once it drains plus the strikes).
func TestMonitorAccusesSlowLeader(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newMonitor(monitorTestConfig(), t0)
	now := feedHealthy(t, m, t0, 8)

	// Gray degradation: one delivery per interval at 200ms latency.
	accusedAt := 0
	for i := 1; i <= 10 && accusedAt == 0; i++ {
		now = now.Add(100 * time.Millisecond)
		m.observeDelivery(now, 1)
		if reason := m.evaluate(now, 0, true, 200*time.Millisecond, 200*time.Millisecond); reason != "" {
			accusedAt = i
			if !strings.Contains(reason, "view 0") {
				t.Fatalf("reason %q does not name the view", reason)
			}
		}
	}
	if accusedAt == 0 {
		t.Fatal("no accusation within 10 slow intervals")
	}
	if accusedAt < 3 {
		t.Fatalf("accused after %d intervals, before monitorStrikes=3 could accumulate", accusedAt)
	}
	if accusedAt > 8 {
		t.Fatalf("accusation took %d intervals, want within window drain + strikes", accusedAt)
	}
	if n, reasons := m.rotations, m.reasons; n != 1 || len(reasons) != 1 {
		t.Fatalf("rotations = %d, reasons = %d, want 1/1", n, len(reasons))
	}
}

// TestMonitorTwoSignalRule pins the false-positive defenses: an
// overload spike (latency up, throughput still at capacity) and a load
// drop (throughput down, latency healthy) must not accuse, and without
// live demand nothing may accuse regardless of the measurements.
func TestMonitorTwoSignalRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newMonitor(monitorTestConfig(), t0)
	now := feedHealthy(t, m, t0, 8)

	// Overload: latency blows past the threshold, throughput holds.
	for i := 0; i < 5; i++ {
		now = now.Add(100 * time.Millisecond)
		m.observeDelivery(now, 10)
		if reason := m.evaluate(now, 0, true, 300*time.Millisecond, 300*time.Millisecond); reason != "" {
			t.Fatalf("overload interval accused the leader: %s", reason)
		}
	}
	// Load drop: throughput collapses, but nothing waits and the last
	// deliveries were fast.
	m2 := newMonitor(monitorTestConfig(), t0)
	now = feedHealthy(t, m2, t0, 8)
	for i := 0; i < 5; i++ {
		now = now.Add(100 * time.Millisecond)
		if i%2 == 0 {
			m2.observeDelivery(now, 1)
		}
		if reason := m2.evaluate(now, 0, false, 5*time.Millisecond, 0); reason != "" {
			t.Fatalf("idle interval accused the leader: %s", reason)
		}
	}
}

// TestMonitorCooldownAndViewInstall: after one accusation the cooldown
// must suppress further rotations until it expires, and a view install
// must restart the grace period while keeping the healthy baselines.
func TestMonitorCooldownAndViewInstall(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newMonitor(monitorTestConfig(), t0)
	now := feedHealthy(t, m, t0, 8)

	accuse := func(limit int) (time.Time, bool) {
		for i := 0; i < limit; i++ {
			now = now.Add(100 * time.Millisecond)
			m.observeDelivery(now, 1)
			if m.evaluate(now, 0, true, 200*time.Millisecond, 200*time.Millisecond) != "" {
				return now, true
			}
		}
		return now, false
	}
	var ok bool
	if now, ok = accuse(5); !ok {
		t.Fatal("first accusation never fired")
	}
	// Still slow: strikes rebuild immediately but the cooldown (800ms =
	// 8 intervals) holds fire.
	rotated := m.rotations
	for i := 0; i < 7; i++ {
		now = now.Add(100 * time.Millisecond)
		m.observeDelivery(now, 1)
		if m.evaluate(now, 0, true, 200*time.Millisecond, 200*time.Millisecond) != "" {
			t.Fatalf("accused again %dms after rotation, inside the 800ms cooldown", (i+1)*100)
		}
	}
	if m.rotations != rotated {
		t.Fatalf("rotations moved from %d to %d during cooldown", rotated, m.rotations)
	}
	// Past the cooldown the persistent bad signal may accuse again.
	if _, ok = accuse(12); !ok {
		t.Fatal("no second accusation after the cooldown expired")
	}

	// A view install records the deposed view's throughput, restarts
	// grace, and keeps the baselines: the next evaluate inside grace
	// stays quiet without wiping rateBase.
	baseLen := len(m.rateBase)
	m.onViewInstall(now, 3)
	rates := m.snapshotViewRates(now, 4)
	if len(rates) == 0 || rates[len(rates)-1].View != 3 {
		t.Fatalf("view 3 throughput not recorded: %+v", rates)
	}
	if len(m.rateBase) != baseLen {
		t.Fatalf("view install dropped the healthy baselines (%d -> %d)", baseLen, len(m.rateBase))
	}
	now = now.Add(100 * time.Millisecond)
	m.observeDelivery(now, 1)
	if reason := m.evaluate(now, 4, true, 200*time.Millisecond, 200*time.Millisecond); reason != "" {
		t.Fatalf("accused the new leader inside its grace period: %s", reason)
	}
}

// TestViewChangeTimeoutCapSaturates pins the backoff clamp: repeated
// failed view changes double the timeout, starting from the detector's
// (RequestTimeout before it has samples, its floor of RequestTimeout/8
// after a fast group's), only up to 8× RequestTimeout, instead of
// growing without bound.
func TestViewChangeTimeoutCapSaturates(t *testing.T) {
	c := newCluster(t, 4, 1, func(i int, cfg *Config) {
		cfg.RequestTimeout = 100 * time.Millisecond
	})
	// Not started: the cores move only through the direct calls below.
	defer c.stop()
	for i, tc := range []struct {
		samples int
		want    []time.Duration // ms
	}{
		{0, []time.Duration{200, 400, 800, 800, 800, 800}},
		{detectorWarmup, []time.Duration{25, 50, 100, 200, 400, 800, 800}},
	} {
		core := c.replicas[i].core
		for range tc.samples {
			core.lat.observe(time.Millisecond)
		}
		for n, w := range tc.want {
			core.startViewChange(uint64(n + 1))
			if got := core.curTimeout; got != w*time.Millisecond {
				t.Fatalf("%d samples: after %d view changes curTimeout = %v, want %v", tc.samples, n+1, got, w*time.Millisecond)
			}
		}
		if got := core.vcCount; got != uint64(len(tc.want)) {
			t.Fatalf("%d samples: vcCount = %d, want %d", tc.samples, got, len(tc.want))
		}
	}
}
