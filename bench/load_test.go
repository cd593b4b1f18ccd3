package main

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/wire"
)

// fakeClock only moves when someone sleeps or an op takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// fakeKV executes against a local store and advances the fake clock by
// each op's scripted duration (the last entry repeats).
type fakeKV struct {
	clk   *fakeClock
	store *app.KVStore
	took  []time.Duration
	n     int
	stale []byte // when set, strong reads return this value
}

func (f *fakeKV) spend() {
	d := f.took[min(f.n, len(f.took)-1)]
	f.n++
	f.clk.now = f.clk.now.Add(d)
}

func (f *fakeKV) Write(op []byte) ([]byte, error) { f.spend(); return f.store.Execute(op), nil }
func (f *fakeKV) WeakRead(op []byte) ([]byte, error) {
	f.spend()
	return f.store.ExecuteRead(op), nil
}
func (f *fakeKV) StrongRead(op []byte) ([]byte, error) {
	f.spend()
	if f.stale != nil {
		return wire.Encode(&app.Result{OK: true, Found: true, Value: f.stale}), nil
	}
	return f.store.ExecuteRead(op), nil
}

func newFakeClient(clk *fakeClock, cycle string, took ...time.Duration) (*loadClient, *fakeKV) {
	kv := &fakeKV{clk: clk, store: app.NewKVStore(), took: took}
	return &loadClient{idx: 1, seed: 7, key: "k", kv: kv, cycle: cycle}, kv
}

const msec = time.Millisecond

// A stalled op delays the ops scheduled behind it, and each of them is
// charged from the moment it was due, not from when it was issued.
func TestScheduledLoopChargesStallToDueOps(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	// Ops take 10 ms, except op 2 which stalls for 100 ms.
	c, _ := newFakeClient(clk, "w", 10*msec, 10*msec, 100*msec, 10*msec)
	c.run(clk, start, start.Add(240*msec), 30*msec)

	want := []struct {
		due, start, latency time.Duration
		free                bool
	}{
		{0, 0, 10 * msec, true},
		{30 * msec, 30 * msec, 10 * msec, true},
		{60 * msec, 60 * msec, 100 * msec, true},
		{90 * msec, 160 * msec, 80 * msec, false},  // waited 70 ms behind the stall
		{120 * msec, 170 * msec, 60 * msec, false}, // backlog draining
		{150 * msec, 180 * msec, 40 * msec, false},
		{180 * msec, 190 * msec, 20 * msec, false},
		{210 * msec, 210 * msec, 10 * msec, true}, // caught up: client idle at the due time
	}
	if len(c.samples) != len(want) {
		t.Fatalf("issued %d ops, want %d (ops due at or after the end are not issued)", len(c.samples), len(want))
	}
	for i, w := range want {
		s := c.samples[i]
		if s.due.Sub(start) != w.due || s.start.Sub(start) != w.start || s.latency() != w.latency || s.free != w.free {
			t.Errorf("op %d: due %v start %v latency %v free %v, want %v %v %v %v", i,
				s.due.Sub(start), s.start.Sub(start), s.latency(), s.free, w.due, w.start, w.latency, w.free)
		}
		if s.failed {
			t.Errorf("op %d failed", i)
		}
	}
	if len(c.violations) != 0 {
		t.Errorf("violations: %v", c.violations)
	}
}

// In a closed loop the next op is due when the previous one completes,
// so a stall delays later ops without being charged to them.
func TestClosedLoopIssuesOnCompletion(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	c, _ := newFakeClient(clk, "wsr", 10*msec, 50*msec, 10*msec)
	c.offset = 1 // the seed-chosen phase: s r w s r ...
	c.acked = 0
	// Reads need a value: seed the key first (takes the first 10 ms).
	if err := c.write(); err != nil {
		t.Fatal(err)
	}
	from := clk.Now()
	c.run(clk, from, from.Add(85*msec), 0)
	kinds := ""
	for i, s := range c.samples {
		kinds += string(s.kind)
		if s.due != s.start {
			t.Errorf("op %d: due %v != start %v in a closed loop", i, s.due, s.start)
		}
		if i > 0 && s.start != c.samples[i-1].end {
			t.Errorf("op %d issued at %v, previous completed at %v", i, s.start, c.samples[i-1].end)
		}
	}
	// 50 + 10 + 10 + 10 = 80 ms < 85 ms, a fifth op starts at 80 ms.
	if kinds != "srwsr" {
		t.Errorf("issued %q, want srwsr", kinds)
	}
	if len(c.violations) != 0 {
		t.Errorf("violations: %v", c.violations)
	}
}

func TestValueIsDeterministicAndSelfDescribing(t *testing.T) {
	a, b := value(3, 1, 42), value(3, 1, 42)
	if !bytes.Equal(a, b) || len(a) != valueSize {
		t.Fatal("same (seed, client, seq) must give the same 200 bytes")
	}
	for _, other := range [][]byte{value(4, 1, 42), value(3, 0, 42), value(3, 1, 43)} {
		if bytes.Equal(a[12:], other[12:]) {
			t.Error("seed, client and seq must each change the value bytes")
		}
	}
}

func TestReadChecks(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c, kv := newFakeClient(clk, "w", msec)
	for i := 0; i < 3; i++ {
		if err := c.write(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.read(true); err != nil || len(c.violations) != 0 {
		t.Fatalf("a strong read of the latest write must pass: %v %v", err, c.violations)
	}
	if err := c.read(false); err != nil || len(c.violations) != 0 {
		t.Fatalf("a weak read of the latest write must pass: %v %v", err, c.violations)
	}

	// A strong read that returns an older acknowledged write is a violation...
	kv.stale = value(c.seed, c.idx, 2)
	_ = c.read(true)
	if len(c.violations) != 1 {
		t.Fatalf("stale strong read not caught: %v", c.violations)
	}
	// ...while a weak read may return it, but not a write never acknowledged,
	c.checkRead(wire.Encode(&app.Result{OK: true, Found: true, Value: kv.stale}), false)
	if len(c.violations) != 1 {
		t.Fatalf("a weak read may be stale: %v", c.violations)
	}
	c.checkRead(wire.Encode(&app.Result{OK: true, Found: true, Value: value(c.seed, c.idx, 9)}), false)
	// another client's value,
	c.checkRead(wire.Encode(&app.Result{OK: true, Found: true, Value: value(c.seed, 0, 1)}), false)
	// damaged bytes,
	damaged := value(c.seed, c.idx, 3)
	damaged[100] ^= 1
	c.checkRead(wire.Encode(&app.Result{OK: true, Found: true, Value: damaged}), false)
	// or nothing at all.
	c.checkRead(wire.Encode(&app.Result{OK: true, Found: false}), false)
	if len(c.violations) != 5 {
		t.Fatalf("want 5 violations, got %d: %v", len(c.violations), c.violations)
	}
}
