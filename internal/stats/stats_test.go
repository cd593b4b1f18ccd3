package stats

import (
	"sync"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(90); got != 90*time.Millisecond {
		t.Errorf("p90 = %v", got)
	}
	if got := r.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	r := NewRecorder()
	if got := r.Percentile(50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if s := r.Summarize(); s.Count != 0 || s.P50 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder()
	for _, d := range []time.Duration{10, 20, 30, 40} {
		r.Record(d * time.Millisecond)
	}
	s := r.Summarize()
	if s.Count != 4 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Mean != 25*time.Millisecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Min != 10*time.Millisecond || s.Max != 40*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Count(); got != 800 {
		t.Errorf("count = %d", got)
	}
	r.Reset()
	if r.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestTimeSeries(t *testing.T) {
	r := NewRecorder()
	start := time.Now()
	r.RecordAt(start.Add(100*time.Millisecond), 10*time.Millisecond)
	r.RecordAt(start.Add(200*time.Millisecond), 30*time.Millisecond)
	r.RecordAt(start.Add(1500*time.Millisecond), 50*time.Millisecond)
	r.RecordAt(start.Add(-1*time.Second), time.Hour) // before start: ignored

	buckets := r.TimeSeries(start, time.Second)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Count != 2 || buckets[0].Mean != 20*time.Millisecond {
		t.Errorf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Count != 1 || buckets[1].Mean != 50*time.Millisecond {
		t.Errorf("bucket 1 = %+v", buckets[1])
	}
	if got := buckets[1].Start.Sub(start); got != time.Second {
		t.Errorf("bucket 1 start offset = %v", got)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	r := NewRecorder()
	if buckets := r.TimeSeries(time.Now(), time.Second); buckets != nil {
		t.Errorf("empty series = %v", buckets)
	}
	r.Record(time.Millisecond)
	if buckets := r.TimeSeries(time.Now().Add(-time.Minute), 0); buckets != nil {
		t.Errorf("zero width series = %v", buckets)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-2)
	if got := c.Load(); got != 3 {
		t.Errorf("counter = %d", got)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Error("reset failed")
	}
}

func TestCPUMeter(t *testing.T) {
	var m CPUMeter
	stop := m.Track()
	time.Sleep(20 * time.Millisecond)
	stop()
	if m.Busy() < 15*time.Millisecond {
		t.Errorf("busy = %v", m.Busy())
	}
	u := m.Utilization(100 * time.Millisecond)
	if u < 0.15 || u > 1.5 {
		t.Errorf("utilization = %v", u)
	}
	if got := m.Utilization(0); got != 0 {
		t.Errorf("zero wall utilization = %v", got)
	}
	m.Reset()
	if m.Busy() != 0 {
		t.Error("reset failed")
	}
	m.Add(time.Second)
	if m.Busy() != time.Second {
		t.Error("Add failed")
	}
}

// TestOccupancyPercentiles checks the histogram-backed percentile
// computation against a known distribution.
func TestOccupancyPercentiles(t *testing.T) {
	o := NewOccupancy()
	// 50× value 1, 40× value 8, 10× value 64.
	for i := 0; i < 50; i++ {
		o.Record(1)
	}
	for i := 0; i < 40; i++ {
		o.Record(8)
	}
	for i := 0; i < 10; i++ {
		o.Record(64)
	}
	s := o.Summarize()
	if s.Count != 100 || s.Total != 50+320+640 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 1 || s.P90 != 8 || s.Max != 64 {
		t.Fatalf("percentiles = p50=%d p90=%d max=%d, want 1/8/64", s.P50, s.P90, s.Max)
	}
	if s.Mean < 10 || s.Mean > 10.2 {
		t.Fatalf("mean = %f", s.Mean)
	}
	o.Reset()
	if s := o.Summarize(); s.Count != 0 {
		t.Fatalf("summary after reset = %+v", s)
	}

	// Clamping: negative and absurd values land in the edge buckets.
	o.Record(-5)
	o.Record(1 << 30)
	s = o.Summarize()
	if s.Count != 2 || s.Max != maxOccupancyValue {
		t.Fatalf("clamped summary = %+v", s)
	}
}

// TestLogGate: the first event always passes, later ones at most once
// per interval — so a second anomaly storm long after the first is
// still reported, unlike with a sync.Once.
func TestLogGate(t *testing.T) {
	g := NewLogGate(time.Minute)
	base := time.Unix(1000, 0)
	if !g.AllowAt(base) {
		t.Fatal("first event blocked")
	}
	if g.AllowAt(base.Add(time.Second)) {
		t.Fatal("event inside the interval passed")
	}
	if g.AllowAt(base.Add(59 * time.Second)) {
		t.Fatal("event just inside the interval passed")
	}
	if !g.AllowAt(base.Add(time.Minute)) {
		t.Fatal("storm after the interval blocked")
	}
	if g.AllowAt(base.Add(time.Minute + time.Second)) {
		t.Fatal("gate did not re-arm after opening")
	}
	if !g.Allow() {
		t.Fatal("wall-clock Allow blocked (last grant is in 1970)")
	}
}

func TestRateSlidingWindow(t *testing.T) {
	r := NewRate(time.Second)
	base := rateEpoch.Add(time.Hour) // align tests on the shared grid
	r.RecordAt(base, 100)
	if got := r.PerSecondAt(base); got != 100 {
		t.Fatalf("rate immediately after 100 events = %v, want 100", got)
	}
	// Half a window later the events are still inside the window.
	if got := r.PerSecondAt(base.Add(500 * time.Millisecond)); got != 100 {
		t.Fatalf("rate after half a window = %v, want 100", got)
	}
	// Strictly past a full window they have fully aged out.
	if got := r.PerSecondAt(base.Add(1100 * time.Millisecond)); got != 0 {
		t.Fatalf("rate after the window elapsed = %v, want 0", got)
	}
}

func TestRateSteadyLoad(t *testing.T) {
	r := NewRate(time.Second)
	base := rateEpoch.Add(time.Hour)
	// 10 events every 100ms for 2 seconds = 100/s steady state.
	for i := 0; i < 20; i++ {
		r.RecordAt(base.Add(time.Duration(i)*100*time.Millisecond), 10)
	}
	got := r.PerSecondAt(base.Add(2 * time.Second))
	if got < 80 || got > 120 {
		t.Fatalf("steady 100/s load reported as %v/s", got)
	}
}

func TestRateReset(t *testing.T) {
	r := NewRate(time.Second)
	base := rateEpoch.Add(time.Hour)
	r.RecordAt(base, 10)
	r.Reset()
	if got := r.PerSecondAt(base); got != 0 {
		t.Fatalf("rate after reset = %v", got)
	}
}

func TestRateConcurrent(t *testing.T) {
	const window = 100 * time.Millisecond
	r := NewRate(window)
	base := rateEpoch.Add(time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				// Every instant falls inside one bucket, so no event
				// may age out and the window must hold all of them.
				r.RecordAt(base.Add(time.Duration(j)), 1)
				_ = r.PerSecondAt(base)
			}
		}()
	}
	wg.Wait()
	if got, want := r.PerSecondAt(base), 8000/window.Seconds(); got != want {
		t.Fatalf("rate = %v, want %v (events lost or double counted)", got, want)
	}
}
