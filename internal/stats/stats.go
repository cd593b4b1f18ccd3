// Package stats provides the measurement utilities the evaluation
// harness uses: latency recorders with exact percentiles (Figures 7, 8
// and 11 report 50th/90th percentiles), time-series bucketing
// (Figure 10 plots response time over time), counters, and a CPU meter
// approximating per-component utilisation (Figure 9c).
package stats

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder collects latency samples. It is safe for concurrent use by
// many client goroutines.
type Recorder struct {
	mu      sync.Mutex
	samples []sample
}

type sample struct {
	at  time.Time
	dur time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record stores one latency observed now.
func (r *Recorder) Record(d time.Duration) { r.RecordAt(time.Now(), d) }

// RecordAt stores one latency observed at the given time.
func (r *Recorder) RecordAt(at time.Time, d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{at: at, dur: d})
	r.mu.Unlock()
}

// Sample is one recorded observation.
type Sample struct {
	At  time.Time
	Dur time.Duration
}

// Samples returns a copy of all recorded samples in insertion order.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	for i, s := range r.samples {
		out[i] = Sample{At: s.at, Dur: s.dur}
	}
	return out
}

// Merge copies all samples from src into r.
func (r *Recorder) Merge(src *Recorder) {
	for _, s := range src.Samples() {
		r.RecordAt(s.At, s.Dur)
	}
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.samples = nil
	r.mu.Unlock()
}

// Snapshot returns the sorted latency values.
func (r *Recorder) Snapshot() []time.Duration {
	r.mu.Lock()
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.dur
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. It returns 0 for an empty
// recorder.
func (r *Recorder) Percentile(p float64) time.Duration {
	sorted := r.Snapshot()
	return percentileOf(sorted, p)
}

func percentileOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summary bundles the standard percentile set reported by the paper.
type Summary struct {
	Count int
	P50   time.Duration
	P90   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Summarize computes a Summary over all samples.
func (r *Recorder) Summarize() Summary {
	sorted := r.Snapshot()
	if len(sorted) == 0 {
		return Summary{}
	}
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	return Summary{
		Count: len(sorted),
		P50:   percentileOf(sorted, 50),
		P90:   percentileOf(sorted, 90),
		Mean:  total / time.Duration(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
	}
}

// String renders the summary in a compact, table-friendly form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%s p90=%s mean=%s",
		s.Count, fmtMS(s.P50), fmtMS(s.P90), fmtMS(s.Mean))
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// Bucket is one time-series window.
type Bucket struct {
	Start time.Time
	Count int
	Mean  time.Duration
}

// TimeSeries groups samples into fixed-width buckets beginning at
// start, returning one bucket per window up to the latest sample.
// Empty windows yield buckets with Count 0.
func (r *Recorder) TimeSeries(start time.Time, width time.Duration) []Bucket {
	r.mu.Lock()
	samples := append([]sample(nil), r.samples...)
	r.mu.Unlock()
	if width <= 0 || len(samples) == 0 {
		return nil
	}

	var maxIdx int
	sums := make(map[int]time.Duration)
	counts := make(map[int]int)
	for _, s := range samples {
		if s.at.Before(start) {
			continue
		}
		idx := int(s.at.Sub(start) / width)
		sums[idx] += s.dur
		counts[idx]++
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	out := make([]Bucket, maxIdx+1)
	for i := range out {
		out[i] = Bucket{Start: start.Add(time.Duration(i) * width), Count: counts[i]}
		if counts[i] > 0 {
			out[i].Mean = sums[i] / time.Duration(counts[i])
		}
	}
	return out
}

// LogGate rate-limits repeated log emission for recurring anomaly
// classes: the first event always passes, later ones pass at most once
// per interval, so a second storm of the same anomaly hours later is
// still reported (unlike a sync.Once) without a line per occurrence.
// Safe for concurrent use.
type LogGate struct {
	mu    sync.Mutex
	last  time.Time
	every time.Duration
}

// NewLogGate returns a gate that opens at most once per interval.
func NewLogGate(every time.Duration) *LogGate {
	return &LogGate{every: every}
}

// Allow reports whether the caller may log now, consuming the gate's
// slot if so.
func (g *LogGate) Allow() bool { return g.AllowAt(time.Now()) }

// AllowAt is Allow with an injected clock, for tests.
func (g *LogGate) AllowAt(now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.last.IsZero() && now.Sub(g.last) < g.every {
		return false
	}
	g.last = now
	return true
}

// Counter is a concurrent event counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Occupancy records small integer counts — requests per proposed
// consensus batch, requests per commit-channel Send — so underfilled
// batches are visible in the harness figure output. Observations are
// stored as a value→frequency histogram, so memory stays bounded by
// the number of distinct counts (not the number of observations) and
// Record is O(1) on the consensus hot path. It is safe for concurrent
// use.
type Occupancy struct {
	mu   sync.Mutex
	freq map[int]int64
	obs  int64
	sum  int64
}

// maxOccupancyValue clamps recorded values; anything larger lands in
// the top bucket (batch sizes are small by construction, so this only
// guards against nonsense inputs).
const maxOccupancyValue = 1 << 16

// NewOccupancy returns an empty occupancy recorder.
func NewOccupancy() *Occupancy { return &Occupancy{} }

// Record stores one observed count.
func (o *Occupancy) Record(n int) {
	if n < 0 {
		n = 0
	}
	if n > maxOccupancyValue {
		n = maxOccupancyValue
	}
	o.mu.Lock()
	if o.freq == nil {
		o.freq = make(map[int]int64)
	}
	o.freq[n]++
	o.obs++
	o.sum += int64(n)
	o.mu.Unlock()
}

// OccupancySummary is the percentile set for occupancy counts.
type OccupancySummary struct {
	Count int     // number of observations
	Total int64   // sum of all counts (e.g. total requests batched)
	Mean  float64 // average count per observation
	P50   int
	P90   int
	Max   int
}

// String renders the summary in a compact, table-friendly form.
func (s OccupancySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d max=%d",
		s.Count, s.Mean, s.P50, s.P90, s.Max)
}

// Summarize computes the occupancy summary over all observations.
func (o *Occupancy) Summarize() OccupancySummary {
	o.mu.Lock()
	freq := make(map[int]int64, len(o.freq))
	for v, c := range o.freq {
		freq[v] = c
	}
	obs, sum := o.obs, o.sum
	o.mu.Unlock()
	if obs == 0 {
		return OccupancySummary{}
	}
	values := make([]int, 0, len(freq))
	for v := range freq {
		values = append(values, v)
	}
	sort.Ints(values)
	pct := func(p float64) int {
		rank := int64(p/100*float64(obs)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		var cum int64
		for _, v := range values {
			cum += freq[v]
			if cum > rank {
				return v
			}
		}
		return values[len(values)-1]
	}
	return OccupancySummary{
		Count: int(obs),
		Total: sum,
		Mean:  float64(sum) / float64(obs),
		P50:   pct(50),
		P90:   pct(90),
		Max:   values[len(values)-1],
	}
}

// Reset discards all observations.
func (o *Occupancy) Reset() {
	o.mu.Lock()
	o.freq = nil
	o.obs = 0
	o.sum = 0
	o.mu.Unlock()
}

// rateBuckets is the sliding-window resolution of a Rate recorder:
// the window is divided into this many equal buckets, so the reported
// rate forgets old events with a granularity of window/rateBuckets.
const rateBuckets = 16

// rateEpoch is the monotonic origin of every Rate recorder's bucket
// grid.
var rateEpoch = time.Now()

// Rate measures events per second over a sliding window on the
// monotonic clock (wall-clock jumps cannot distort it: time.Time
// subtraction prefers the monotonic reading). It feeds the commit rate
// of PBFT's failure detector, which the slowness rule reads. Safe for
// concurrent use.
type Rate struct {
	mu       sync.Mutex
	window   time.Duration
	width    time.Duration // window / rateBuckets
	buckets  [rateBuckets]int64
	lastTick int64
	started  bool
}

// NewRate returns a rate recorder averaging over the given window.
// Windows shorter than rateBuckets nanoseconds are rounded up so every
// bucket covers at least one nanosecond.
func NewRate(window time.Duration) *Rate {
	if window < rateBuckets {
		window = rateBuckets
	}
	return &Rate{window: window, width: window / rateBuckets}
}

// tick maps an instant onto the shared bucket grid. Floor division
// keeps instants before the epoch (injected test clocks) on a
// consistent grid instead of collapsing ticks -1 and 0 together.
func (r *Rate) tick(now time.Time) int64 {
	d := int64(now.Sub(rateEpoch))
	w := int64(r.width)
	t := d / w
	if d%w < 0 {
		t--
	}
	return t
}

// advanceLocked rotates the ring forward to tick t, zeroing every
// bucket whose interval has fully left the window.
func (r *Rate) advanceLocked(t int64) {
	if !r.started {
		r.started = true
		r.lastTick = t
		return
	}
	if t <= r.lastTick {
		return // stale or same-tick observation: keep the newer grid position
	}
	steps := t - r.lastTick
	if steps > rateBuckets {
		steps = rateBuckets
	}
	for i := int64(1); i <= steps; i++ {
		r.buckets[((r.lastTick+i)%rateBuckets+rateBuckets)%rateBuckets] = 0
	}
	r.lastTick = t
}

// RecordAt counts n events at now.
func (r *Rate) RecordAt(now time.Time, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	t := r.tick(now)
	r.advanceLocked(t)
	idx := (t%rateBuckets + rateBuckets) % rateBuckets
	if t > r.lastTick-rateBuckets { // not already aged out of the window
		r.buckets[idx] += int64(n)
	}
	r.mu.Unlock()
}

// PerSecondAt returns the event rate over the window that ends at now.
func (r *Rate) PerSecondAt(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(r.tick(now))
	var sum int64
	for _, b := range r.buckets {
		sum += b
	}
	return float64(sum) / r.window.Seconds()
}

// Reset discards the window contents.
func (r *Rate) Reset() {
	r.mu.Lock()
	r.buckets = [rateBuckets]int64{}
	r.started = false
	r.lastTick = 0
	r.mu.Unlock()
}

// CPUMeter accumulates wall-clock time spent inside instrumented code
// sections. Dividing the accumulated busy time by the experiment
// duration approximates the CPU utilisation a dedicated machine would
// report for that component, which is how the reproduction derives
// Figure 9c on a single host.
type CPUMeter struct {
	busy atomic.Int64
}

// Track returns a function that, when called, charges the elapsed time
// since Track to the meter. Use as: defer meter.Track()().
func (m *CPUMeter) Track() func() {
	start := time.Now()
	return func() { m.busy.Add(int64(time.Since(start))) }
}

// Add charges d to the meter directly.
func (m *CPUMeter) Add(d time.Duration) { m.busy.Add(int64(d)) }

// Busy returns the accumulated busy time.
func (m *CPUMeter) Busy() time.Duration { return time.Duration(m.busy.Load()) }

// Utilization returns busy time as a fraction of wall time (may exceed
// 1.0 when multiple goroutines are instrumented).
func (m *CPUMeter) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(m.Busy()) / float64(wall)
}

// Reset zeroes the meter.
func (m *CPUMeter) Reset() { m.busy.Store(0) }
