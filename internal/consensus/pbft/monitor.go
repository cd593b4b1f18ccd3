package pbft

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/stats"
)

// ViewRate is one completed (or current) view's measured delivery
// throughput, exported for chaos artifacts and figure footnotes.
type ViewRate struct {
	View   uint64
	PerSec float64
}

// Rotation is one proactive accusation of a slow leader: the view it
// deposed and the monitor's human-readable reason.
type Rotation struct {
	View   uint64
	Reason string
}

// monitor is the gray-failure leader performance monitor
// (Config.SuspectSlowLeader). Every replica runs one against its own
// observations of the group: request arrivals and deliveries recorded
// into stats.Rate windows as the core steps, and the failure detector's
// smoothed Order→commit latency (srtt), which the core passes to
// evaluate.
//
// The decision rule is deliberately two-signal. An interval flags the
// leader slow only when (a) there is live demand (an admitted request
// is still waiting), (b) delivery throughput fell below monitorFraction
// × the median of recent healthy intervals — spanning recent views,
// since the baseline survives view installs — and (c) latency exceeds
// the healthy median by more than 1/monitorFraction. Requiring both
// signals kills the classic false positives: an overload spike blows up
// latency but keeps throughput at capacity (fails b), a load drop
// deflates throughput but not latency (fails c), and a degraded
// *follower* changes neither, because quorums keep forming among the
// 2f+1 timely members. After monitorStrikes consecutive slow intervals
// the replica accuses; the accusation is an ordinary view change, so
// rotation still requires the normal 2f+1 quorum — f Byzantine
// slow-accusers cannot depose a correct leader — and a per-replica
// cooldown of one request timeout bounds the rotation rate so a
// persistent bad signal cannot livelock the group.
//
// The timing follows RequestTimeout: the monitor judges once per
// interval, max(RequestTimeout/8, 10ms), which is also the width of one
// throughput sample, and a fresh leader gets two intervals of grace.
type monitor struct {
	interval time.Duration
	cooldown time.Duration

	delivery *stats.Rate // payloads delivered, sliding window
	arrival  *stats.Rate // fresh requests admitted via Order

	// Healthy-interval baselines (median over a bounded ring). Only
	// intervals that were not flagged slow contribute, so a degrading
	// leader cannot drag its own yardstick down during the strike
	// window. The rings survive view installs: recent views' healthy
	// rates are exactly the baseline a fresh leader is held to once
	// its grace period ends.
	rateBase []float64
	latBase  []float64

	streak   int
	lastEval time.Time

	viewStart time.Time
	viewAt    time.Time // when the current view's delivery count began
	viewN     uint64    // payloads delivered in the current view
	viewRates []ViewRate

	lastRotate time.Time
	rotations  uint64
	reasons    []Rotation
}

const (
	monitorFraction = 0.5 // the underperformance threshold, in (0,1)
	monitorStrikes  = 3   // consecutive slow intervals before accusing
	monitorBaseMin  = 4   // healthy samples required before judging
	monitorBaseMax  = 8   // baseline ring size
	monitorReasons  = 8   // rotation reasons retained
	monitorLatFloor = float64(time.Millisecond) / float64(time.Second)
)

func newMonitor(cfg *Config, now time.Time) *monitor {
	interval := max(cfg.RequestTimeout/8, 10*time.Millisecond)
	return &monitor{
		interval:  interval,
		cooldown:  cfg.RequestTimeout,
		delivery:  stats.NewRate(4 * interval),
		arrival:   stats.NewRate(4 * interval),
		viewStart: now,
		viewAt:    now,
	}
}

// observeArrival records one freshly admitted request. The recorder is
// per-replica private state, so every group member records every
// request it Orders without overcounting anything.
func (m *monitor) observeArrival(now time.Time) {
	m.arrival.RecordAt(now, 1)
}

// observeDelivery records one delivered batch of n payloads.
func (m *monitor) observeDelivery(now time.Time, n int) {
	if n <= 0 {
		return
	}
	m.delivery.RecordAt(now, n)
	m.viewN += uint64(n)
}

// onViewInstall closes the books on the old view — its measured
// throughput joins the per-view record — and restarts the grace
// period for the new leader. Baselines and the rotation cooldown
// survive: they describe the group, not the deposed leader.
func (m *monitor) onViewInstall(now time.Time, oldView uint64) {
	if elapsed := now.Sub(m.viewAt).Seconds(); elapsed > 0 && m.viewN > 0 {
		m.viewRates = append(m.viewRates, ViewRate{View: oldView, PerSec: float64(m.viewN) / elapsed})
		if len(m.viewRates) > 16 {
			m.viewRates = m.viewRates[len(m.viewRates)-16:]
		}
	}
	m.viewN = 0
	m.viewAt = now
	m.viewStart = now
	m.streak = 0
}

// evaluate is called from the core's tick and judges the current leader
// once per interval, srtt being the detector's smoothed Order→commit
// latency. It returns a non-empty reason when the replica should accuse
// the leader now.
func (m *monitor) evaluate(now time.Time, view uint64, demand bool, srtt, oldestWait time.Duration) string {
	if now.Sub(m.lastEval) < m.interval {
		return ""
	}
	m.lastEval = now
	if now.Sub(m.viewStart) < 2*m.interval { // a fresh leader's grace
		return ""
	}
	rate := m.delivery.PerSecondAt(now)
	lat := srtt.Seconds()
	if demand && oldestWait.Seconds() > lat {
		// A request stuck right now outranks the delivery history:
		// under a hard gray stall the estimate goes stale while the
		// oldest admitted request keeps aging.
		lat = oldestWait.Seconds()
	}

	if len(m.rateBase) < monitorBaseMin {
		m.recordHealthy(rate, lat)
		m.streak = 0
		return ""
	}
	rateMed := median(m.rateBase)
	latMed := median(m.latBase)
	if latMed < monitorLatFloor {
		latMed = monitorLatFloor
	}
	slow := demand && rate < monitorFraction*rateMed && lat > latMed/monitorFraction
	if !slow {
		m.recordHealthy(rate, lat)
		m.streak = 0
		return ""
	}
	m.streak++
	if m.streak < monitorStrikes {
		return ""
	}
	if !m.lastRotate.IsZero() && now.Sub(m.lastRotate) < m.cooldown {
		return "" // bounded rotation rate: hold fire, keep the streak
	}
	m.lastRotate = now
	m.rotations++
	m.streak = 0
	reason := fmt.Sprintf("view %d: %.1f/s < %.2f x %.1f/s, lat %.0fms > %.0fms (arrival %.1f/s)",
		view, rate, monitorFraction, rateMed, lat*1000, latMed/monitorFraction*1000, m.arrival.PerSecondAt(now))
	m.reasons = append(m.reasons, Rotation{View: view, Reason: reason})
	if len(m.reasons) > monitorReasons {
		m.reasons = m.reasons[len(m.reasons)-monitorReasons:]
	}
	return reason
}

// recordHealthy pushes one non-flagged interval into the baselines.
// Zero-throughput intervals are skipped: an idle group says nothing
// about what a healthy leader sustains.
func (m *monitor) recordHealthy(rate, lat float64) {
	if rate <= 0 {
		return
	}
	m.rateBase = append(m.rateBase, rate)
	if len(m.rateBase) > monitorBaseMax {
		m.rateBase = m.rateBase[len(m.rateBase)-monitorBaseMax:]
	}
	if lat > 0 {
		m.latBase = append(m.latBase, lat)
		if len(m.latBase) > monitorBaseMax {
			m.latBase = m.latBase[len(m.latBase)-monitorBaseMax:]
		}
	}
}

// snapshotViewRates returns the recorded per-view throughputs plus the
// current view's running rate.
func (m *monitor) snapshotViewRates(now time.Time, view uint64) []ViewRate {
	out := append([]ViewRate(nil), m.viewRates...)
	if elapsed := now.Sub(m.viewAt).Seconds(); elapsed > 0 && m.viewN > 0 {
		out = append(out, ViewRate{View: view, PerSec: float64(m.viewN) / elapsed})
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
