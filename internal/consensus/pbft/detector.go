package pbft

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
)

// The failure detector: when this replica suspects the leader. It has
// two rules, silence and slowness, and both act the same way: through
// suspect() and the f+1 rule below.
//
// Silence: how long this replica waits for the leader before it
// suspects it. Every replica times the payloads it Orders
// until their batch commits here (pendingClock), and the oldest wait of
// each committed batch is one sample of the group's order latency
// (orderLatency). A replica suspects the leader once its oldest pending
// payload has waited 2·(srtt + 4·rttvar), the smoothed latency and four
// of its deviations twice over, kept between RequestTimeout/8 and
// RequestTimeout, both since it was Ordered and since this replica last
// took a batch for Deliver (core.detectFrom). While a committed batch
// waits for Deliver here, the timeout is RequestTimeout. Both rules are
// for backpressure: when Deliver blocks, the leader's window fills and
// what queues behind it waits for this replica, not for the leader.
// RequestTimeout since the Order stays the ceiling either way, so a
// leader that keeps committing other payloads is still suspected then.
//
// A suspicion below RequestTimeout does not leave the view. It is
// multicast, and the view change starts once f+1 members suspect within
// one RequestTimeout (handleSuspicion), so at least one correct replica
// does. A replica left alone in its suspicion — its own CPU stalled, or
// its own links — stays in the view and leaves alone only at
// RequestTimeout, as it would without the detector. A view change that
// does start is an ordinary one, which still needs 2f+1 votes: firing
// early costs liveness, never safety, and a group that is slow but live
// lifts its own estimate.

// detectorWarmup is how many samples the estimate needs before it
// replaces RequestTimeout.
const detectorWarmup = 16

// orderLatency smooths Order→commit samples as RFC 6298 smooths round
// trips: srtt by 1/8, rttvar by 1/4.
type orderLatency struct {
	srtt, rttvar time.Duration
	n            int // samples so far, saturating at detectorWarmup
}

func (l *orderLatency) observe(r time.Duration) {
	if l.n == 0 {
		l.srtt, l.rttvar = r, r/2
	} else {
		dev := l.srtt - r
		if dev < 0 {
			dev = -dev
		}
		l.rttvar = (3*l.rttvar + dev) / 4
		l.srtt = (7*l.srtt + r) / 8
	}
	if l.n < detectorWarmup {
		l.n++
	}
}

// timeout is how long a payload may wait for its commit before the
// leader is suspected: ceiling until the estimate has warmed up, then
// 2·(srtt + 4·rttvar) clamped to [ceiling/8, ceiling].
func (l *orderLatency) timeout(ceiling time.Duration) time.Duration {
	if l.n < detectorWarmup {
		return ceiling
	}
	return min(max(2*(l.srtt+4*l.rttvar), ceiling/8), ceiling)
}

// pendingClock holds, for each payload this replica waits for, when it
// was Ordered (or its wait restarted). floor is never later than the
// oldest of those times, so the replica can set its wake-up at
// floor + timeout without a scan, and scan (oldest, which tightens
// floor) only when that wake-up comes.
type pendingClock struct {
	since map[crypto.Digest]time.Time
	floor time.Time
}

func newPendingClock() pendingClock {
	return pendingClock{since: make(map[crypto.Digest]time.Time)}
}

// arm starts d's clock at now unless it is already running.
func (p *pendingClock) arm(d crypto.Digest, now time.Time) {
	if _, ok := p.since[d]; ok {
		return
	}
	if len(p.since) == 0 {
		p.floor = now
	}
	p.since[d] = now
}

// stop stops d's clock and reports how long it ran, if it was running.
func (p *pendingClock) stop(d crypto.Digest, now time.Time) (time.Duration, bool) {
	t, ok := p.since[d]
	if !ok {
		return 0, false
	}
	delete(p.since, d)
	return now.Sub(t), true
}

// oldest reports when the longest-waiting payload was armed.
func (p *pendingClock) oldest() (time.Time, bool) {
	if len(p.since) == 0 {
		return time.Time{}, false
	}
	var o time.Time
	for _, t := range p.since {
		if o.IsZero() || t.Before(o) {
			o = t
		}
	}
	p.floor = o
	return o, true
}

// restart re-arms every running clock at now.
func (p *pendingClock) restart(now time.Time) {
	for d := range p.since {
		p.since[d] = now
	}
	p.floor = now
}

// reset stops every clock.
func (p *pendingClock) reset() { clear(p.since) }

// Slowness: the silence rule never fires against a leader that commits
// just fast enough, because its estimate follows the leader. So on every
// periodic tick in a view (every T/8, T being RequestTimeout) a replica
// also holds the view against the group's recent healthy ticks. A tick
// is slow when the payloads committed here over the last four ticks
// come to less than the median healthy rate over slowFactor, and the
// wait — srtt, or the oldest pending wait counted from detectFrom if
// that is longer — is more than slowFactor times the median healthy
// wait. Both signals are needed: overload lifts the wait but keeps the
// rate at capacity (TestDetectorSlownessOverloadKeepsLeader), a load
// drop lowers the rate but not the wait, and a slow follower changes
// neither, because quorums form among the 2f+1 timely members.
//
// Only ticks not slow join the baseline, so a degrading leader cannot
// drag its own yardstick down, and the baseline survives view installs:
// it is what a new leader is held to once its grace of two ticks ends.
// A slow tick is a strike while a payload waits here, and nothing at
// all without one. After slowStrikes strikes in a row the replica
// suspects the leader, unless its suspicion is already out; a new view
// starts again from grace and zero strikes. The rule does not judge
// before the estimate has warmed up, nor while a committed batch waits
// for Deliver here, since that wait is this replica's, as under the
// silence rule.

const (
	slowFactor    = 2 // how far rate and wait must be off the healthy median
	slowStrikes   = 3 // slow ticks in a row before suspecting
	slowBaseMin   = 4 // healthy ticks needed before judging
	slowBaseMax   = 8 // healthy ticks kept
	slowWaitFloor = time.Millisecond
)

// ViewRate is one view's payloads committed per second at this replica,
// the current view's so far.
type ViewRate struct {
	View   uint64
	PerSec float64
}

// Rotation is one suspicion the slowness rule sent: the view it
// suspected and why.
type Rotation struct {
	View   uint64
	Reason string
}

// slowness is the slowness rule's state, and the per-view record kept
// for observability.
type slowness struct {
	committed *stats.Rate // payloads committed here, over four ticks
	rates     []float64   // healthy ticks' commit rates, newest last
	waits     []time.Duration
	strikes   int

	viewAt    time.Time // when this view began
	viewN     uint64    // payloads committed in it
	viewRates []ViewRate

	rotations uint64
	reasons   []Rotation
}

func newSlowness(every time.Duration, now time.Time) slowness {
	return slowness{committed: stats.NewRate(4 * every), viewAt: now}
}

// commit counts n payloads committed here.
func (s *slowness) commit(now time.Time, n int) {
	s.committed.RecordAt(now, n)
	s.viewN += uint64(n)
}

// newView records the rate of the view left and starts the new
// leader's grace. The baseline stays: it describes the group.
func (s *slowness) newView(now time.Time, old uint64) {
	if d := now.Sub(s.viewAt).Seconds(); d > 0 && s.viewN > 0 {
		s.viewRates = push(s.viewRates, ViewRate{View: old, PerSec: float64(s.viewN) / d}, 16)
	}
	s.viewAt, s.viewN, s.strikes = now, 0, 0
}

// healthy records a tick not judged slow. A tick without commits says
// nothing about what a healthy leader sustains.
func (s *slowness) healthy(rate float64, wait time.Duration) {
	s.strikes = 0
	if rate <= 0 {
		return
	}
	s.rates = push(s.rates, rate, slowBaseMax)
	if wait > 0 {
		s.waits = push(s.waits, wait, slowBaseMax)
	}
}

// snapshotViewRates returns the recorded views' rates and the current
// view's so far.
func (s *slowness) snapshotViewRates(now time.Time, view uint64) []ViewRate {
	out := slices.Clone(s.viewRates)
	if d := now.Sub(s.viewAt).Seconds(); d > 0 && s.viewN > 0 {
		out = append(out, ViewRate{View: view, PerSec: float64(s.viewN) / d})
	}
	return out
}

// judgeSpeed runs the slowness rule on a periodic tick in a view. demand
// says whether a payload waits here, wait how long the oldest has,
// counted from detectFrom.
func (c *core) judgeSpeed(demand bool, wait time.Duration) {
	s := &c.slow
	if c.lat.n < detectorWarmup || c.now.Sub(s.viewAt) < 2*c.tickEvery() || c.headCommitted() {
		return
	}
	rate := s.committed.PerSecondAt(c.now)
	wait = max(wait, c.lat.srtt)
	rateMed, waitMed := median(s.rates), max(median(s.waits), slowWaitFloor)
	if len(s.rates) < slowBaseMin || rate*slowFactor >= rateMed || wait <= slowFactor*waitMed {
		s.healthy(rate, wait)
		return
	}
	if !demand {
		return // slow, but nothing waits for the leader here
	}
	if s.strikes++; s.strikes < slowStrikes || c.suspecting() {
		return
	}
	s.strikes = 0
	s.rotations++
	s.reasons = push(s.reasons, Rotation{View: c.view, Reason: fmt.Sprintf(
		"view %d: %.1f/s < %.1f/s / %d, wait %v > %d x %v",
		c.view, rate, rateMed, slowFactor, wait.Round(time.Millisecond), slowFactor, waitMed.Round(time.Millisecond))}, 8)
	c.suspect()
}

// push appends x to a ring of at most n, dropping the oldest.
func push[T any](ring []T, x T, n int) []T {
	ring = append(ring, x)
	return ring[max(0, len(ring)-n):]
}

func median[T cmp.Ordered](xs []T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Sorted(slices.Values(xs))
	return s[len(s)/2]
}

// suspecting reports whether this replica's latest suspicion still
// counts at its peers: sent in this view, less than RequestTimeout ago.
func (c *core) suspecting() bool {
	return !c.suspectedAt.IsZero() && c.now.Sub(c.suspectedAt) < c.cfg.RequestTimeout
}

// suspect multicasts this replica's suspicion of the current leader.
func (c *core) suspect() {
	c.suspectedAt = c.now
	env, _ := c.seal(tagSuspicion, &suspicion{View: c.view})
	c.multicast(env)
}

// handleSuspicion records a member's suspicion of the current view and
// starts the view change once f+1 distinct members sent one within the
// last RequestTimeout.
func (c *core) handleSuspicion(from ids.NodeID, s *suspicion) {
	if c.inVC || s.View != c.view {
		return
	}
	if c.suspicions == nil {
		c.suspicions = make(map[ids.NodeID]time.Time)
	}
	c.suspicions[from] = c.now
	n := 0
	for _, at := range c.suspicions {
		if c.now.Sub(at) < c.cfg.RequestTimeout {
			n++
		}
	}
	if n > c.cfg.Group.F {
		c.startViewChange(c.view + 1)
	}
}

// forgetSuspicions drops every suspicion of the view being left.
func (c *core) forgetSuspicions() {
	clear(c.suspicions)
	c.suspectedAt = time.Time{}
}
