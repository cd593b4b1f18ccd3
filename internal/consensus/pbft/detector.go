package pbft

import (
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// The failure detector: how long this replica waits for the leader
// before it suspects it. Every replica times the payloads it Orders
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
