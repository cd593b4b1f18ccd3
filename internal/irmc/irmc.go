// Package irmc defines the inter-regional message channel (IRMC), the
// abstraction at the heart of Spider's modular architecture
// (Section 3.2 of the paper). An IRMC forwards messages from a group
// of sender replicas in one region to a group of receiver replicas in
// another. It is divided into independent subchannels with
// first-in-first-out semantics, bounded capacity, and window-based
// flow control; a message is only delivered once at least fs+1 senders
// submitted identical content for the same subchannel position, so a
// Byzantine minority cannot inject traffic.
//
// The window rule, for every implementation. A subchannel's window
// covers Capacity positions from its start. A sender's start is the
// higher of its own last MoveWindow, which takes effect there at once,
// and the (fr+1)-highest start the receivers have announced
// (SenderWindow); so MoveWindow(sc, p) followed by Send(sc, p, m) never
// waits for the receivers (Figure 16, lines 21–22, issues the two back
// to back), and Send waits only for a position more than a window
// beyond both. A receiver's start follows fs+1 senders' Moves or its
// own MoveWindow, never one sender; delivery needs fs+1 identical
// submissions inside that window, and Receive never returns a position
// outside it. Senders therefore run ahead of one another and of the
// receivers, and what reaches an endpoint before its window does is
// held, not dropped — per subchannel and peer at most Capacity entries
// (Hold) — and goes through the ordinary admission when the window
// arrives. A sender repeats its Move to the receivers whose announced
// start still trails it, a receiver answers a repeated Move with its
// start, and so a move or an announcement lost to a partition or a
// restart repairs itself.
//
// All of that is written once, in SenderCore and ReceiverCore. The two
// implementations embed them and differ only in how fs+1 submissions
// are collected: rc (receiver-side collection, Figure 18) and sc
// (sender-side collection with collectors, Figures 19–20). Both satisfy
// the conformance suite in irmctest, which encodes the IRMC-Correctness
// and IRMC-Liveness properties of Appendix A.5.
package irmc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/transport"
)

// ErrClosed is returned by blocked operations when the endpoint shuts
// down.
var ErrClosed = errors.New("irmc: endpoint closed")

// TooOldError reports that the flow-control window has moved past the
// requested position. NewStart is the window's new lower bound; the
// caller reacts by skipping forward (agreement replicas) or fetching a
// checkpoint (execution replicas), per Section 3.4.
type TooOldError struct {
	NewStart ids.Position
}

func (e *TooOldError) Error() string {
	return fmt.Sprintf("irmc: position too old, window starts at %d", e.NewStart)
}

// AsTooOld extracts a TooOldError from err, if present.
func AsTooOld(err error) (*TooOldError, bool) {
	var tooOld *TooOldError
	if errors.As(err, &tooOld) {
		return tooOld, true
	}
	return nil, false
}

// Sender is the sender-side endpoint interface (Figure 14); the package
// comment states the window rule behind it.
type Sender interface {
	// Send submits msg for subchannel sc at position p. It blocks
	// while p lies beyond the window's upper bound, returns a
	// *TooOldError immediately if the window has moved past p, and
	// returns ErrClosed after Close.
	Send(sc ids.Subchannel, p ids.Position, msg []byte) error
	// MoveWindow moves this sender's window on the subchannel so that
	// it starts at p, at once: positions below p become too old here,
	// blocked Sends the moved window admits proceed. It also asks the
	// receiver side to follow, which it does once fs+1 senders have
	// asked. Positions only move forward; calls with lower positions
	// are ignored.
	MoveWindow(sc ids.Subchannel, p ids.Position)
	// FlowStats reports the subchannel's cumulative flow counters and
	// current window occupancy, the inputs of adaptive window sizing.
	FlowStats(sc ids.Subchannel) FlowStats
	// SetCapacity throttles this sender's window on the subchannel to
	// n positions, clamped to [1, Config.Capacity]; growing it admits
	// blocked Sends at once.
	SetCapacity(sc ids.Subchannel, n int)
	// Close releases the endpoint and unblocks pending calls.
	Close()
}

// Receiver is the receiver-side endpoint interface (Figure 14).
type Receiver interface {
	// Receive blocks until the message for subchannel sc at position
	// p is deliverable (fs+1 identical submissions), the window has
	// moved past p (*TooOldError), or the endpoint closes (ErrClosed).
	Receive(sc ids.Subchannel, p ids.Position) ([]byte, error)
	// MoveWindow advances the local subchannel window so that it
	// starts at p, permitting garbage collection of older positions
	// and notifying the sender side.
	MoveWindow(sc ids.Subchannel, p ids.Position)
	// Close releases the endpoint and unblocks pending calls.
	Close()
}

// Config parameterizes one endpoint of a channel. The same values
// (identity aside) must be used by all endpoints of the channel.
type Config struct {
	// Senders is the sending replica group; its F is fs.
	Senders ids.Group
	// Receivers is the receiving replica group; its F is fr.
	Receivers ids.Group
	// Capacity bounds how many messages each subchannel holds
	// (window size). Must be at least 1.
	Capacity int
	// Suite authenticates this endpoint's traffic.
	Suite crypto.Suite
	// Node is this endpoint's transport handle.
	Node transport.Node
	// Stream carries all traffic of this channel.
	Stream transport.Stream
	// Meter, when set, accumulates the processing time this endpoint
	// spends handling messages and crypto (used for Figure 9c).
	Meter *stats.CPUMeter
	// SendBytes, when set on a sender endpoint, accumulates the
	// data-plane bytes this endpoint ships across the wide area: Send
	// envelopes times receivers for IRMC-RC, certificate envelopes for
	// IRMC-SC (whose payload-bearing wide-area messages are the
	// certificates; the sig-share exchange stays inside the co-located
	// sender group). This is the byte accounting behind the
	// commit-channel dedup figures. Control traffic (moves, progress,
	// selects) is not counted.
	SendBytes *stats.Counter
	// ProgressIntervalMS is the period, in milliseconds, of a sender's
	// tick: re-announcing unacknowledged window moves and, on IRMC-SC,
	// announcing certificate progress (0 = 50).
	ProgressIntervalMS int
	// CollectorTimeoutMS is how long a receiver waits for a position its
	// senders claim to have before it asks again: IRMC-SC switches
	// collectors, IRMC-RC with Resend requests a re-transmission
	// (0 = 1000).
	CollectorTimeoutMS int
	// Resend enables IRMC-RC window-loss repair on this channel: the
	// sender retains the sealed envelope of every in-window position it
	// has sent (pruned as the window advances), and a receiver whose
	// Receive has been blocked on an in-window, unresolved position for
	// a full CollectorTimeoutMS interval asks the senders to re-transmit
	// from that position. Without it a Send multicast is
	// fire-and-forget, so a receiver cut off by a partition or restart
	// could never obtain positions the window still covers — the channel
	// would violate the IRMC window contract and wedge. Spider enables
	// it on commit channels; request channels instead rely on client
	// retries re-entering the forward path. IRMC-SC ignores the flag
	// (certificate retention plus collector rotation already repairs).
	Resend bool
	// OnNewSubchannel, when set on a receiver endpoint, is invoked
	// (outside endpoint locks) the first time traffic arrives for a
	// subchannel. Spider's agreement replicas use it to discover
	// per-client request subchannels and spawn receive loops.
	OnNewSubchannel func(sc ids.Subchannel)
	// Pipeline runs inbound signature verification off the transport
	// handler goroutines; nil selects the process-wide default pool.
	Pipeline *crypto.Pipeline
}

// Pipe returns the configured crypto pipeline or the process default.
func (c *Config) Pipe() *crypto.Pipeline {
	if c.Pipeline != nil {
		return c.Pipeline
	}
	return crypto.DefaultPipeline()
}

// ProgressInterval is ProgressIntervalMS as a duration, 50 ms when unset.
func (c *Config) ProgressInterval() time.Duration {
	if c.ProgressIntervalMS > 0 {
		return time.Duration(c.ProgressIntervalMS) * time.Millisecond
	}
	return 50 * time.Millisecond
}

// CollectorTimeout is CollectorTimeoutMS as a duration, 1 s when unset.
func (c *Config) CollectorTimeout() time.Duration {
	if c.CollectorTimeoutMS > 0 {
		return time.Duration(c.CollectorTimeoutMS) * time.Millisecond
	}
	return time.Second
}

// Validate checks structural requirements shared by implementations.
func (c *Config) Validate() error {
	if c.Capacity < 1 {
		return errors.New("irmc: capacity must be at least 1")
	}
	if len(c.Senders.Members) == 0 || len(c.Receivers.Members) == 0 {
		return errors.New("irmc: sender and receiver groups required")
	}
	if c.Suite == nil || c.Node == nil {
		return errors.New("irmc: suite and node required")
	}
	return nil
}

// IsSender reports whether this endpoint's identity belongs to the
// sender group.
func (c *Config) IsSender() bool { return c.Senders.Contains(c.Suite.Node()) }

// Track starts CPU accounting for one processing section; the returned
// function stops it. Safe with a nil receiver configuration.
func (c *Config) Track() func() {
	if c.Meter == nil {
		return func() {}
	}
	return c.Meter.Track()
}

// Window is one subchannel's flow-control window: positions
// [Start, Start+Capacity-1] are admissible.
type Window struct {
	Start    ids.Position
	Capacity int
}

// NewWindow returns a window anchored at position 1, matching the
// paper's initialization.
func NewWindow(capacity int) Window {
	return Window{Start: 1, Capacity: capacity}
}

// Max returns the inclusive upper bound.
func (w Window) Max() ids.Position {
	return w.Start + ids.Position(w.Capacity) - 1
}

// Contains reports whether p is inside the window.
func (w Window) Contains(p ids.Position) bool {
	return p >= w.Start && p <= w.Max()
}

// Advance moves the window start forward to p; it never moves
// backwards. It reports whether the window changed.
func (w *Window) Advance(p ids.Position) bool {
	if p <= w.Start {
		return false
	}
	w.Start = p
	return true
}

// SenderWindow is the sender side of one subchannel's window, shared by
// both implementations. Its start is the higher of two positions: the
// move this sender itself requested, which takes effect here at once
// (the caller of MoveWindow has declared everything below obsolete, so
// nothing is gained by waiting a round trip for the receivers to say
// so too), and the (fr+1)-highest start announced by the receivers,
// which at least one correct receiver endorsed. A receiver window is
// not affected by either until fs+1 senders have requested the move.
type SenderWindow struct {
	Window
	own      ids.Position                // highest move this sender requested (0: none)
	recvWins map[ids.NodeID]ids.Position // window starts announced by receivers
	quorum   ids.Position                // (fr+1)-highest announced start
}

// NewSenderWindow returns a sender window anchored at position 1.
func NewSenderWindow(capacity int) SenderWindow {
	return SenderWindow{
		Window:   NewWindow(capacity),
		recvWins: make(map[ids.NodeID]ids.Position),
		quorum:   1,
	}
}

// Request records this sender's own move to p. fresh reports whether p
// is beyond every earlier request (the Move must then be announced to
// the receivers), advanced whether the window start moved.
func (w *SenderWindow) Request(p ids.Position) (fresh, advanced bool) {
	if p <= w.own {
		return false, false
	}
	w.own = p
	return true, w.Advance(p)
}

// Announce records receiver from's announced window start. drained is
// how far the receiver quorum's start advanced — positions fr+1
// receivers have moved past, whether or not the window start moved
// with them — and advanced reports whether the window start moved.
func (w *SenderWindow) Announce(from ids.NodeID, p ids.Position, receivers ids.Group) (drained int64, advanced bool) {
	if p <= w.recvWins[from] {
		return 0, false // announcements only move forward
	}
	w.recvWins[from] = p
	q := KHighest(w.recvWins, receivers.Members, receivers.F+1)
	if q > w.quorum {
		drained = int64(q - w.quorum)
		w.quorum = q
	}
	return drained, w.Advance(q)
}

// Unacknowledged returns this sender's requested move and the
// receivers whose announced start still trails it.
func (w *SenderWindow) Unacknowledged(receivers []ids.NodeID) (ids.Position, []ids.NodeID) {
	if w.own == 0 {
		return 0, nil
	}
	var lag []ids.NodeID
	for _, nid := range receivers {
		if w.recvWins[nid] < w.own {
			lag = append(lag, nid)
		}
	}
	return w.own, lag
}

// FlowStats is a snapshot of one subchannel's sender-side flow
// counters, the measurement inputs of adaptive window sizing: Acked
// and Blocked are cumulative (the sampler differences consecutive
// snapshots for per-interval drain and stall rates), Outstanding and
// Capacity are instantaneous.
type FlowStats struct {
	Acked       int64 // positions the receiver ack quorum drained past
	Blocked     int64 // Send calls that stalled on a full window
	Outstanding int   // positions sent but not yet acked
	Capacity    int   // current effective window capacity
}

// KHighest returns the k-th highest position in values (k >= 1).
// Missing peers count as position 1 (the initial window start). It is
// the primitive behind the fr+1-highest / fs+1-highest window rules:
// taking the (f+1)-th highest request guarantees at least one correct
// replica endorsed moving that far.
func KHighest(values map[ids.NodeID]ids.Position, members []ids.NodeID, k int) ids.Position {
	if k < 1 || k > len(members) {
		return 1
	}
	all := make([]ids.Position, 0, len(members))
	for _, m := range members {
		v, ok := values[m]
		if !ok {
			v = 1
		}
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	return all[k-1]
}
