package irmc

import (
	"errors"
	"sync"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/transport"
	"spider/internal/wire"
)

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
	// sender group). This is the byte accounting behind
	// core.CommitStats.WireBytes. Control traffic (moves, progress,
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

// Track starts CPU accounting for one processing section; the returned
// function stops it. Safe with a nil receiver configuration.
func (c *Config) Track() func() {
	if c.Meter == nil {
		return func() {}
	}
	return c.Meter.Track()
}

// endpoint is the driver both cores run under (this file and admit.go;
// the cores in core.go, rc and sc touch no lock, clock or network). It
// owns the one lock and its condition, shutdown, the outbox, the one
// timer, and the transport handle.
//
// The outbox rule: core code runs with Mu held and never sends; it
// queues (Queue, QueueFrame). Every helper here that releases Mu after
// core code ran (Locked, WaitWindow, Admit, the timer) then seals and
// sends what was queued, in the order it was queued, without the lock.
type endpoint struct {
	Cfg Config
	Reg *wire.Registry
	// Mu is the endpoint's only lock; core code runs with it held.
	Mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// wake, set by core code, wakes blocked Sends and Receives when Mu
	// is released.
	wake bool
	// The outbox: first, then rest. Holding the first message outside
	// the slice spares the common one-message outbox an allocation.
	first    outMsg
	rest     []outMsg
	flushing sync.WaitGroup // outboxes being sent without Mu
	timer    *time.Timer
}

// outMsg is one queued message: msg, or its encoded frame, for to (never
// empty in a queued one).
type outMsg struct {
	tag   wire.TypeTag
	msg   wire.Marshaler
	frame []byte
	to    []ids.NodeID
}

func (e *endpoint) init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.Cfg, e.Reg = cfg, NewRegistry()
	e.cond = sync.NewCond(&e.Mu)
	return nil
}

// Start registers onFrames for the endpoint's stream and, with a tick,
// starts the endpoint's one timer: every interval until Close, tick runs
// under Mu with the time. The implementation calls it once its own
// fields are set.
func (e *endpoint) Start(onFrames transport.BatchHandler, interval time.Duration, tick func(now time.Time)) {
	if tick != nil {
		e.Mu.Lock()
		e.timer = time.AfterFunc(interval, func() {
			e.Mu.Lock()
			if !e.closed {
				tick(time.Now())
				e.timer.Reset(interval)
			}
			e.unlock()
		})
		e.Mu.Unlock()
	}
	e.Cfg.Node.HandleBatch(e.Cfg.Stream, onFrames)
}

// Close implements Sender and Receiver: blocked calls return ErrClosed,
// and once it returns the endpoint sends nothing more.
func (e *endpoint) Close() {
	e.Mu.Lock()
	e.closed = true
	if e.timer != nil {
		e.timer.Stop()
	}
	e.cond.Broadcast()
	e.Mu.Unlock()
	e.flushing.Wait()
}

// Locked runs fn under Mu unless the endpoint is closed, then sends what
// fn queued.
func (e *endpoint) Locked(fn func()) {
	e.Mu.Lock()
	if !e.closed {
		fn()
	}
	e.unlock()
}

// unlock releases Mu, wakes the waiters core code asked for, and seals
// and sends the outbox.
func (e *endpoint) unlock() {
	if e.wake {
		e.wake = false
		e.cond.Broadcast()
	}
	first, rest := e.first, e.rest
	if first.to == nil {
		e.Mu.Unlock()
		return
	}
	e.first, e.rest = outMsg{}, nil
	e.flushing.Add(1)
	e.Mu.Unlock()
	defer e.flushing.Done()
	e.send(&first)
	for i := range rest {
		e.send(&rest[i])
	}
}

func (e *endpoint) queue(m outMsg) {
	if e.first.to == nil {
		e.first = m
	} else {
		e.rest = append(e.rest, m)
	}
}

// Queue asks, under Mu, for msg to be sent to the given peers once Mu is
// released.
func (e *endpoint) Queue(tag wire.TypeTag, msg wire.Marshaler, to ...ids.NodeID) {
	if len(to) > 0 {
		e.queue(outMsg{tag: tag, msg: msg, to: to})
	}
}

// QueueFrame is Queue for a frame already encoded.
func (e *endpoint) QueueFrame(tag wire.TypeTag, frame []byte, to ...ids.NodeID) {
	if len(to) > 0 {
		e.queue(outMsg{tag: tag, frame: frame, to: to})
	}
}

// send encodes a queued message, seals it for each recipient and hands
// the envelopes to the transport. Send and Certificate frames, the
// payload-bearing ones, are counted in Config.SendBytes.
func (e *endpoint) send(m *outMsg) {
	stop := e.Cfg.Track()
	frame := m.frame
	if frame == nil {
		frame = e.Reg.EncodeFrame(m.tag, m.msg)
	}
	envs := make([][]byte, 0, len(m.to))
	// Every tag the endpoints queue is known, so sealing cannot fail.
	_ = SealMulti(e.Cfg.Suite, m.tag, frame, m.to, func(_ ids.NodeID, env []byte) {
		envs = append(envs, env)
	})
	stop()
	var n int64
	for i, env := range envs {
		n += int64(len(env))
		e.Cfg.Node.Send(m.to[i], e.Cfg.Stream, env)
	}
	if (m.tag == TagSend || m.tag == TagCertificate) && e.Cfg.SendBytes != nil {
		e.Cfg.SendBytes.Add(n)
	}
}

// subchannels is the endpoint with its subchannels' state, which both
// cores keep.
type subchannels[S interface{ held(ids.NodeID) int }] struct {
	endpoint
	Subs map[ids.Subchannel]S
}

// Held reports how many early entries of peer are held for subchannel
// sc; never more than Config.Capacity.
func (c *subchannels[S]) Held(sc ids.Subchannel, peer ids.NodeID) int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if sub, ok := c.Subs[sc]; ok {
		return sub.held(peer)
	}
	return 0
}

// WaitWindow is the front half of Send: it blocks while p lies beyond
// the subchannel's window, then runs fn on the subchannel under Mu for
// the implementation to record the submission, and sends what fn
// queued. Otherwise it returns ErrClosed or a *TooOldError.
func (c *SenderCore[X]) WaitWindow(sc ids.Subchannel, p ids.Position, fn func(*SenderSub[X])) error {
	c.Mu.Lock()
	sub := c.Sub(sc)
	for !c.closed && p > sub.Win.Max() {
		c.cond.Wait()
	}
	var err error
	switch {
	case c.closed:
		err = ErrClosed
	case p < sub.Win.Start:
		err = &TooOldError{NewStart: sub.Win.Start}
	default:
		fn(sub)
	}
	c.unlock()
	return err
}

// MoveWindow implements Sender.
func (c *SenderCore[X]) MoveWindow(sc ids.Subchannel, p ids.Position) {
	c.Locked(func() { c.moveWindow(sc, p) })
}

// Arrived returns, under Mu, the state of a subchannel that inbound
// traffic names. The first time, Config.OnNewSubchannel is told — on
// its own goroutine, so user code never runs under the endpoint lock.
func (c *ReceiverCore[X]) Arrived(sc ids.Subchannel) *ReceiverSub[X] {
	sub, ok := c.Subs[sc]
	if !ok {
		sub = c.sub(sc)
		if cb := c.Cfg.OnNewSubchannel; cb != nil {
			go cb(sc)
		}
	}
	return sub
}

// Receive implements Receiver. It never returns a position outside the
// window.
func (c *ReceiverCore[X]) Receive(sc ids.Subchannel, p ids.Position) ([]byte, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	sub := c.sub(sc)
	if c.Cfg.Resend {
		sub.waiting[p]++
		defer func() {
			if sub.waiting[p]--; sub.waiting[p] == 0 {
				delete(sub.waiting, p)
			}
		}()
	}
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if p < sub.Win.Start {
			return nil, &TooOldError{NewStart: sub.Win.Start}
		}
		if msg, ok := sub.delivered[p]; ok && p <= sub.Win.Max() {
			return msg, nil
		}
		c.cond.Wait()
	}
}

// MoveWindow implements Receiver.
func (c *ReceiverCore[X]) MoveWindow(sc ids.Subchannel, p ids.Position) {
	c.Locked(func() { c.moveWindow(sc, p) })
}
