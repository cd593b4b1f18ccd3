package irmc

import (
	"sync"
	"time"

	"spider/internal/ids"
	"spider/internal/wire"
)

// endpoint is what the sender core and the receiver core have in
// common: the channel configuration and codec, the one lock (with its
// condition) that guards the core's state and the embedding
// implementation's alike, shutdown, and the two things every endpoint
// does with the network — post a MAC'd message to some peers, and do
// something on a tick until Close.
type endpoint struct {
	Cfg Config
	Reg *wire.Registry
	// Mu is the endpoint's only lock. Core methods take it themselves;
	// hooks are called with it held; methods documented "under Mu" expect
	// the implementation to hold it.
	Mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

func (e *endpoint) init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.Cfg, e.Reg, e.stop = cfg, NewRegistry(), make(chan struct{})
	e.cond = sync.NewCond(&e.Mu)
	return nil
}

// Closed reports, under Mu, whether Close has been called.
func (e *endpoint) Closed() bool { return e.closed }

// Close implements Sender and Receiver: blocked calls return ErrClosed
// and the endpoint's tickers have stopped when it returns.
func (e *endpoint) Close() {
	e.Mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.stop)
	}
	e.cond.Broadcast()
	e.Mu.Unlock()
	e.wg.Wait()
}

// Every calls fn once per interval, on one goroutine, until Close.
func (e *endpoint) Every(interval time.Duration, fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Post marshals msg once, seals it for each recipient and hands the
// envelopes to the transport, returning the bytes handed over. It is
// called without Mu.
func (e *endpoint) Post(tag wire.TypeTag, msg wire.Marshaler, to ...ids.NodeID) int64 {
	if len(to) == 0 {
		return 0
	}
	stop := e.Cfg.Track()
	envs := make([][]byte, 0, len(to))
	// A MAC'd tag cannot fail to seal; Send, the one signed tag, is
	// sealed once with Seal and never comes through here.
	_ = SealMulti(e.Cfg.Suite, tag, e.Reg.EncodeFrame(tag, msg), to, func(_ ids.NodeID, env []byte) {
		envs = append(envs, env)
	})
	stop()
	var n int64
	for i, env := range envs {
		n += int64(len(env))
		e.Cfg.Node.Send(to[i], e.Cfg.Stream, env)
	}
	return n
}

// SenderSub is one subchannel's state at a sender endpoint.
type SenderSub[X any] struct {
	Win SenderWindow
	// Early holds what fellow senders submit for positions this
	// sender's window does not cover yet — IRMC-SC's shares; under
	// receiver-side collection senders exchange nothing and it stays
	// empty. The implementation puts and releases; the core reports it.
	Early Hold[*SigShareMsg]
	// Flow counters behind FlowStats: acked counts positions the fr+1
	// receiver quorum has drained past (positions this sender's own move
	// skipped are not drained and do not count until the receivers
	// announce them), blocked counts Sends that had to wait on a full
	// window, highSent is the highest position handed to Send.
	acked, blocked int64
	highSent       ids.Position
	// X is the implementation's own state for the subchannel.
	X X
}

// SenderCore is the part of a sender endpoint that Figure 14 specifies
// whatever the collection strategy: subchannel state, the window wait
// in front of Send, MoveWindow, the receivers' announcements, the
// re-announcement of a move until every receiver has acknowledged it,
// and the flow counters. An implementation embeds it, adds Send, and
// hears about every change of a window through one hook.
type SenderCore[X any] struct {
	endpoint
	Subs    map[ids.Subchannel]*SenderSub[X]
	initX   func(*X)
	changed func(*SenderSub[X]) func()
}

// Init prepares the core. initX fills the implementation's state of a
// new subchannel. changed is called under Mu whenever a subchannel's
// window admits positions it did not before — its start advanced or its
// capacity grew: the implementation prunes what the start has passed,
// admits what it held for the new range, and returns what it then wants
// done once Mu is released (nil: nothing).
func (c *SenderCore[X]) Init(cfg Config, initX func(*X), changed func(*SenderSub[X]) func()) error {
	c.Subs, c.initX, c.changed = make(map[ids.Subchannel]*SenderSub[X]), initX, changed
	return c.endpoint.init(cfg)
}

// Start begins the sender's one ticker, at Config.ProgressInterval: it
// re-announces unacknowledged moves and then runs tick, when given. The
// implementation calls it once its own fields are set.
func (c *SenderCore[X]) Start(tick func()) {
	c.Every(c.Cfg.ProgressInterval(), func() {
		c.reannounceMoves()
		if tick != nil {
			tick()
		}
	})
}

// Sub returns, under Mu, the subchannel's state, creating it if needed.
func (c *SenderCore[X]) Sub(sc ids.Subchannel) *SenderSub[X] {
	sub, ok := c.Subs[sc]
	if !ok {
		sub = &SenderSub[X]{
			Win:   NewSenderWindow(c.Cfg.Capacity),
			Early: NewHold[*SigShareMsg](c.Cfg.Capacity),
		}
		c.initX(&sub.X)
		c.Subs[sc] = sub
	}
	return sub
}

// WaitWindow is the front half of Send: it blocks while p lies beyond
// the subchannel's window. With a nil error it returns the subchannel
// and Mu held, for the implementation to record the submission before
// unlocking; otherwise Mu is released and the error is ErrClosed or a
// *TooOldError.
func (c *SenderCore[X]) WaitWindow(sc ids.Subchannel, p ids.Position) (*SenderSub[X], error) {
	c.Mu.Lock()
	sub := c.Sub(sc)
	if !c.closed && p > sub.Win.Max() {
		// A window-full stall is the auto-sizer's grow signal: the round
		// trip to the fr+1 ack quorum is serializing sends.
		sub.blocked++
	}
	for !c.closed && p > sub.Win.Max() {
		c.cond.Wait()
	}
	if c.closed {
		c.Mu.Unlock()
		return nil, ErrClosed
	}
	if p < sub.Win.Start {
		start := sub.Win.Start
		c.Mu.Unlock()
		return nil, &TooOldError{NewStart: start}
	}
	if p > sub.highSent {
		sub.highSent = p
	}
	return sub, nil
}

// update applies fn to the subchannel under Mu. When fn reports that
// the window admits more than before, blocked Sends wake and the
// implementation's hook runs; what the hook returns runs unlocked.
func (c *SenderCore[X]) update(sc ids.Subchannel, fn func(*SenderSub[X]) bool) {
	var after func()
	c.Mu.Lock()
	if !c.closed {
		if sub := c.Sub(sc); fn(sub) {
			c.cond.Broadcast()
			after = c.changed(sub)
		}
	}
	c.Mu.Unlock()
	if after != nil {
		after()
	}
}

// MoveWindow implements Sender: the local window starts at p from now
// on, and the receivers are asked to follow.
func (c *SenderCore[X]) MoveWindow(sc ids.Subchannel, p ids.Position) {
	fresh := false
	c.update(sc, func(sub *SenderSub[X]) (advanced bool) {
		fresh, advanced = sub.Win.Request(p)
		return advanced
	})
	if fresh {
		c.Post(TagMove, &MoveMsg{Subchannel: sc, Position: p}, c.Cfg.Receivers.Members...)
	}
}

// OnReceiverMove records a receiver's announced window start.
func (c *SenderCore[X]) OnReceiverMove(from ids.NodeID, m *MoveMsg) {
	c.update(m.Subchannel, func(sub *SenderSub[X]) bool {
		drained, advanced := sub.Win.Announce(from, m.Position, c.Cfg.Receivers)
		sub.acked += drained
		return advanced
	})
}

// reannounceMoves re-sends every subchannel's requested move to exactly
// the receivers whose announced window start still trails it. A Move is
// otherwise multicast once, so a receiver that was unreachable at that
// moment — crashed, restarting, behind a partition — would never learn
// that the window advanced: its Receive of a garbage-collected position
// would block instead of failing with TooOld (the signal for a
// checkpoint fetch), and the sender's window, which follows fr+1
// receiver announcements, would stay pinned. Receivers answer a
// repeated Move with their start, moved or not, so the re-announcement
// itself repairs a lost announcement, and it stops once all have caught
// up.
func (c *SenderCore[X]) reannounceMoves() {
	type pending struct {
		move MoveMsg
		to   []ids.NodeID
	}
	var work []pending
	c.Mu.Lock()
	if !c.closed {
		for sc, sub := range c.Subs {
			if p, lag := sub.Win.Unacknowledged(c.Cfg.Receivers.Members); len(lag) > 0 {
				work = append(work, pending{MoveMsg{Subchannel: sc, Position: p}, lag})
			}
		}
	}
	c.Mu.Unlock()
	for i := range work {
		c.Post(TagMove, &work[i].move, work[i].to...)
	}
}

// FlowStats implements Sender.
func (c *SenderCore[X]) FlowStats(sc ids.Subchannel) FlowStats {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	sub := c.Sub(sc)
	out := FlowStats{Acked: sub.acked, Blocked: sub.blocked, Capacity: sub.Win.Capacity}
	if sub.highSent >= sub.Win.Start {
		out.Outstanding = int(sub.highSent - sub.Win.Start + 1)
	}
	return out
}

// SetCapacity implements Sender. It is a sender-local decision: the
// other endpoints keep the configured capacity and a smaller sender
// window is always inside it, so moves, fs+1 matching and repair are
// untouched; shrinking only makes Send block earlier.
func (c *SenderCore[X]) SetCapacity(sc ids.Subchannel, n int) {
	n = min(max(n, 1), c.Cfg.Capacity)
	c.update(sc, func(sub *SenderSub[X]) bool {
		grew := n > sub.Win.Capacity
		sub.Win.Capacity = n
		return grew
	})
}

// Held reports how many early entries of sender peer are held for
// subchannel sc; never more than Config.Capacity.
func (c *SenderCore[X]) Held(sc ids.Subchannel, peer ids.NodeID) int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if sub, ok := c.Subs[sc]; ok {
		return sub.Early.Len(peer)
	}
	return 0
}

// ReceiverSub is one subchannel's state at a receiver endpoint.
type ReceiverSub[X any] struct {
	Win Window
	// Early holds verified submissions — a sender's Send payload, a
	// collector's certified payload — for positions beyond the window,
	// until fs+1 Moves bring the window there. The implementation puts;
	// the core drops and releases.
	Early       Hold[[]byte]
	senderMoves map[ids.NodeID]ids.Position
	delivered   map[ids.Position][]byte
	// waiting counts blocked Receive calls per position on channels
	// with Config.Resend, whose repair loop asks Stuck.
	waiting map[ids.Position]int
	// X is the implementation's own state for the subchannel.
	X X
}

// Delivered reports whether position p has its payload.
func (sub *ReceiverSub[X]) Delivered(p ids.Position) bool {
	_, ok := sub.delivered[p]
	return ok
}

// Stuck returns the lowest in-window position that a Receive is blocked
// on and that has not been delivered, or 0.
func (sub *ReceiverSub[X]) Stuck() ids.Position {
	stuck := ids.Position(0)
	for p := range sub.waiting {
		if sub.Win.Contains(p) && !sub.Delivered(p) && (stuck == 0 || p < stuck) {
			stuck = p
		}
	}
	return stuck
}

// ReceiverCore is the receiver-side counterpart of SenderCore: Receive,
// MoveWindow, the rule that fs+1 senders' Moves move the window, the
// store of delivered payloads and the release of what was held early.
// An implementation embeds it and decides what makes a position
// deliverable.
type ReceiverCore[X any] struct {
	endpoint
	Subs  map[ids.Subchannel]*ReceiverSub[X]
	initX func(*X)
	prune func(*ReceiverSub[X])
	admit func(sub *ReceiverSub[X], from ids.NodeID, p ids.Position, payload []byte)
}

// Init prepares the core. initX fills the implementation's state of a
// new subchannel. Both hooks run under Mu after the window has moved:
// prune (may be nil) drops the implementation's state below the new
// start, then admit is handed every held submission the window now
// covers, exactly as if it had just arrived.
func (c *ReceiverCore[X]) Init(cfg Config, initX func(*X), prune func(*ReceiverSub[X]),
	admit func(sub *ReceiverSub[X], from ids.NodeID, p ids.Position, payload []byte)) error {
	c.Subs, c.initX, c.prune, c.admit = make(map[ids.Subchannel]*ReceiverSub[X]), initX, prune, admit
	return c.endpoint.init(cfg)
}

func (c *ReceiverCore[X]) sub(sc ids.Subchannel) *ReceiverSub[X] {
	sub, ok := c.Subs[sc]
	if !ok {
		sub = &ReceiverSub[X]{
			Win:         NewWindow(c.Cfg.Capacity),
			Early:       NewHold[[]byte](c.Cfg.Capacity),
			senderMoves: make(map[ids.NodeID]ids.Position),
			delivered:   make(map[ids.Position][]byte),
			waiting:     make(map[ids.Position]int),
		}
		c.initX(&sub.X)
		c.Subs[sc] = sub
	}
	return sub
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

// Deliver records, under Mu, the payload of in-window position p; the
// first one stands.
func (c *ReceiverCore[X]) Deliver(sub *ReceiverSub[X], p ids.Position, payload []byte) {
	if !sub.Delivered(p) {
		sub.delivered[p] = payload
		c.cond.Broadcast()
	}
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

// MoveWindow implements Receiver: advance the local window, garbage
// collect, and announce the new start to the senders.
func (c *ReceiverCore[X]) MoveWindow(sc ids.Subchannel, p ids.Position) {
	c.Mu.Lock()
	moved := !c.closed && c.moveLocked(c.sub(sc), p)
	c.Mu.Unlock()
	if moved {
		c.Post(TagMove, &MoveMsg{Subchannel: sc, Position: p}, c.Cfg.Senders.Members...)
	}
}

// moveLocked advances the window to p, prunes below it and admits the
// held submissions it now covers; it reports whether the window moved.
func (c *ReceiverCore[X]) moveLocked(sub *ReceiverSub[X], p ids.Position) bool {
	if !sub.Win.Advance(p) {
		return false
	}
	for pos := range sub.delivered {
		if pos < sub.Win.Start {
			delete(sub.delivered, pos)
		}
	}
	if c.prune != nil {
		c.prune(sub)
	}
	sub.Early.Release(sub.Win, func(from ids.NodeID, pos ids.Position, payload []byte) {
		c.admit(sub, from, pos, payload)
	})
	c.cond.Broadcast()
	return true
}

// OnSenderMove applies the fs+1-highest rule to a sender's Move
// (Figure 18, receiver side) and answers it where an answer is news. A
// Move that moves the window is answered to every sender. One that
// repeats what its sender asked before is answered to that sender: it
// re-announces only while our announced start trails its move, so our
// announcement raced a partition or a restart, and the re-announcement
// must be able to repair that by itself. A new Move that moves nothing
// needs no answer — whatever start we have, every sender was told.
func (c *ReceiverCore[X]) OnSenderMove(from ids.NodeID, m *MoveMsg) {
	c.Mu.Lock()
	if c.closed {
		c.Mu.Unlock()
		return
	}
	sub := c.Arrived(m.Subchannel)
	repeat := m.Position <= sub.senderMoves[from]
	if !repeat {
		sub.senderMoves[from] = m.Position
		sub.Early.DropBelow(from, m.Position)
	}
	var to []ids.NodeID
	if c.moveLocked(sub, KHighest(sub.senderMoves, c.Cfg.Senders.Members, c.Cfg.Senders.F+1)) {
		to = c.Cfg.Senders.Members
	} else if repeat {
		to = []ids.NodeID{from}
	}
	ack := &MoveMsg{Subchannel: m.Subchannel, Position: sub.Win.Start}
	c.Mu.Unlock()
	c.Post(TagMove, ack, to...)
}

// Held reports how many early submissions of sender peer are held for
// subchannel sc; never more than Config.Capacity.
func (c *ReceiverCore[X]) Held(sc ids.Subchannel, peer ids.NodeID) int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if sub, ok := c.Subs[sc]; ok {
		return sub.Early.Len(peer)
	}
	return 0
}
