package core

import (
	"sync"
	"time"

	"spider/internal/checkpoint"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/wire"
)

// ExecutionReplica implements Figure 16 of the paper: it validates and
// forwards client requests to the agreement group through the request
// channel, executes the totally ordered requests arriving on the
// commit channel, answers clients, serves weakly consistent reads
// locally, and maintains execution checkpoints.
type ExecutionReplica struct {
	cfg ExecutionConfig
	me  ids.NodeID

	mu   sync.Mutex
	cond *sync.Cond // signals sn advances (checkpoint installs)

	sn      ids.SeqNr
	pos     ids.Position                     // next commit-channel position (batch) to receive
	t       map[ids.ClientID]uint64          // latest forwarded counter per client
	replies map[ids.ClientID]replyCacheEntry // u[c]

	reqSender  irmc.Sender
	commitRecv irmc.Receiver
	cp         *checkpoint.Component

	forwarders map[ids.ClientID]*forwarder

	// replaying suppresses client replies while the disk suffix is
	// re-executed during rehydration (the replies were already sent
	// before the crash; the cache still filters duplicates).
	replaying bool

	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewExecutionReplica wires up an execution replica. Call Start to
// begin processing.
func NewExecutionReplica(cfg ExecutionConfig) (*ExecutionReplica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &ExecutionReplica{
		cfg:        cfg,
		me:         cfg.Suite.Node(),
		pos:        1,
		t:          make(map[ids.ClientID]uint64),
		replies:    make(map[ids.ClientID]replyCacheEntry),
		forwarders: make(map[ids.ClientID]*forwarder),
		done:       make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)

	var err error
	e.reqSender, err = newChannelSender(cfg.Channel, irmc.Config{
		Senders:   cfg.Group,
		Receivers: cfg.AgreementGroup,
		Capacity:  requestChannelCapacity,
		Suite:     cfg.Suite,
		Node:      cfg.Node,
		Stream:    requestStream(cfg.Group.ID),
	})
	if err != nil {
		return nil, err
	}
	e.commitRecv, err = newChannelReceiver(cfg.Channel, irmc.Config{
		Senders:   cfg.AgreementGroup,
		Receivers: cfg.Group,
		Capacity:  commitChannelCapacity,
		Suite:     cfg.Suite,
		Node:      cfg.Node,
		Stream:    commitStream(cfg.Group.ID),
		// Commit channels carry committed batches the execution side has
		// no other way to obtain; RC repairs window loss via resend.
		Resend: true,
	})
	if err != nil {
		e.reqSender.Close()
		return nil, err
	}
	e.cp, err = checkpoint.New(checkpoint.Config{
		Group:    cfg.Group,
		Suite:    cfg.Suite,
		Node:     cfg.Node,
		Stream:   checkpointStream(),
		OnStable: e.onStableCheckpoint,
	})
	if err != nil {
		e.reqSender.Close()
		e.commitRecv.Close()
		return nil, err
	}
	for _, g := range cfg.PeerGroups {
		e.cp.AddFetchPeers(g)
	}
	if cfg.Store != nil {
		e.rehydrate()
	}
	return e, nil
}

// rehydrate restores the replica from its write-behind store: adopt
// the newest local checkpoint, then replay the post-checkpoint batch
// suffix without re-serving replies. Any damage — missing image,
// corrupt snapshot, truncated or gapped suffix — degrades to a cold
// start; the ordinary checkpoint Fetch path repairs the remainder.
func (e *ExecutionReplica) rehydrate() {
	img, err := e.cfg.Store.Load()
	if err != nil || img == nil {
		return
	}
	e.mu.Lock()
	if img.Seq > 0 {
		var snap execSnapshot
		if wire.Decode(img.State, &snap) != nil || snap.Seq != ids.SeqNr(img.Seq) ||
			e.cfg.App.Restore(snap.App) != nil {
			e.mu.Unlock()
			return
		}
		if snap.Replies != nil {
			e.replies = snap.Replies
		}
		for c, r := range e.replies {
			if r.Counter > e.t[c] {
				e.t[c] = r.Counter
			}
		}
		e.sn = snap.Seq
		if snap.NextPos > e.pos {
			e.pos = snap.NextPos
		}
	}
	// Replay the contiguous suffix; stop at the first gap or
	// undecodable record (write-behind may have dropped appends).
	e.replaying = true
	for i := range img.Suffix {
		ent := &img.Suffix[i]
		if ids.Position(ent.Pos) < e.pos {
			continue // covered by the checkpoint
		}
		if ids.Position(ent.Pos) != e.pos {
			break
		}
		var em ExecuteBatchMsg
		if wire.Decode(ent.Payload, &em) != nil || em.Start > e.sn+1 {
			break
		}
		prev := e.sn
		for j := range em.Items {
			if em.Start+ids.SeqNr(j) <= prev {
				continue
			}
			e.executeItemLocked(&em.Items[j])
		}
		if end := em.End(); end > e.sn {
			e.sn = end
		}
		e.pos++
	}
	e.replaying = false
	// Let the commit channel garbage-collect below the restored
	// position right away.
	e.commitRecv.MoveWindow(0, e.pos)
	e.mu.Unlock()
	// Prime the checkpoint component with the restored snapshot so a
	// gossiped announcement for the same sequence number resolves
	// locally instead of triggering a full-state fetch.
	if img.Seq > 0 {
		e.cp.Generate(ids.SeqNr(img.Seq), img.State)
	}
}

// Start launches the main execution loop and registers the client
// handler.
func (e *ExecutionReplica) Start() {
	e.cfg.Node.Handle(clientStream(e.cfg.Group.ID), e.onClientFrame)
	e.wg.Add(1)
	go e.mainLoop()
}

// Stop shuts the replica down and waits for its goroutines.
func (e *ExecutionReplica) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	close(e.done)
	for _, f := range e.forwarders {
		f.stop()
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	e.reqSender.Close()
	e.commitRecv.Close()
	e.cp.Stop()
	e.wg.Wait()
	if e.cfg.Store != nil {
		_ = e.cfg.Store.Close()
	}
}

// Seq returns the latest executed sequence number.
func (e *ExecutionReplica) Seq() ids.SeqNr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sn
}

// FetchCalls reports how many full-state checkpoint fetches this
// replica issued; a warm restart from disk leaves it at zero.
func (e *ExecutionReplica) FetchCalls() int64 { return e.cp.Fetches() }

// SnapshotInfo returns the latest executed sequence number together
// with a digest of the application state, for cross-replica
// divergence probes: two replicas of one group at the same sequence
// number must report the same digest.
func (e *ExecutionReplica) SnapshotInfo() (ids.SeqNr, crypto.Digest) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sn, crypto.Hash(e.cfg.App.Snapshot())
}

// Inspect runs f with the application while the replica's state lock
// is held, so tests and operational tooling can examine local state
// without racing ordered execution. f must not block or mutate.
func (e *ExecutionReplica) Inspect(f func(app Application)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f(e.cfg.App)
}

// --- client traffic -------------------------------------------------------

func (e *ExecutionReplica) onClientFrame(from ids.NodeID, payload []byte) {
	tag, msg, err := openClientFrame(e.cfg.Suite, crypto.DomainClientRequest, from, payload)
	if err != nil || tag != tagRequest {
		return
	}
	req := msg.(*ClientRequest)
	if req.Client.Node() != from {
		return // requests must come from their author
	}
	switch req.Kind {
	case KindWeakRead:
		e.serveWeakRead(req)
	case KindWrite, KindStrongRead, KindAdmin:
		e.acceptRequest(req)
	}
}

// serveWeakRead answers immediately from local state (Section 3.3):
// low latency, no agreement, results may be stale under concurrency.
func (e *ExecutionReplica) serveWeakRead(req *ClientRequest) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	result := e.cfg.App.ExecuteRead(req.Op)
	e.mu.Unlock()
	e.sendReply(req.Client, req.Counter, result)
}

// acceptRequest implements lines 8–22 of Figure 16.
func (e *ExecutionReplica) acceptRequest(req *ClientRequest) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if req.Counter <= e.t[req.Client] {
		// Old or retried request: answer from the reply cache if the
		// result exists.
		cached, ok := e.replies[req.Client]
		executed := ok && cached.Counter >= req.Counter
		// A retry of the counter we last forwarded that has NOT been
		// executed yet is re-admitted below: the original forward is a
		// single unreliable multicast on the request channel, so if it
		// raced a partition or an agreement-side restart it is gone and
		// only the client's retry can put it back. Staying silent here
		// would wedge the client forever. (Re-forwarding is idempotent:
		// the channel receiver keeps one submission per sender per
		// position.)
		retry := req.Counter == e.t[req.Client] && !executed
		e.mu.Unlock()
		if ok && cached.Counter == req.Counter && !cached.Placeholder {
			e.sendReply(req.Client, req.Counter, cached.Result)
		}
		if !retry {
			return
		}
	} else {
		e.mu.Unlock()
	}

	// Verify the client signature only for requests we are about to
	// forward (the expensive check runs at most once per request), on
	// the client's delivery goroutine and without the lock.
	if e.cfg.Suite.Verify(req.Client.Node(), crypto.DomainClientRequest, req.SigPayload(), req.Sig) == nil {
		e.admitVerified(req)
	}
}

// admitVerified forwards a request whose signature already checked
// out. A counter equal to the last forwarded one is admitted again —
// that is a client retry of a forward that may have been lost (see
// acceptRequest); re-encoding the identical signed request yields the
// identical bytes, so the re-forward matches the original submission
// at the channel receivers.
func (e *ExecutionReplica) admitVerified(req *ClientRequest) {
	e.mu.Lock()
	if e.stopped || req.Counter < e.t[req.Client] {
		e.mu.Unlock()
		return
	}
	if cached, ok := e.replies[req.Client]; ok && cached.Counter >= req.Counter {
		e.mu.Unlock()
		return // executed while the retry was being verified
	}
	e.t[req.Client] = req.Counter
	fwd, ok := e.forwarders[req.Client]
	if !ok {
		fwd = newForwarder()
		e.forwarders[req.Client] = fwd
		e.wg.Add(1)
		go e.runForwarder(fwd, req.Client)
	}
	e.mu.Unlock()

	wrapped := WrappedRequest{Req: *req, Group: e.cfg.Group.ID}
	fwd.offer(pendingForward{counter: req.Counter, payload: wire.Encode(&wrapped)})
}

// pendingForward is one request awaiting submission to the request
// channel.
type pendingForward struct {
	counter uint64
	payload []byte
}

// forwarder serializes a client's submissions into its request
// subchannel. Send can block on flow control, so each client gets a
// dedicated goroutine with a latest-wins mailbox: a correct client has
// at most one outstanding request, and a faulty client flooding
// counters only replaces its own pending entry (Section 3.7 isolation).
type forwarder struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending *pendingForward
	stopped bool
}

func newForwarder() *forwarder {
	f := &forwarder{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *forwarder) offer(p pendingForward) {
	f.mu.Lock()
	if !f.stopped {
		f.pending = &p
		f.cond.Signal()
	}
	f.mu.Unlock()
}

func (f *forwarder) take() (pendingForward, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.pending == nil && !f.stopped {
		f.cond.Wait()
	}
	if f.stopped {
		return pendingForward{}, false
	}
	p := *f.pending
	f.pending = nil
	return p, true
}

func (f *forwarder) stop() {
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (e *ExecutionReplica) runForwarder(f *forwarder, client ids.ClientID) {
	defer e.wg.Done()
	sub := ids.Subchannel(client)
	for {
		p, ok := f.take()
		if !ok {
			return
		}
		// Lines 21–22 of Figure 16: move the client's subchannel
		// window to the new counter, then insert the request there.
		// The move takes effect at this sender at once, so the Send
		// behind it never waits for the agreement side, however far
		// the counter jumped (weak reads consume counters this
		// subchannel never sees).
		e.reqSender.MoveWindow(sub, ids.Position(p.counter))
		// Send may return TooOld when the client has already moved
		// on; that is exactly the paper's garbage-collection rule.
		_ = e.reqSender.Send(sub, ids.Position(p.counter), p.payload)
	}
}

func (e *ExecutionReplica) sendReply(client ids.ClientID, counter uint64, result []byte) {
	reply := &Reply{Counter: counter, Result: result}
	frame := clientRegistry.EncodeFrame(tagReply, reply)
	env := sealClientFrame(e.cfg.Suite, crypto.DomainReply, frame, client.Node())
	e.cfg.Node.Send(client.Node(), replyStream(), env)
}

// --- ordered execution ----------------------------------------------------

// mainLoop implements lines 24–40 of Figure 16, lifted to batches: one
// commit-channel position carries one consensus batch, which is
// decoded once and applied in order under a single lock acquisition.
func (e *ExecutionReplica) mainLoop() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			return
		}
		pos := e.pos
		sn := e.sn
		e.mu.Unlock()

		payload, err := e.commitRecv.Receive(0, pos)
		if err != nil {
			if _, ok := irmc.AsTooOld(err); ok {
				// The window moved past us: we missed whole batches.
				// Fetch an execution checkpoint (ours or another
				// group's) covering newer state and wait for it to
				// install (lines 27–29); installs advance pos.
				e.cp.Fetch(sn + 1)
				e.waitPosAdvance(pos, 50*time.Millisecond)
				continue
			}
			return // channel closed
		}

		var em ExecuteBatchMsg
		if err := wire.Decode(payload, &em); err != nil {
			// A corrupt batch cannot pass fa+1 matching senders;
			// skipping it would desynchronize us, so halt this
			// position until a checkpoint repairs the state.
			e.waitPosAdvance(pos, 100*time.Millisecond)
			continue
		}

		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			return
		}
		if e.pos != pos {
			// A checkpoint installed while we were blocked; redo.
			e.mu.Unlock()
			continue
		}
		if em.Start > e.sn+1 {
			// The batch skips sequence numbers we never executed
			// (agreement-side garbage collection outran us); only a
			// checkpoint can bridge the gap.
			fetchFrom := e.sn + 1
			e.mu.Unlock()
			e.cp.Fetch(fetchFrom)
			e.waitPosAdvance(pos, 100*time.Millisecond)
			continue
		}
		prev := e.sn
		for i := range em.Items {
			seq := em.Start + ids.SeqNr(i)
			if seq <= prev {
				continue // covered by an installed checkpoint
			}
			e.executeItemLocked(&em.Items[i])
		}
		if end := em.End(); end > e.sn {
			e.sn = end
		}
		e.pos = pos + 1
		if e.cfg.Store != nil {
			// Write-behind: the batch is the replay unit; a restart
			// re-executes it from here. Calls
			// under the lock keep the append/checkpoint queue order
			// consistent with state mutation order.
			e.cfg.Store.Append(uint64(pos), wire.Encode(&em))
		}
		// Execution checkpoints fire when a batch crosses a ke
		// boundary; batch ends are identical at all replicas, so the
		// group still snapshots at matching sequence numbers.
		ckptDue := e.sn/executionCheckpointInterval > prev/executionCheckpointInterval
		snapSeq := e.sn
		var snap []byte
		if ckptDue {
			snap = e.snapshotLocked()
			if e.cfg.Store != nil {
				e.cfg.Store.SaveCheckpoint(uint64(snapSeq), snap)
			}
		}
		e.mu.Unlock()

		if ckptDue {
			e.cp.Generate(snapSeq, snap)
		}
	}
}

// waitPosAdvance blocks until the commit position advances past pos or
// the timeout elapses (advances come from checkpoint installs).
func (e *ExecutionReplica) waitPosAdvance(pos ids.Position, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait, so a timer ends it. It broadcasts
	// under the lock: a bare Broadcast could fall between the deadline
	// check and Wait and be lost.
	timer := time.AfterFunc(timeout, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer timer.Stop()
	e.mu.Lock()
	for !e.stopped && e.pos <= pos && time.Now().Before(deadline) {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// executeItemLocked implements lines 31–38 of Figure 16 for one
// request slot of a batch.
func (e *ExecutionReplica) executeItemLocked(item *ExecuteItem) {
	if !item.Full {
		if !item.Client.Valid() {
			return // no-op slot (an undecodable payload upstream)
		}
		// Strong-read placeholder for another group: remember the
		// counter so duplicates are filtered, store no result.
		if cur, ok := e.replies[item.Client]; !ok || cur.Counter < item.Counter {
			e.replies[item.Client] = replyCacheEntry{Counter: item.Counter, Placeholder: true}
		}
		return
	}
	req := &item.Req.Req
	cur, seen := e.replies[req.Client]
	if seen && cur.Counter >= req.Counter {
		return // at-most-once: old or duplicate request (line 34)
	}
	var result []byte
	switch req.Kind {
	case KindWrite:
		result = e.cfg.App.Execute(req.Op)
	case KindStrongRead:
		result = e.cfg.App.ExecuteRead(req.Op)
	case KindAdmin:
		// Reconfigurations execute at the agreement group; execution
		// groups acknowledge so the admin client gets a verifiable
		// quorum of replies.
		result = []byte("admin-ok")
	default:
		return
	}
	e.replies[req.Client] = replyCacheEntry{Counter: req.Counter, Result: result}
	if req.Counter > e.t[req.Client] {
		e.t[req.Client] = req.Counter
	}
	if item.Req.Group == e.cfg.Group.ID && !e.replaying {
		// Only the client's own group answers (line 37).
		e.sendReply(req.Client, req.Counter, result)
	}
}

// snapshotLocked builds the execution checkpoint content.
func (e *ExecutionReplica) snapshotLocked() []byte {
	snap := execSnapshot{
		Seq:     e.sn,
		NextPos: e.pos,
		Replies: make(map[ids.ClientID]replyCacheEntry, len(e.replies)),
		App:     e.cfg.App.Snapshot(),
	}
	for c, r := range e.replies {
		snap.Replies[c] = r
	}
	return wire.Encode(&snap)
}

// onStableCheckpoint implements lines 42–48 of Figure 16.
func (e *ExecutionReplica) onStableCheckpoint(seq ids.SeqNr, state []byte) {
	var snap execSnapshot
	if err := wire.Decode(state, &snap); err != nil || snap.Seq != seq {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	if e.cfg.Store != nil && seq >= e.sn {
		// Persist adopted checkpoints too: a replica repaired via
		// Fetch must restart warm from the fetched state.
		e.cfg.Store.SaveCheckpoint(uint64(seq), state)
	}
	// Permit commit-channel garbage collection up to the checkpoint
	// (window moves are in batch positions and only ever advance).
	e.commitRecv.MoveWindow(0, snap.NextPos)
	if seq < e.sn {
		return
	}
	if seq > e.sn {
		if err := e.cfg.App.Restore(snap.App); err != nil {
			return
		}
		e.replies = snap.Replies
		for c, r := range snap.Replies {
			if r.Counter > e.t[c] {
				e.t[c] = r.Counter
			}
		}
		e.sn = seq
	}
	if snap.NextPos > e.pos {
		e.pos = snap.NextPos
	}
	e.cond.Broadcast()
}
