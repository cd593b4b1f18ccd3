package core

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"spider/internal/checkpoint"
	"spider/internal/consensus"
	"spider/internal/consensus/pbft"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/stats"
	"spider/internal/storage"
	"spider/internal/tune"
	"spider/internal/wire"
)

// egroup bundles the agreement replica's per-execution-group state:
// the IRMC pair connecting to it, the bounded sender worker that
// performs its (blocking) commit-channel sends, and registry metadata.
type egroup struct {
	entry      GroupEntry
	reqRecv    irmc.Receiver
	commitSend irmc.Sender
	sendQ      *groupSender
}

// sendJob is one batch awaiting submission through a group's commit
// channel. done receives exactly one value once the send finished
// (successfully or not), which is how fanOut counts ne−z completions.
type sendJob struct {
	pos     ids.Position
	payload []byte
	done    chan<- struct{}
}

// groupSender serializes one execution group's commit-channel sends on
// a single dedicated worker goroutine: fanOut enqueues one job per
// batch — bounded work, no goroutine per request — and the worker
// performs the potentially blocking Send. After stop, queued and new
// jobs still signal done (the underlying channel is closed, so Send
// returns immediately), keeping fanOut's accounting exact during
// shutdown and group removal.
type groupSender struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []sendJob
	stopped bool
}

func newGroupSender() *groupSender {
	q := &groupSender{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *groupSender) offer(job sendJob) {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		job.done <- struct{}{}
		return
	}
	q.queue = append(q.queue, job)
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *groupSender) take() (sendJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.stopped {
		q.cond.Wait()
	}
	if len(q.queue) == 0 {
		return sendJob{}, false
	}
	job := q.queue[0]
	q.queue = q.queue[1:]
	return job, true
}

func (q *groupSender) stop() {
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// AgreementReplica implements Figure 17 of the paper: it pulls client
// requests out of the request channels, feeds them to the consensus
// black box, paces deliveries with the AG-WIN window, distributes
// Execute messages through the commit channels (waiting for ne−z
// groups, Section 3.5), checkpoints the counter vector and Execute
// history, and hosts the execution-replica registry (Section 3.6).
type AgreementReplica struct {
	cfg AgreementConfig
	me  ids.NodeID

	mu   sync.Mutex
	cond *sync.Cond // win advances and shutdown

	sn      ids.SeqNr
	lastPos ids.Position // last commit-channel position handed to fanOut
	winLo   ids.SeqNr
	winHi   ids.SeqNr
	t       map[ids.ClientID]uint64    // latest agreed counter per client
	tplus   map[ids.ClientID]uint64    // next expected counter per client
	hist    map[ids.Position]histEntry // last CommitChannelCapacity batches
	groups  map[ids.GroupID]*egroup

	recvLoops map[recvKey]bool // (group, client) loops already running

	ag consensus.Agreement
	cp *checkpoint.Component

	// Validated-payload cache: a request payload is admitted by the
	// receive loops (Order) and again when the leader's pre-prepare is
	// vetted (A-Validity), so remembering digests that already passed
	// halves the RSA verification cost per ordered request. Guarded by
	// its own lock because validation runs on crypto-pipeline workers.
	vmu    sync.Mutex
	vcache map[crypto.Digest]struct{}
	vfifo  []crypto.Digest

	// undecodable counts ordered payloads that failed to decode in
	// deliver — an invariant violation (validatePayload admitted them),
	// so it is counted and logged with rate limiting: a corruption
	// storm hours after the first event must still be visible, without
	// a log line per payload.
	undecodable    stats.Counter
	undecodableLog *stats.LogGate

	stopped bool
	stopCh  chan struct{} // closed by Stop; wakes the window resize loop
	wg      sync.WaitGroup
}

// vcacheLimit bounds the validated-payload cache; eviction is FIFO,
// which matches the access pattern (a request is revalidated shortly
// after its first admission, never long after).
const vcacheLimit = 8192

// undecodableLogInterval rate-limits undecodable-payload log lines; the
// counter keeps exact totals in between.
const undecodableLogInterval = time.Minute

type recvKey struct {
	group  ids.GroupID
	client ids.ClientID
}

// NewAgreementReplica wires up an agreement replica with a PBFT
// instance as its consensus black box. Call Start to begin.
func NewAgreementReplica(cfg AgreementConfig) (*AgreementReplica, error) {
	cfg.Tunables.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &AgreementReplica{
		cfg:            cfg,
		me:             cfg.Suite.Node(),
		t:              make(map[ids.ClientID]uint64),
		tplus:          make(map[ids.ClientID]uint64),
		hist:           make(map[ids.Position]histEntry),
		groups:         make(map[ids.GroupID]*egroup),
		recvLoops:      make(map[recvKey]bool),
		vcache:         make(map[crypto.Digest]struct{}),
		undecodableLog: stats.NewLogGate(undecodableLogInterval),
		winLo:          1,
		winHi:          ids.SeqNr(cfg.Tunables.AgreementWindow),
		stopCh:         make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)

	// Load any durable image first: the persisted PBFT view seeds the
	// consensus instance, and checkpoint + suffix restore below.
	var img *storage.Image
	if cfg.Store != nil {
		if loaded, err := cfg.Store.Load(); err == nil {
			img = loaded
		}
	}

	batch := cfg.ConsensusBatch
	if batch <= 0 {
		batch = 16
	}
	if batch > cfg.Tunables.AgreementWindow {
		// Deliver paces on the batch's first sequence number, so a
		// batch larger than AG-WIN cannot deadlock — but it would make
		// the window meaningless; clamp to keep overshoot below one
		// window.
		batch = cfg.Tunables.AgreementWindow
	}
	pbftCfg := pbft.Config{
		Group:          cfg.Group,
		Suite:          cfg.Suite,
		Node:           cfg.Node,
		Stream:         pbftStream(cfg.Group.ID),
		Deliver:        a.deliver,
		Validate:       a.validatePayload,
		RequestTimeout: cfg.ConsensusTimeout,
		BatchSize:      batch,
		BatchOccupancy: cfg.BatchOccupancy,
		Pipeline:       cfg.Pipeline,
		NormalCaseAuth: cfg.ConsensusAuth,

		AdaptiveBatching: cfg.AdaptiveBatching,
		ArrivalRate:      cfg.ArrivalRate,

		SuspectSlowLeader: cfg.SuspectSlowLeader,
		MonitorInterval:   cfg.SlowLeaderInterval,
		RotationCooldown:  cfg.SlowLeaderCooldown,
	}
	if img != nil && len(img.Meta) == 8 {
		pbftCfg.StartView = binary.BigEndian.Uint64(img.Meta)
	}
	if st := cfg.Store; st != nil {
		pbftCfg.OnViewInstall = func(view uint64) {
			// Runs under the PBFT lock; SaveMeta is write-behind.
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], view)
			st.SaveMeta(buf[:])
		}
	}
	agreement, err := pbft.New(pbftCfg)
	if err != nil {
		return nil, err
	}
	a.ag = agreement

	a.cp, err = checkpoint.New(checkpoint.Config{
		Group:    cfg.Group,
		Suite:    cfg.Suite,
		Node:     cfg.Node,
		Stream:   checkpointStream(cfg.Shard),
		OnStable: a.onStableCheckpoint,
	})
	if err != nil {
		return nil, err
	}

	for _, entry := range cfg.ExecGroups {
		if err := a.attachGroupLocked(entry); err != nil {
			a.cp.Stop()
			return nil, err
		}
	}
	if img != nil {
		a.rehydrate(img)
	}
	return a, nil
}

// rehydrate restores the replica from its write-behind store: adopt
// the newest local agreement checkpoint, then replay the contiguous
// batch-history suffix (including any admin reconfigurations it
// carries). Damage degrades to a cold start; the checkpoint gossip
// repairs the remainder. Resumed batches are NOT resent through the
// commit channels — the surviving agreement replicas did that while
// this one was down, and a restart must not disturb their windows.
func (a *AgreementReplica) rehydrate(img *storage.Image) {
	a.mu.Lock()
	if img.Seq > 0 {
		var snap agreementSnapshot
		if wire.Decode(img.State, &snap) != nil || snap.Seq != ids.SeqNr(img.Seq) {
			a.mu.Unlock()
			return
		}
		a.reconcileGroupsLocked(snap.Groups)
		a.sn = snap.Seq
		a.lastPos = snap.NextPos - 1
		if snap.T != nil {
			a.t = snap.T
		}
		for c, v := range a.t {
			if v+1 > a.tplus[c] {
				a.tplus[c] = v + 1
			}
		}
		a.hist = make(map[ids.Position]histEntry, len(snap.Hist))
		for _, he := range snap.Hist {
			a.hist[he.Pos] = he
		}
		a.winLo = snap.Seq + 1
		a.winHi = snap.Seq + ids.SeqNr(a.cfg.Tunables.AgreementWindow)
	}
	for i := range img.Suffix {
		ent := &img.Suffix[i]
		pos := ids.Position(ent.Pos)
		if pos <= a.lastPos {
			continue // covered by the checkpoint
		}
		if pos != a.lastPos+1 {
			break // gap: write-behind dropped an append
		}
		var he histEntry
		if wire.Decode(ent.Payload, &he) != nil || he.Pos != pos {
			break
		}
		for j := range he.Reqs {
			req := &he.Reqs[j].Req
			if !req.Client.Valid() {
				continue
			}
			if req.Counter > a.t[req.Client] {
				a.t[req.Client] = req.Counter
			}
			if req.Counter+1 > a.tplus[req.Client] {
				a.tplus[req.Client] = req.Counter + 1
			}
			if req.Kind == KindAdmin {
				a.applyAdminLocked(pos, req.Op)
			}
		}
		a.hist[pos] = he
		a.lastPos = pos
		if end := he.end(); end > a.sn {
			a.sn = end
		}
	}
	a.pruneHistLocked()
	// Anchor every commit channel after the oldest remembered batch,
	// exactly as a stable-checkpoint install does: older positions were
	// garbage collected before the crash and can never be resent.
	moveTo := a.lastPos + 1
	for pos := range a.hist {
		if pos < moveTo {
			moveTo = pos
		}
	}
	if moveTo > 1 {
		for _, g := range a.groups {
			g.commitSend.MoveWindow(0, moveTo)
		}
	}
	a.mu.Unlock()
	// Prime the checkpoint component so gossiped announcements for the
	// restored checkpoint resolve locally instead of fetching.
	if img.Seq > 0 {
		a.cp.Generate(ids.SeqNr(img.Seq), img.State)
	}
}

// Start launches consensus and the registry handler.
func (a *AgreementReplica) Start() {
	a.cfg.Node.Handle(clientStream(a.cfg.Group.ID), a.onClientFrame)
	if a.cfg.AdaptiveWindows {
		a.wg.Add(1)
		go a.windowResizeLoop()
	}
	a.ag.Start()
}

// windowResizeLoop auto-sizes each execution group's commit-channel
// send window from its measured drain rate: once per progress tick it
// samples the sender's cumulative flow counters (positions acked by
// the receiver quorum, sends blocked on a full window) and lets an
// AIMD controller pick the effective capacity within
// [ExecutionCheckpointInterval+1, CommitChannelCapacity]. The floor
// keeps the window above the receivers' ack granularity — execution
// replicas only move the window at checkpoint positions — and a
// too-small window self-corrects anyway, because the sends it blocks
// are exactly the controller's grow signal. The flow counters and the
// resize live in the sender core both channel implementations share.
func (a *AgreementReplica) windowResizeLoop() {
	defer a.wg.Done()
	channel := irmc.Config{ProgressIntervalMS: a.cfg.Tunables.ChannelProgressMS}
	interval := channel.ProgressInterval()
	minCap := a.cfg.Tunables.ExecutionCheckpointInterval + 1
	type groupState struct {
		ctl         *tune.WindowController
		acked, blkd int64
	}
	states := make(map[ids.GroupID]*groupState)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-ticker.C:
		}
		type target struct {
			gid ids.GroupID
			fc  irmc.Sender
		}
		var targets []target
		a.mu.Lock()
		for gid, g := range a.groups {
			targets = append(targets, target{gid: gid, fc: g.commitSend})
		}
		a.mu.Unlock()
		now := time.Now()
		for _, t := range targets {
			st := states[t.gid]
			if st == nil {
				st = &groupState{ctl: tune.NewWindowController(tune.WindowConfig{
					Min:      minCap,
					Max:      a.cfg.Tunables.CommitChannelCapacity,
					Interval: interval,
				})}
				states[t.gid] = st
			}
			// All commit sends of a group travel subchannel 0.
			fs := t.fc.FlowStats(0)
			acked := int(fs.Acked - st.acked)
			blocked := int(fs.Blocked - st.blkd)
			st.acked, st.blkd = fs.Acked, fs.Blocked
			if c := st.ctl.Observe(now, acked, blocked, fs.Outstanding); c != fs.Capacity {
				t.fc.SetCapacity(0, c)
			}
		}
	}
}

// Stop shuts the replica down.
func (a *AgreementReplica) Stop() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	close(a.stopCh)
	a.cond.Broadcast()
	groups := make([]*egroup, 0, len(a.groups))
	for _, g := range a.groups {
		groups = append(groups, g)
	}
	a.mu.Unlock()

	// Close the channels before stopping consensus: a sender worker may
	// be blocked inside a commit-channel Send (stalling the delivery
	// goroutine in fanOut), and only Close unblocks it.
	for _, g := range groups {
		g.reqRecv.Close()
		g.commitSend.Close()
		g.sendQ.stop()
	}
	a.ag.Stop()
	a.cp.Stop()
	a.wg.Wait()
	if a.cfg.Store != nil {
		_ = a.cfg.Store.Close()
	}
}

// BatchTarget reports the batch size consensus currently aims for —
// the adaptive controller's moving target under AdaptiveBatching, the
// static configured size otherwise — when the consensus implementation
// exposes one (PBFT does). Tests and figure footnotes use it to watch
// per-shard controllers adapt independently.
func (a *AgreementReplica) BatchTarget() (int, bool) {
	if b, ok := a.ag.(interface{ BatchTarget() int }); ok {
		return b.BatchTarget(), true
	}
	return 0, false
}

// CommitWindowCapacities reports each execution group's current
// effective commit-channel send window capacity.
func (a *AgreementReplica) CommitWindowCapacities() map[ids.GroupID]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[ids.GroupID]int, len(a.groups))
	for gid, g := range a.groups {
		out[gid] = g.commitSend.FlowStats(0).Capacity
	}
	return out
}

// ConsensusLeader reports the current consensus view's leader, when
// the consensus implementation exposes one (PBFT does). Chaos
// harnesses use it to aim leader-kill events.
func (a *AgreementReplica) ConsensusLeader() (ids.NodeID, bool) {
	if l, ok := a.ag.(interface{ Leader() ids.NodeID }); ok {
		return l.Leader(), true
	}
	return 0, false
}

// ConsensusView reports the current consensus view number, when the
// consensus implementation exposes one.
func (a *AgreementReplica) ConsensusView() (uint64, bool) {
	if v, ok := a.ag.(interface{ View() uint64 }); ok {
		return v.View(), true
	}
	return 0, false
}

// ConsensusViewChanges reports how many view changes this replica has
// entered since it started (timeout-driven, proactive, and adopted
// alike), when the consensus implementation counts them.
func (a *AgreementReplica) ConsensusViewChanges() (uint64, bool) {
	if v, ok := a.ag.(interface{ ViewChanges() uint64 }); ok {
		return v.ViewChanges(), true
	}
	return 0, false
}

// ConsensusRotations reports how many proactive slow-leader rotations
// this replica's performance monitor has triggered, plus the recorded
// human-readable reasons (most recent last). Zero with no reasons when
// the monitor is disabled or the implementation lacks one.
func (a *AgreementReplica) ConsensusRotations() (uint64, []string, bool) {
	if r, ok := a.ag.(interface{ Rotations() (uint64, []string) }); ok {
		n, reasons := r.Rotations()
		return n, reasons, true
	}
	return 0, nil, false
}

// ConsensusViewRates reports per-view delivery throughput as recorded
// by the leader performance monitor — nil unless SuspectSlowLeader is
// enabled on a consensus implementation that tracks it.
func (a *AgreementReplica) ConsensusViewRates() []pbft.ViewRate {
	if r, ok := a.ag.(interface{ ViewThroughput() []pbft.ViewRate }); ok {
		return r.ViewThroughput()
	}
	return nil
}

// UndecodablePayloads reports how many ordered payloads failed to
// decode in deliver — zero in a healthy deployment; anything else
// indicates a wire regression (payloads are vetted by validatePayload
// before ordering).
func (a *AgreementReplica) UndecodablePayloads() int64 {
	return a.undecodable.Load()
}

// Seq returns the latest agreed sequence number.
func (a *AgreementReplica) Seq() ids.SeqNr {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sn
}

// Registry returns this replica's current registry view.
func (a *AgreementReplica) Registry() RegistryInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.registryLocked()
}

func (a *AgreementReplica) registryLocked() RegistryInfo {
	info := RegistryInfo{Seq: a.sn}
	for _, g := range a.groups {
		info.Entries = append(info.Entries, GroupEntry{Group: g.entry.Group.Clone(), Region: g.entry.Region})
	}
	sort.Slice(info.Entries, func(i, j int) bool {
		return info.Entries[i].Group.ID < info.Entries[j].Group.ID
	})
	return info
}

// attachGroupLocked establishes the IRMC pair for an execution group
// (also used at construction time, before any concurrency exists).
func (a *AgreementReplica) attachGroupLocked(entry GroupEntry) error {
	if _, dup := a.groups[entry.Group.ID]; dup {
		return fmt.Errorf("core: duplicate execution group %v", entry.Group.ID)
	}
	gid := entry.Group.ID
	reqRecv, err := newChannelReceiver(a.cfg.Tunables.Channel, irmc.Config{
		Senders:            entry.Group,
		Receivers:          a.cfg.Group,
		Capacity:           a.cfg.Tunables.RequestChannelCapacity,
		Suite:              a.cfg.Suite,
		Node:               a.cfg.Node,
		Stream:             requestStream(gid),
		Meter:              a.cfg.Meter,
		ProgressIntervalMS: a.cfg.Tunables.ChannelProgressMS,
		CollectorTimeoutMS: a.cfg.Tunables.ChannelCollectorMS,
		Pipeline:           a.cfg.Pipeline,
		OnNewSubchannel: func(sc ids.Subchannel) {
			a.ensureReceiveLoop(gid, ids.ClientID(sc))
		},
	})
	if err != nil {
		return err
	}
	var wireBytes *stats.Counter
	if a.cfg.CommitStats != nil {
		wireBytes = &a.cfg.CommitStats.WireBytes
	}
	commitSend, err := newChannelSender(a.cfg.Tunables.Channel, irmc.Config{
		Senders:            a.cfg.Group,
		Receivers:          entry.Group,
		Capacity:           a.cfg.Tunables.CommitChannelCapacity,
		Suite:              a.cfg.Suite,
		Node:               a.cfg.Node,
		Stream:             commitStream(gid),
		Meter:              a.cfg.Meter,
		SendBytes:          wireBytes,
		ProgressIntervalMS: a.cfg.Tunables.ChannelProgressMS,
		CollectorTimeoutMS: a.cfg.Tunables.ChannelCollectorMS,
		// Commit channels carry committed batches the execution side has
		// no other way to obtain; RC repairs window loss via resend.
		Resend:   true,
		Pipeline: a.cfg.Pipeline,
	})
	if err != nil {
		reqRecv.Close()
		return err
	}
	g := &egroup{
		entry:      GroupEntry{Group: entry.Group.Clone(), Region: entry.Region},
		reqRecv:    reqRecv,
		commitSend: commitSend,
		sendQ:      newGroupSender(),
	}
	a.groups[gid] = g
	a.wg.Add(1)
	go a.runGroupSender(g.sendQ, commitSend)
	return nil
}

// runGroupSender is one execution group's dedicated commit-channel
// sender worker.
func (a *AgreementReplica) runGroupSender(q *groupSender, sender irmc.Sender) {
	defer a.wg.Done()
	for {
		job, ok := q.take()
		if !ok {
			return
		}
		// Send blocks on flow control; after Close it returns ErrClosed
		// immediately, so a stopping replica drains without stalling.
		_ = sender.Send(0, job.pos, job.payload)
		job.done <- struct{}{}
	}
}

// ensureReceiveLoop spawns the per-(group, client) request receive
// loop of lines 13–22 in Figure 17.
func (a *AgreementReplica) ensureReceiveLoop(gid ids.GroupID, client ids.ClientID) {
	key := recvKey{group: gid, client: client}
	a.mu.Lock()
	if a.stopped || a.recvLoops[key] {
		a.mu.Unlock()
		return
	}
	g, ok := a.groups[gid]
	if !ok {
		a.mu.Unlock()
		return
	}
	a.recvLoops[key] = true
	recv := g.reqRecv
	a.wg.Add(1)
	a.mu.Unlock()

	go a.receiveLoop(recv, client)
}

func (a *AgreementReplica) receiveLoop(recv irmc.Receiver, client ids.ClientID) {
	defer a.wg.Done()
	sub := ids.Subchannel(client)
	for {
		a.mu.Lock()
		if a.stopped {
			a.mu.Unlock()
			return
		}
		pos := a.tplus[client]
		if pos == 0 {
			pos = 1
		}
		a.mu.Unlock()

		payload, err := recv.Receive(sub, ids.Position(pos))
		if err != nil {
			if tooOld, ok := irmc.AsTooOld(err); ok {
				// The client already sent a newer request; skip
				// forward (line 18).
				a.mu.Lock()
				if uint64(tooOld.NewStart) > a.tplus[client] {
					a.tplus[client] = uint64(tooOld.NewStart)
				}
				a.mu.Unlock()
				continue
			}
			return // channel closed (group removed or shutdown)
		}
		a.ag.Order(payload)
		a.mu.Lock()
		if pos+1 > a.tplus[client] {
			a.tplus[client] = pos + 1
		}
		a.mu.Unlock()
	}
}

// wasValidated reports whether a payload digest already passed
// validatePayload.
func (a *AgreementReplica) wasValidated(d crypto.Digest) bool {
	a.vmu.Lock()
	defer a.vmu.Unlock()
	_, ok := a.vcache[d]
	return ok
}

// markValidated records a payload digest as validated.
func (a *AgreementReplica) markValidated(d crypto.Digest) {
	a.vmu.Lock()
	defer a.vmu.Unlock()
	if _, dup := a.vcache[d]; dup {
		return
	}
	if len(a.vfifo) >= vcacheLimit {
		delete(a.vcache, a.vfifo[0])
		a.vfifo = a.vfifo[1:]
	}
	a.vcache[d] = struct{}{}
	a.vfifo = append(a.vfifo, d)
}

// validatePayload is PBFT's A-Validity hook: only correctly signed
// client requests from wrapped submissions may be ordered, and admin
// operations must come from authorized clients. It runs off the PBFT
// replica lock, on crypto-pipeline workers and receive-loop
// goroutines.
func (a *AgreementReplica) validatePayload(payload []byte) error {
	d := crypto.Hash(payload)
	if a.wasValidated(d) {
		return nil
	}
	var wrapped WrappedRequest
	if err := wire.Decode(payload, &wrapped); err != nil {
		return err
	}
	req := &wrapped.Req
	switch req.Kind {
	case KindWrite, KindStrongRead:
	case KindAdmin:
		allowed := false
		for _, c := range a.cfg.AdminClients {
			if c == req.Client {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("core: client %v not authorized for admin ops", req.Client)
		}
		if _, err := DecodeAdminOp(req.Op); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: kind %v cannot be ordered", req.Kind)
	}
	if err := a.cfg.Suite.Verify(req.Client.Node(), crypto.DomainClientRequest, req.SigPayload(), req.Sig); err != nil {
		return err
	}
	a.markValidated(d)
	return nil
}

// deliver is the consensus black box callback (lines 25–40 of
// Figure 17), lifted to whole batches: one consensus decision becomes
// one commit-channel position. It runs on PBFT's delivery goroutine;
// blocking here paces the whole agreement pipeline, which is exactly
// the AG-WIN semantics of the paper. The commit-channel position is
// the consensus batch sequence number, which every correct replica
// assigns identically (A-Safety lifted to batches), so fs+1 senders
// submit matching content per position without coordination.
func (a *AgreementReplica) deliver(b consensus.Batch) {
	pos := ids.Position(b.Seq)
	end := b.End()

	reqs := make([]WrappedRequest, len(b.Payloads))
	digests := make([]crypto.Digest, len(b.Payloads))
	undecodable := 0
	for i, payload := range b.Payloads {
		if err := wire.Decode(payload, &reqs[i]); err != nil {
			// Must not happen: every ordered payload passed
			// validatePayload, which decodes it. If a wire regression
			// breaks that invariant anyway, keep the slot as a no-op
			// (sequence numbering must stay dense) and make the event
			// visible instead of silently swallowing it.
			reqs[i] = WrappedRequest{}
			undecodable++
			continue
		}
		// The content digest of the ordered bytes — the exact bytes the
		// forwarding group's replicas encoded and cached — keys the
		// commit-channel dedup references. Consensus already hashed
		// every payload (PBFT caches the digests on its log entry), so
		// reuse its values and hash only when the protocol did not
		// provide them.
		if i < len(b.Digests) && b.Digests[i] != (crypto.Digest{}) {
			digests[i] = b.Digests[i]
		} else {
			digests[i] = crypto.Hash(payload)
		}
	}
	if undecodable > 0 {
		a.undecodable.Add(int64(undecodable))
		if a.undecodableLog.Allow() {
			log.Printf("core: agreement replica %v: %d ordered payload(s) failed to decode (seqs %d..%d); %d total, next report in %s at the earliest",
				a.me, undecodable, b.Start, end, a.undecodable.Load(), undecodableLogInterval)
		}
	}

	a.mu.Lock()
	// Line 27: sleep until the batch's first sequence number is inside
	// AG-WIN. Gating on Start (not end) keeps the old per-request
	// liveness argument intact — everything below Start was delivered,
	// so a checkpoint inside the window was already generated and will
	// eventually stabilize and advance winHi. A batch may overshoot
	// winHi by at most ConsensusBatch-1 sequence numbers, which is
	// pacing slack, not a safety issue (the commit channel's capacity
	// is the hard flow-control bound). Gating on end instead can
	// deadlock: the batch that first crosses a ka boundary would block
	// here before ever generating the checkpoint that moves the window.
	for !a.stopped && b.Start > a.winHi {
		a.cond.Wait()
	}
	if a.stopped {
		a.mu.Unlock()
		return
	}
	if pos <= a.lastPos {
		a.mu.Unlock()
		return // duplicate delivery after a checkpoint install
	}
	for i := range reqs {
		req := &reqs[i].Req
		if !req.Client.Valid() {
			continue // no-op slot
		}
		if req.Counter > a.t[req.Client] {
			a.t[req.Client] = req.Counter
		}
		if req.Counter+1 > a.tplus[req.Client] {
			a.tplus[req.Client] = req.Counter + 1
		}
		if req.Kind == KindAdmin {
			a.applyAdminLocked(pos, req.Op)
		}
	}
	he := histEntry{Pos: pos, Start: b.Start, Reqs: reqs, Digests: digests}
	a.hist[pos] = he
	a.lastPos = pos
	if a.cfg.Store != nil {
		// Write-behind: the history entry is the replay unit. Calls
		// under the lock keep the append/checkpoint queue order
		// consistent with state mutation order.
		a.cfg.Store.Append(uint64(pos), wire.Encode(&he))
	}
	prev := a.sn
	if end > a.sn {
		a.sn = end
	}
	a.pruneHistLocked()

	targets := make([]*egroup, 0, len(a.groups))
	for _, g := range a.groups {
		targets = append(targets, g)
	}
	// Checkpoints fire when a batch crosses a ka boundary (batches no
	// longer land exactly on multiples); every replica sees the same
	// batch ends, so all of them snapshot at the same sequence numbers.
	ka := uint64(a.cfg.Tunables.AgreementCheckpointInterval)
	ckptDue := len(reqs) > 0 && uint64(end)/ka > uint64(prev)/ka
	var snap []byte
	if ckptDue {
		snap = a.snapshotLocked()
		if a.cfg.Store != nil {
			a.cfg.Store.SaveCheckpoint(uint64(end), snap)
		}
	}
	a.mu.Unlock()

	a.fanOut(&he, targets)

	if ckptDue {
		a.cp.Generate(end, snap)
	}
}

// encodedBatch is one encoding variant of a batch's commit payload,
// with the dedup accounting of its request slots.
type encodedBatch struct {
	payload []byte
	refs    int // slots sent by digest reference
	full    int // slots sent with full content
}

// executeBatchFor builds one group's commit payload for a batch: full
// requests for writes and admin ops, full for the designated group of
// a strong read, placeholders elsewhere (Section 3.3); request slots
// without a valid client stay no-ops. With dedup enabled, content the
// destination group forwarded itself travels as a by-digest reference
// instead of in full — the group's replicas encoded exactly these
// bytes when they submitted the request, so the reference resolves
// from their payload cache (admin ops always go in full: they also
// execute at the agreement group and must survive any cache state).
func executeBatchFor(he *histEntry, gid ids.GroupID, dedup bool) encodedBatch {
	em := ExecuteBatchMsg{Start: he.Start, Items: make([]ExecuteItem, len(he.Reqs))}
	var eb encodedBatch
	for i := range he.Reqs {
		wrapped := &he.Reqs[i]
		switch {
		case !wrapped.Req.Client.Valid():
			// no-op slot: zero item
		case wrapped.Req.Kind == KindStrongRead && wrapped.Group != gid:
			em.Items[i] = ExecuteItem{Client: wrapped.Req.Client, Counter: wrapped.Req.Counter}
		case dedup && wrapped.Group == gid && wrapped.Req.Kind != KindAdmin && he.digest(i) != (crypto.Digest{}):
			em.Items[i] = ExecuteItem{Ref: true, Digest: he.digest(i)}
			eb.refs++
		default:
			em.Items[i] = ExecuteItem{Full: true, Req: *wrapped}
			eb.full++
		}
	}
	eb.payload = wire.Encode(&em)
	return eb
}

// divergentGroups returns the set of group ids whose commit payload
// for this batch differs from the shared "outsider" encoding: the
// designated group of every strong read, and — with dedup on — the
// forwarding group of every request (its copy carries references).
// Groups outside the set all receive identical bytes.
func divergentGroups(he *histEntry, dedup bool) map[ids.GroupID]bool {
	var out map[ids.GroupID]bool
	for i := range he.Reqs {
		w := &he.Reqs[i]
		if !w.Req.Client.Valid() {
			continue
		}
		if w.Req.Kind == KindStrongRead || (dedup && w.Req.Kind != KindAdmin) {
			if out == nil {
				out = make(map[ids.GroupID]bool, 4)
			}
			out[w.Group] = true
		}
	}
	return out
}

// fanOut hands one batch to every group's sender worker — one Send,
// one signature and one wide-area frame per group per batch — and
// returns once ne−z sends completed; stragglers finish in the
// background (global flow control, Section 3.5).
func (a *AgreementReplica) fanOut(he *histEntry, targets []*egroup) {
	if len(targets) == 0 {
		return
	}
	need := len(targets) - a.cfg.Tunables.SlackGroups
	if need < 1 {
		need = 1
	}
	dedup := a.cfg.CommitDedup == DedupOn
	// Variant-memoized encoding: a group's payload depends only on
	// which of the batch's items name it as their forwarding group, so
	// at most one encoding per forwarding group present in the batch is
	// needed, plus one shared "outsider" encoding for everyone else
	// (the channel senders treat submitted payloads as read-only; each
	// still signs its own wide-area frame). A uniform batch — no strong
	// reads, no dedup-able requests for any target — still encodes
	// exactly once.
	divergent := divergentGroups(he, dedup)
	var outsider *encodedBatch
	var perGroup map[ids.GroupID]*encodedBatch
	payloadFor := func(gid ids.GroupID) *encodedBatch {
		if divergent[gid] {
			if eb, ok := perGroup[gid]; ok {
				return eb
			}
			eb := executeBatchFor(he, gid, dedup)
			if perGroup == nil {
				perGroup = make(map[ids.GroupID]*encodedBatch, len(divergent))
			}
			perGroup[gid] = &eb
			return &eb
		}
		if outsider == nil {
			// ids.NoGroup matches no forwarding group: every slot
			// encodes as it would for an uninvolved destination.
			eb := executeBatchFor(he, ids.NoGroup, dedup)
			outsider = &eb
		}
		return outsider
	}
	done := make(chan struct{}, len(targets))
	for _, g := range targets {
		if a.cfg.SendOccupancy != nil {
			a.cfg.SendOccupancy.Record(len(he.Reqs))
		}
		eb := payloadFor(g.entry.Group.ID)
		if cs := a.cfg.CommitStats; cs != nil {
			cs.PayloadBytes.Add(int64(len(eb.payload)))
			cs.RefsSent.Add(int64(eb.refs))
			cs.FullSent.Add(int64(eb.full))
		}
		g.sendQ.offer(sendJob{pos: he.Pos, payload: eb.payload, done: done})
	}
	for i := 0; i < need; i++ {
		<-done
	}
}

// pruneHistLocked keeps hist at the commit-channel capacity (counted
// in batch positions, matching the channel's window unit).
func (a *AgreementReplica) pruneHistLocked() {
	capacity := ids.Position(a.cfg.Tunables.CommitChannelCapacity)
	for pos := range a.hist {
		if pos+capacity <= a.lastPos+1 {
			delete(a.hist, pos)
		}
	}
}

// applyAdminLocked executes a reconfiguration command (Section 3.6).
// pos is the commit-channel position of the batch the command was
// ordered in.
func (a *AgreementReplica) applyAdminLocked(pos ids.Position, op []byte) {
	admin, err := DecodeAdminOp(op)
	if err != nil {
		return
	}
	switch admin.Kind {
	case AdminAddGroup:
		if err := a.attachGroupLocked(GroupEntry{Group: admin.Group, Region: admin.Region}); err != nil {
			return
		}
		// Anchor the fresh commit channel at the current position: the
		// new group's replicas, asking for position 1, get TooOld and
		// fetch an execution checkpoint from another group — the
		// paper's join procedure. Without this the fan-out would block
		// on a channel whose window never moves. The anchoring batch
		// itself (it contains this admin op) is still sent: the window
		// starts at pos, here at once, so the send does not wait for
		// the new group's replicas to be up and answer.
		if pos > 1 {
			a.groups[admin.Group.ID].commitSend.MoveWindow(0, pos)
		}
	case AdminRemoveGroup:
		g, ok := a.groups[admin.Group.ID]
		if !ok {
			return
		}
		delete(a.groups, admin.Group.ID)
		for key := range a.recvLoops {
			if key.group == admin.Group.ID {
				delete(a.recvLoops, key)
			}
		}
		// Closing the channels unblocks the receive loops, which then
		// terminate; stopping the sender worker lets it drain.
		g.reqRecv.Close()
		g.commitSend.Close()
		g.sendQ.stop()
	}
}

// snapshotLocked builds the agreement checkpoint content (line 40).
func (a *AgreementReplica) snapshotLocked() []byte {
	snap := agreementSnapshot{
		Seq:     a.sn,
		NextPos: a.lastPos + 1,
		T:       make(map[ids.ClientID]uint64, len(a.t)),
		Hist:    make([]histEntry, 0, len(a.hist)),
	}
	for c, v := range a.t {
		snap.T[c] = v
	}
	positions := make([]ids.Position, 0, len(a.hist))
	for pos := range a.hist {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		snap.Hist = append(snap.Hist, a.hist[pos])
	}
	snap.Groups = a.registryLocked().Entries
	return wire.Encode(&snap)
}

// onStableCheckpoint implements lines 42–57 of Figure 17.
func (a *AgreementReplica) onStableCheckpoint(seq ids.SeqNr, state []byte) {
	var snap agreementSnapshot
	if err := wire.Decode(state, &snap); err != nil || snap.Seq != seq {
		return
	}

	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	if a.cfg.Store != nil && seq >= a.sn {
		// Persist adopted checkpoints too: a replica repaired via
		// Fetch must restart warm from the fetched state.
		a.cfg.Store.SaveCheckpoint(uint64(seq), state)
	}
	// Move every commit channel's window (line 45): positions below the
	// oldest batch in the checkpoint's history can no longer be resent.
	moveTo := snap.NextPos
	for i := range snap.Hist {
		if snap.Hist[i].Pos < moveTo {
			moveTo = snap.Hist[i].Pos
		}
	}
	for _, g := range a.groups {
		g.commitSend.MoveWindow(0, moveTo)
	}

	var missing []histEntry
	if seq > a.sn {
		// We fell behind: adopt the checkpoint (lines 47–56).
		// Reconcile the registry first so commit channels exist for
		// every group in the snapshot.
		a.reconcileGroupsLocked(snap.Groups)
		for _, he := range snap.Hist {
			if he.Pos > a.lastPos {
				missing = append(missing, he)
			}
		}
		a.sn = seq
		a.lastPos = snap.NextPos - 1
		a.t = snap.T
		a.hist = make(map[ids.Position]histEntry, len(snap.Hist))
		for _, he := range snap.Hist {
			a.hist[he.Pos] = he
		}
		for c, v := range a.t {
			if v+1 > a.tplus[c] {
				a.tplus[c] = v + 1
			}
		}
	}
	// Line 57: the window always anchors after the stable checkpoint.
	a.winLo = seq + 1
	a.winHi = seq + ids.SeqNr(a.cfg.Tunables.AgreementWindow)
	targets := make([]*egroup, 0, len(a.groups))
	for _, g := range a.groups {
		targets = append(targets, g)
	}
	a.cond.Broadcast()
	a.mu.Unlock()

	// Let consensus forget everything the checkpoint covers (line 46).
	a.ag.GC(seq + 1)

	// Resend the skipped batches through the commit channels
	// (lines 52–56); ne−z semantics as in normal fan-out.
	for i := range missing {
		a.fanOut(&missing[i], targets)
	}
}

// reconcileGroupsLocked aligns the group set with a checkpoint's
// registry.
func (a *AgreementReplica) reconcileGroupsLocked(entries []GroupEntry) {
	want := make(map[ids.GroupID]GroupEntry, len(entries))
	for _, e := range entries {
		want[e.Group.ID] = e
	}
	for gid, g := range a.groups {
		if _, ok := want[gid]; !ok {
			delete(a.groups, gid)
			g.reqRecv.Close()
			g.commitSend.Close()
			g.sendQ.stop()
		}
	}
	for gid, e := range want {
		if _, ok := a.groups[gid]; !ok {
			_ = a.attachGroupLocked(e)
		}
	}
}

// onClientFrame serves registry queries (the execution-replica
// registry is a BFT service hosted by the agreement group).
func (a *AgreementReplica) onClientFrame(from ids.NodeID, payload []byte) {
	tag, msg, err := openClientFrame(a.cfg.Suite, crypto.DomainClientRequest, from, payload)
	if err != nil || tag != tagRegistryQuery {
		return
	}
	query := msg.(*RegistryQuery)
	if query.Client.Node() != from {
		return
	}
	info := a.Registry()
	frame := clientRegistry.EncodeFrame(tagRegistryInfo, &info)
	env := sealClientFrame(a.cfg.Suite, crypto.DomainReply, frame, from)
	a.cfg.Node.Send(from, replyStream(), env)
}
