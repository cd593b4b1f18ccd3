// Package memnet is an in-process transport with emulated wide-area
// latency. Every directed node pair is a FIFO link whose
// delivery delay comes from a topo.Placement (half the RTT between the
// nodes' sites, plus optional jitter), so an entire geo-distributed
// deployment runs inside one test or benchmark while observing the
// same message interleavings a real WAN imposes.
//
// Delivery times come from one clock per Network (clock.go). A frame is
// never handed over before its scheduled time, and on Linux it is
// handed over within about 0.1 ms of it even when the process is
// otherwise idle — which a deployment with a few clients is, between
// hops. That takes a timerfd: an idle Go runtime sleeps in epoll_wait,
// whose timeout is whole milliseconds rounded up, so runtime timers
// fire on a 1 ms grid and a 0.6 ms zone link would cost 1.1 ms; a
// descriptor becoming readable ends that sleep at once. The two ways
// to be precise without the kernel's help both cost more than they
// save on a small machine: a goroutine that spins on Gosched takes a
// core from the signature work (20–30 % slower with Ed25519 on two
// vCPUs), and a nanosleep on every link goroutine ties up a thread per
// sleeping link and loses the gain to thread hand-offs. Other
// platforms fall back to one runtime timer behind the same seam
// (timer_other.go) and keep the runtime's granularity. Frames without
// delay (no Placement) never touch the clock.
//
// The emulator also provides the measurement and fault-injection hooks
// the evaluation needs: per-class byte accounting (local/LAN/WAN, used
// for Figure 9d), link cuts, node isolation, and probabilistic drops.
package memnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport"
)

// LinkClass classifies a directed link for traffic accounting.
type LinkClass int

// Link classes, from cheapest to most expensive.
const (
	ClassLocal LinkClass = iota // same node (self-delivery)
	ClassLAN                    // same region
	ClassWAN                    // cross region
	numClasses
)

// String returns the class name.
func (c LinkClass) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassLAN:
		return "lan"
	case ClassWAN:
		return "wan"
	default:
		return "unknown"
	}
}

// Stats reports accumulated traffic per link class.
type Stats struct {
	Bytes   [numClasses]int64
	Frames  [numClasses]int64
	Dropped int64
}

// BytesWAN returns the wide-area byte count, the quantity public clouds
// bill for and Figure 9d reports.
func (s Stats) BytesWAN() int64 { return s.Bytes[ClassWAN] }

// BytesLAN returns the intra-region byte count.
func (s Stats) BytesLAN() int64 { return s.Bytes[ClassLAN] }

// Options configures a Network.
type Options struct {
	// Placement supplies per-link latency; nil means negligible
	// latency everywhere (useful for pure logic tests).
	Placement *topo.Placement
	// JitterFrac adds uniform random extra latency in
	// [0, JitterFrac*base] per frame. Zero disables jitter.
	JitterFrac float64
	// Seed makes jitter and drop decisions reproducible.
	Seed int64
}

// Network is an in-process transport with emulated latency.
type Network struct {
	opts Options

	mu        sync.Mutex
	nodes     map[ids.NodeID]*memNode
	links     map[linkKey]*link
	cut       map[linkKey]bool
	isolated  map[ids.NodeID]bool
	dropRate  map[linkKey]float64
	degraded  map[ids.NodeID]degradeSpec
	partition map[topo.Region]bool // non-nil while a partition is active
	closed    bool

	done  chan struct{}
	wg    sync.WaitGroup
	clock *clock

	bytes   [numClasses]atomic.Int64
	frames  [numClasses]atomic.Int64
	dropped atomic.Int64
}

type linkKey struct{ from, to ids.NodeID }

// New creates an emulated network.
func New(opts Options) *Network { return newNetwork(opts, newSysTimer()) }

// newNetwork is New with the delivery clock's timer chosen by the caller.
func newNetwork(opts Options, timer sysTimer) *Network {
	n := &Network{
		opts:     opts,
		nodes:    make(map[ids.NodeID]*memNode),
		links:    make(map[linkKey]*link),
		cut:      make(map[linkKey]bool),
		isolated: make(map[ids.NodeID]bool),
		dropRate: make(map[linkKey]float64),
		degraded: make(map[ids.NodeID]degradeSpec),
		done:     make(chan struct{}),
		clock:    &clock{timer: timer},
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.clock.run()
	}()
	return n
}

// Node returns (creating if needed) the handle for id.
func (n *Network) Node(id ids.NodeID) transport.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node, ok := n.nodes[id]; ok {
		return node
	}
	node := &memNode{net: n, id: id}
	n.nodes[id] = node
	return node
}

// Close stops all delivery goroutines and the clock, waits for them to
// exit, and releases the clock's timer. Frames still in flight are
// discarded.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	for _, l := range n.links {
		l.close()
	}
	n.mu.Unlock()
	n.clock.close()
	n.wg.Wait()
}

// Isolate drops all traffic to and from id while isolated is true,
// emulating a crashed or unreachable node.
func (n *Network) Isolate(id ids.NodeID, isolated bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if isolated {
		n.isolated[id] = true
	} else {
		delete(n.isolated, id)
	}
}

// Cut severs (or restores) the bidirectional link between a and b.
func (n *Network) Cut(a, b ids.NodeID, severed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if severed {
		n.cut[linkKey{a, b}] = true
		n.cut[linkKey{b, a}] = true
	} else {
		delete(n.cut, linkKey{a, b})
		delete(n.cut, linkKey{b, a})
	}
}

// SetDropRate makes the directed link a->b drop frames with the given
// probability in [0,1].
func (n *Network) SetDropRate(a, b ids.NodeID, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate <= 0 {
		delete(n.dropRate, linkKey{a, b})
		return
	}
	n.dropRate[linkKey{a, b}] = rate
}

// degradeSpec shapes one gray-failed node's outbound traffic.
type degradeSpec struct {
	delay  time.Duration
	jitter float64
}

// Degrade gray-fails a node: every outbound frame (self-delivery
// excluded) is delayed by an extra delay, plus uniform jitter in
// [0, jitter × total one-way delay] drawn from the per-link seeded
// generators so runs replay deterministically from the network seed. Frames are delayed,
// never dropped — the node is slow, not dead — and the extra delay
// composes with drop rates and Partition (a degraded node inside a
// partitioned region is still partitioned). A second call replaces the
// first.
func (n *Network) Degrade(id ids.NodeID, delay time.Duration, jitter float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.degraded[id] = degradeSpec{delay: delay, jitter: jitter}
}

// Restore removes a node's gray failure. Frames already in flight keep
// their degraded delivery times (FIFO links never reorder).
func (n *Network) Restore(id ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.degraded, id)
}

// Partition drops every frame crossing between the given region set
// and its complement until Heal, emulating a clean network split.
// Traffic within either side still flows. Nodes without a placement
// site count as the complement. A second call replaces the first.
func (n *Network) Partition(regions ...topo.Region) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[topo.Region]bool, len(regions))
	for _, r := range regions {
		n.partition[r] = true
	}
}

// Heal removes the active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = nil
}

// Partitioned reports whether a partition is active.
func (n *Network) Partitioned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partition != nil
}

// regionOf returns a node's region ("" when unplaced). Callers hold no
// locks ordering issue: Placement has its own lock.
func (n *Network) regionOf(id ids.NodeID) topo.Region {
	if n.opts.Placement == nil {
		return ""
	}
	site, ok := n.opts.Placement.Site(id)
	if !ok {
		return ""
	}
	return site.Region
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	var s Stats
	for c := 0; c < int(numClasses); c++ {
		s.Bytes[c] = n.bytes[c].Load()
		s.Frames[c] = n.frames[c].Load()
	}
	s.Dropped = n.dropped.Load()
	return s
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	for c := 0; c < int(numClasses); c++ {
		n.bytes[c].Store(0)
		n.frames[c].Store(0)
	}
	n.dropped.Store(0)
}

// classify determines the link class of a directed pair.
func (n *Network) classify(from, to ids.NodeID) LinkClass {
	if from == to {
		return ClassLocal
	}
	if n.opts.Placement == nil || n.opts.Placement.SameRegion(from, to) {
		return ClassLAN
	}
	return ClassWAN
}

// send enqueues one frame onto the from->to link.
func (n *Network) send(from, to ids.NodeID, stream transport.Stream, payload []byte) {
	rFrom, rTo := n.regionOf(from), n.regionOf(to)
	n.mu.Lock()
	if n.closed || n.isolated[from] || n.isolated[to] || n.cut[linkKey{from, to}] ||
		(n.partition != nil && from != to && n.partition[rFrom] != n.partition[rTo]) {
		n.mu.Unlock()
		n.dropped.Add(1)
		return
	}
	key := linkKey{from, to}
	rate := n.dropRate[key]
	var deg degradeSpec
	if from != to {
		deg = n.degraded[from]
	}
	l, ok := n.links[key]
	if !ok {
		l = newLink(n.opts.Seed, from, to)
		n.links[key] = l
		dst := n.nodes[to]
		if dst == nil {
			// Create the destination handle implicitly so frames sent
			// to a node before anyone called Node(id) are buffered
			// rather than lost.
			n.mu.Unlock()
			dst = n.Node(to).(*memNode)
			n.mu.Lock()
		}
		n.wg.Add(1)
		go n.runLink(l, dst)
	}
	n.mu.Unlock()

	if rate > 0 && l.rand(rate) {
		n.dropped.Add(1)
		return
	}

	class := n.classify(from, to)
	n.bytes[class].Add(int64(len(payload)) + frameOverhead)
	n.frames[class].Add(1)

	var base time.Duration
	if n.opts.Placement != nil {
		base = n.opts.Placement.OneWay(from, to)
	}
	base += deg.delay
	l.enqueue(frame{from: from, stream: stream, payload: payload}, base, n.opts.JitterFrac+deg.jitter)
}

// frameOverhead approximates per-frame header cost (IP+TCP headers) so
// byte accounting is comparable to what a cloud provider bills.
const frameOverhead = 40

// maxDrainRun bounds how many queued frames one delivery drains; it
// keeps a single handler call from monopolizing the link goroutine.
const maxDrainRun = 128

// runLink delivers frames of one directed link in FIFO order after
// their scheduled delay, sleeping on the network's clock until the head
// frame is due. When the head frame's delay has elapsed, any
// immediately deliverable frames for the same stream queued behind it
// are drained into one run, so the receiver admits the whole run in one
// handler call.
func (n *Network) runLink(l *link, dst *memNode) {
	defer n.wg.Done()
	for {
		f, at, ok := l.next()
		if !ok {
			return
		}
		for time.Until(at) > 0 {
			n.clock.sleepUntil(l, at)
			select {
			case <-l.wake:
			case <-n.done:
				return
			}
		}
		run := l.drainReady(f.stream, time.Now(), [][]byte{f.payload})
		if d := dst.Deliver(f.from, f.stream, run); d > 0 {
			n.dropped.Add(int64(d))
		}
	}
}

type frame struct {
	from    ids.NodeID
	stream  transport.Stream
	payload []byte
}

type timedFrame struct {
	frame
	at time.Time
}

// link is an unbounded FIFO queue with monotone delivery times.
type link struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []timedFrame
	lastAt time.Time
	closed bool
	rng    *rand.Rand

	// Owned by the network's clock while the link goroutine sleeps: the
	// time it asked to be woken at (guarded by clock.mu) and the channel
	// the clock wakes it through, one token per sleepUntil.
	wakeAt time.Time
	wake   chan struct{}
}

func newLink(seed int64, from, to ids.NodeID) *link {
	l := &link{
		rng:  rand.New(rand.NewSource(seed ^ int64(from)<<20 ^ int64(to))),
		wake: make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// rand draws a drop decision; guarded because Send may be called from
// many goroutines.
func (l *link) rand(rate float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64() < rate
}

func (l *link) enqueue(f frame, base time.Duration, jitterFrac float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	delay := base
	if jitterFrac > 0 && base > 0 {
		delay += time.Duration(l.rng.Float64() * jitterFrac * float64(base))
	}
	at := time.Now().Add(delay)
	// FIFO: a later frame never overtakes an earlier one even if
	// jitter would schedule it sooner.
	if at.Before(l.lastAt) {
		at = l.lastAt
	}
	l.lastAt = at
	l.q = append(l.q, timedFrame{frame: f, at: at})
	l.cond.Signal()
}

func (l *link) next() (frame, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.q) == 0 {
		return frame{}, time.Time{}, false
	}
	tf := l.q[0]
	l.q = l.q[1:]
	return tf.frame, tf.at, true
}

// drainReady appends to run the queued frames whose delivery time has
// arrived and whose stream matches, in FIFO order, until run holds
// maxDrainRun frames. It never blocks.
func (l *link) drainReady(stream transport.Stream, now time.Time, run [][]byte) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) > 0 && len(run) < maxDrainRun {
		head := l.q[0]
		if head.stream != stream || head.at.After(now) {
			break
		}
		run = append(run, head.payload)
		l.q = l.q[1:]
	}
	return run
}

func (l *link) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// memNode implements transport.Node; its inbound half is the embedded
// Mux, fed by the goroutines of the links into the node.
type memNode struct {
	transport.Mux
	net *Network
	id  ids.NodeID
}

var _ transport.Node = (*memNode)(nil)

func (m *memNode) ID() ids.NodeID { return m.id }

func (m *memNode) Send(to ids.NodeID, stream transport.Stream, payload []byte) {
	m.net.send(m.id, to, stream, payload)
}
