// Package tcpnet implements transport.Node over TCP for multi-process
// deployments (cmd/spider-node). Frames are length-prefixed; outbound
// connections are established lazily per peer and re-dialed with
// backoff after failures; inbound connections identify their sender
// with a handshake.
//
// The transport offers the same best-effort contract as memnet: frames
// to unreachable peers are dropped (bounded queues bridge short
// outages), and the claimed sender identity is only trusted as far as
// the protocol layers' MACs and signatures verify it — exactly the
// paper's threat model, where the network is untrusted.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"spider/internal/ids"
	"spider/internal/transport"
)

// Options configures a TCP node.
type Options struct {
	// Self is this node's identity.
	Self ids.NodeID
	// ListenAddr is the local listen address (e.g. ":7001"); empty
	// means client-only (no inbound connections).
	ListenAddr string
	// Peers maps node ids to dial addresses.
	Peers map[ids.NodeID]string
}

const (
	// queueLen bounds the per-peer outbound queue.
	queueLen = 4096
	// dialTimeout bounds connection attempts.
	dialTimeout = 3 * time.Second
	// redialBackoff is the pause after a failed dial.
	redialBackoff = 500 * time.Millisecond
)

// maxFrameSize bounds inbound frames (protects against corrupt length
// prefixes).
const maxFrameSize = 1 << 26 // 64 MiB

// maxInboundBatch bounds how many already-buffered frames one receive
// drains into a single run.
const maxInboundBatch = 128

// maxFlushBytes bounds how much queued outbound data one connection
// write coalesces.
const maxFlushBytes = 256 << 10

// Node is a TCP-backed transport.Node. Its inbound half is the embedded
// Mux, fed by one reader goroutine per connection and the loopback
// goroutine.
type Node struct {
	transport.Mux
	opts     Options
	listener net.Listener

	mu       sync.Mutex
	outbound map[ids.NodeID]*peerQueue
	inbound  map[net.Conn]struct{}
	loop     *selfQueue // asynchronous FIFO self-delivery
	closed   bool
	wg       sync.WaitGroup
}

// selfQueue delivers frames a node sends to itself asynchronously and
// in order, matching memnet's semantics: handlers never run on the
// sender's goroutine (protocol code may hold locks while sending).
type selfQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	closed bool
}

func newSelfQueue() *selfQueue {
	q := &selfQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *selfQueue) push(f frame) {
	q.mu.Lock()
	if !q.closed {
		q.queue = append(q.queue, f)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pop drains a run of queued frames sharing the head frame's stream,
// preserving FIFO order, so loopback traffic reaches batch handlers in
// runs just like remote traffic.
func (q *selfQueue) pop() (transport.Stream, [][]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return 0, nil, false
	}
	stream := q.queue[0].stream
	var payloads [][]byte
	for len(q.queue) > 0 && q.queue[0].stream == stream && len(payloads) < maxInboundBatch {
		payloads = append(payloads, q.queue[0].payload)
		q.queue = q.queue[1:]
	}
	return stream, payloads, true
}

func (q *selfQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

var _ transport.Node = (*Node)(nil)

// Listen starts a TCP node.
func Listen(opts Options) (*Node, error) {
	if !opts.Self.Valid() {
		return nil, errors.New("tcpnet: self id required")
	}
	n := &Node{
		opts:     opts,
		outbound: make(map[ids.NodeID]*peerQueue),
		inbound:  make(map[net.Conn]struct{}),
		loop:     newSelfQueue(),
	}
	if opts.ListenAddr != "" {
		l, err := net.Listen("tcp", opts.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", opts.ListenAddr, err)
		}
		n.listener = l
		n.wg.Add(1)
		go n.acceptLoop()
	}
	n.wg.Add(1)
	go n.loopbackLoop()
	return n, nil
}

// Addr returns the actual listen address (useful with ":0").
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// ID implements transport.Node.
func (n *Node) ID() ids.NodeID { return n.opts.Self }

// Close shuts the node down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	queues := make([]*peerQueue, 0, len(n.outbound))
	for _, q := range n.outbound {
		queues = append(queues, q)
	}
	conns := make([]net.Conn, 0, len(n.inbound))
	for conn := range n.inbound {
		conns = append(conns, conn)
	}
	n.mu.Unlock()

	if n.listener != nil {
		_ = n.listener.Close()
	}
	// Close inbound connections so their reader goroutines unblock.
	for _, conn := range conns {
		_ = conn.Close()
	}
	for _, q := range queues {
		q.close()
	}
	n.loop.close()
	n.wg.Wait()
}

// Send implements transport.Node.
func (n *Node) Send(to ids.NodeID, stream transport.Stream, payload []byte) {
	if to == n.opts.Self {
		n.loop.push(frame{stream: stream, payload: payload})
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	q, ok := n.outbound[to]
	if !ok {
		addr, known := n.opts.Peers[to]
		if !known {
			n.mu.Unlock()
			return // unknown peer: drop
		}
		q = newPeerQueue(n, to, addr)
		n.outbound[to] = q
		n.wg.Add(1)
		go q.run()
	}
	n.mu.Unlock()
	q.enqueue(stream, payload)
}

// loopbackLoop drains asynchronous self-deliveries.
func (n *Node) loopbackLoop() {
	defer n.wg.Done()
	for {
		stream, payloads, ok := n.loop.pop()
		if !ok {
			return
		}
		n.Deliver(n.opts.Self, stream, payloads)
	}
}

// --- inbound ---------------------------------------------------------------

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.inbound[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()

	// Handshake: 4-byte little-endian sender id. The identity is a
	// claim; protocol-level authentication decides what to believe.
	br := bufio.NewReaderSize(conn, 64<<10)
	var hs [4]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	from := ids.NodeID(binary.LittleEndian.Uint32(hs[:]))
	if !from.Valid() {
		return
	}

	var arena recvArena
	for {
		stream, payload, err := readFrame(br, &arena)
		if err != nil {
			return
		}
		// Greedily take the frames on the same stream that are already
		// sitting in the read buffer — never blocking — and hand the run
		// to the handler in one call. A sender flushes several frames
		// per write, so under load whole runs arrive in one kernel read.
		// A garbage header ends the run; the frames before it arrived
		// intact and are delivered before the next read fails.
		payloads := [][]byte{payload}
		for err == nil && len(payloads) < maxInboundBatch && nextBuffered(br, stream) {
			if _, payload, err = readFrame(br, &arena); err == nil {
				payloads = append(payloads, payload)
			}
		}
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		n.Deliver(from, stream, payloads)
		if err != nil {
			return
		}
	}
}

// recvArena carves inbound frame payloads out of chunked allocations,
// so a saturated connection pays one allocation per chunk instead of
// one per frame. Chunks are handed out, never recycled: handlers may
// retain a frame slice across asynchronous verification (the protocol
// layers do), and the garbage collector frees a chunk once no frame
// references it. The flip side is that one retained frame pins its
// whole chunk, so long-lived retention must copy — see the ownership
// rules on transport.Handler.
type recvArena struct {
	free []byte
}

// arenaChunkSize balances allocation amortization against the memory a
// single retained frame can pin.
const arenaChunkSize = 64 << 10

// bigFrameCutoff keeps frames that would waste a large fraction of a
// chunk out of the arena; they get an exact private allocation.
const bigFrameCutoff = arenaChunkSize / 4

func (a *recvArena) alloc(n int) []byte {
	if n >= bigFrameCutoff {
		return make([]byte, n)
	}
	if len(a.free) < n {
		a.free = make([]byte, arenaChunkSize)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// readFrame reads one length-prefixed frame, blocking as needed. The
// payload is carved from the receive arena.
func readFrame(br *bufio.Reader, arena *recvArena) (transport.Stream, []byte, error) {
	var header [8]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(header[:4])
	stream := transport.Stream(binary.LittleEndian.Uint32(header[4:]))
	if length > maxFrameSize {
		return 0, nil, errors.New("tcpnet: oversized frame")
	}
	payload := arena.alloc(int(length))
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	return stream, payload, nil
}

// nextBuffered reports whether the next frame belongs to stream and is
// entirely in br's buffer already, so reading it never blocks on the
// network.
func nextBuffered(br *bufio.Reader, stream transport.Stream) bool {
	if br.Buffered() < 8 {
		return false
	}
	header, _ := br.Peek(8)
	return transport.Stream(binary.LittleEndian.Uint32(header[4:])) == stream &&
		br.Buffered() >= 8+int(binary.LittleEndian.Uint32(header[:4]))
}

// --- outbound ---------------------------------------------------------------

type frame struct {
	stream  transport.Stream
	payload []byte
}

// peerQueue owns the connection to one peer: frames enqueue without
// blocking; a writer goroutine dials (and re-dials) and drains.
type peerQueue struct {
	node *Node
	peer ids.NodeID
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	conn   net.Conn
	closed bool
}

func newPeerQueue(n *Node, peer ids.NodeID, addr string) *peerQueue {
	q := &peerQueue{node: n, peer: peer, addr: addr}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *peerQueue) enqueue(stream transport.Stream, payload []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if len(q.queue) >= queueLen {
		// Best-effort semantics: drop the oldest frame; the protocols
		// recover via retries and checkpoints.
		q.queue = q.queue[1:]
	}
	q.queue = append(q.queue, frame{stream: stream, payload: payload})
	q.cond.Signal()
}

// nextBatch blocks for at least one frame, then drains everything else
// already queued (bounded by maxFlushBytes) so the writer can flush
// the whole run with one connection write.
func (q *peerQueue) nextBatch() ([]frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	taken := 0
	bytes := 0
	for taken < len(q.queue) {
		bytes += len(q.queue[taken].payload) + 8
		taken++
		if bytes >= maxFlushBytes {
			break
		}
	}
	batch := make([]frame, taken)
	copy(batch, q.queue[:taken])
	q.queue = q.queue[taken:]
	return batch, true
}

func (q *peerQueue) close() {
	q.mu.Lock()
	q.closed = true
	if q.conn != nil {
		_ = q.conn.Close() // unblock a writer stuck on a dead peer
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *peerQueue) run() {
	defer q.node.wg.Done()
	defer func() {
		q.mu.Lock()
		if q.conn != nil {
			q.conn.Close()
			q.conn = nil
		}
		q.mu.Unlock()
	}()
	for {
		batch, ok := q.nextBatch()
		if !ok {
			return
		}
		for {
			q.mu.Lock()
			conn := q.conn
			closed := q.closed
			q.mu.Unlock()
			if closed {
				return
			}
			if conn == nil {
				c, err := q.dial()
				if err != nil {
					time.Sleep(redialBackoff)
					continue
				}
				q.mu.Lock()
				if q.closed {
					q.mu.Unlock()
					c.Close()
					return
				}
				q.conn = c
				q.mu.Unlock()
				conn = c
			}
			if err := writeFrames(conn, batch); err != nil {
				conn.Close()
				q.mu.Lock()
				if q.conn == conn {
					q.conn = nil
				}
				q.mu.Unlock()
				continue // re-dial and retry this batch (duplicates are
				// tolerated by the protocols, like single-frame retries)
			}
			break
		}
	}
}

func (q *peerQueue) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", q.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	var hs [4]byte
	binary.LittleEndian.PutUint32(hs[:], uint32(q.node.opts.Self))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeFrames flushes a run of frames with a single vectored write
// (writev): one syscall per queue drain and no payload copying, so a
// saturated link amortizes the per-frame write cost.
func writeFrames(conn net.Conn, batch []frame) error {
	bufs := make(net.Buffers, 0, 2*len(batch))
	headers := make([]byte, 8*len(batch))
	for i, f := range batch {
		h := headers[8*i : 8*i+8]
		binary.LittleEndian.PutUint32(h[:4], uint32(len(f.payload)))
		binary.LittleEndian.PutUint32(h[4:], uint32(f.stream))
		bufs = append(bufs, h, f.payload)
	}
	_, err := bufs.WriteTo(conn)
	return err
}
