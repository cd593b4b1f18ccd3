package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"maps"
	"sync"
	"sync/atomic"

	"spider/internal/ids"
)

// macProvider derives and caches pairwise HMAC keys. In a production
// system these keys would be established by a handshake; the
// reproduction derives them from a master secret shared at deployment
// time so that a node can only compute MACs for pairs it belongs to
// (the provider refuses to derive keys for foreign pairs).
//
// The provider is built for the data-plane hot path: the peer table is
// an immutable copy-on-write map behind an atomic pointer, so `mac`
// and `verify` never take a lock, and each peer entry pools Reset()-able
// keyed HMAC states, so steady-state MAC computation performs zero
// allocations (constructing an HMAC from scratch costs ~5 allocations
// and two key-block compressions per call). The mutex below serializes
// only the cold path — first contact with a peer.
type macProvider struct {
	node   ids.NodeID
	master []byte

	peers atomic.Pointer[map[ids.NodeID]*peerMAC]
	mu    sync.Mutex // cold path: key derivation + table copy
}

// peerMAC is the immutable per-peer entry: the derived pairwise key and
// a pool of reusable keyed HMAC states.
type peerMAC struct {
	key  []byte
	pool sync.Pool // of *macState
}

// macState is one reusable keyed HMAC computation: the Reset()-able
// state plus scratch so neither the domain byte nor the expected-sum
// buffer allocates per call.
type macState struct {
	h   hash.Hash
	dom [1]byte
	sum [DigestSize]byte
}

func newMACProvider(node ids.NodeID, master []byte) *macProvider {
	p := &macProvider{
		node:   node,
		master: append([]byte(nil), master...),
	}
	empty := make(map[ids.NodeID]*peerMAC)
	p.peers.Store(&empty)
	return p
}

// peer returns the entry for the given peer, deriving the key on first
// contact. The fast path is one atomic load and a map read. Keys are
// never derived ahead of use: a deployment builds one suite per
// identity, and a node talks to a few dozen peers of the hundreds its
// directory lists, so deriving every pair up front cost a deployment
// hundreds of thousands of keys it never used.
func (p *macProvider) peer(id ids.NodeID) *peerMAC {
	if pm, ok := (*p.peers.Load())[id]; ok {
		return pm
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.peers.Load()
	if pm, ok := cur[id]; ok {
		return pm
	}
	next := maps.Clone(cur)
	pm := p.derive(id)
	next[id] = pm
	p.peers.Store(&next)
	return pm
}

// derive computes the pairwise key this node shares with id.
func (p *macProvider) derive(id ids.NodeID) *peerMAC {
	lo, hi := p.node, id
	if lo > hi {
		lo, hi = hi, lo
	}
	mac := hmac.New(sha256.New, p.master)
	var buf [8]byte
	putNodeID(buf[:4], lo)
	putNodeID(buf[4:], hi)
	mac.Write(buf[:])
	key := mac.Sum(nil)

	pm := &peerMAC{key: key}
	pm.pool.New = func() any {
		return &macState{h: hmac.New(sha256.New, key)}
	}
	return pm
}

func putNodeID(b []byte, id ids.NodeID) {
	v := uint32(id)
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func (p *macProvider) mac(to ids.NodeID, d Domain, msg []byte) []byte {
	return p.macAppend(to, d, msg, nil)
}

// macAppend appends the MAC for (to, d, msg) to dst. With a pooled
// state and a dst of sufficient capacity this performs no allocations.
func (p *macProvider) macAppend(to ids.NodeID, d Domain, msg, dst []byte) []byte {
	pm := p.peer(to)
	st := pm.pool.Get().(*macState)
	st.h.Reset()
	st.dom[0] = byte(d)
	st.h.Write(st.dom[:])
	st.h.Write(msg)
	out := st.h.Sum(dst)
	pm.pool.Put(st)
	return out
}

func (p *macProvider) verify(from ids.NodeID, d Domain, msg, got []byte) error {
	pm := p.peer(from)
	st := pm.pool.Get().(*macState)
	st.h.Reset()
	st.dom[0] = byte(d)
	st.h.Write(st.dom[:])
	st.h.Write(msg)
	want := st.h.Sum(st.sum[:0])
	ok := hmac.Equal(want, got)
	pm.pool.Put(st)
	if !ok {
		return fmt.Errorf("%w: from %v", ErrBadMAC, from)
	}
	return nil
}
