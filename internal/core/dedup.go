package core

import (
	"container/list"
	"fmt"
	"sync"

	"spider/internal/crypto"
	"spider/internal/stats"
)

// Content-addressed commit-channel payload dedup.
//
// Every ordered request enters the system through the request channel
// of the execution group that forwarded it: the client broadcasts to
// its whole group, each replica encodes the identical WrappedRequest
// bytes, and fe+1 matching submissions deliver them to agreement. The
// commit channel then ships those same bytes straight back to that
// group — for strong reads (whose full content only the designated
// group receives at all) the round trip is the dominant wide-area byte
// cost of the batch. fanOut therefore substitutes, per destination
// group, a compact by-digest reference for every full request that
// this group itself forwarded; execution replicas resolve references
// from a bounded LRU cache populated at forward time, verify the
// cached bytes against the digest before apply, and fall back to the
// existing checkpoint Fetch path on a miss, so progress never depends
// on the cache. The substitution is a pure function of agreed batch
// content, so all correct agreement senders submit byte-identical
// payloads per (position, group) and the IRMC fs+1 matching rule is
// untouched — a Byzantine sender forging digests simply never reaches
// a matching quorum.

// DedupMode selects whether the commit channel substitutes by-digest
// references for request content the destination group forwarded. The
// zero value enables dedup; every agreement replica of a deployment
// must use the same mode (the substitution is part of the agreed
// payload bytes).
type DedupMode int

// Dedup modes.
const (
	DedupOn  DedupMode = iota // reference payloads the destination group forwarded (default)
	DedupOff                  // always ship full request content
)

// String names the mode.
func (m DedupMode) String() string {
	if m == DedupOff {
		return "dedup-off"
	}
	return "dedup-on"
}

// CommitStats aggregates the commit-channel data-plane counters the
// evaluation surfaces: payload bytes handed to commit-channel Sends,
// wide-area envelope bytes the channels actually shipped, how many
// request slots went out by reference vs in full, and the execution
// side's payload-cache hit/miss counts. One instance may be shared by
// any number of replicas.
type CommitStats struct {
	PayloadBytes stats.Counter // bytes submitted to commit-channel Sends (per group, per batch)
	WireBytes    stats.Counter // WAN bytes shipped by the channel senders (envelopes x recipients)
	RefsSent     stats.Counter // request slots sent as by-digest references
	FullSent     stats.Counter // request slots sent with full content
	CacheHits    stats.Counter // references resolved from the execution payload cache
	CacheMisses  stats.Counter // references that missed (fell back to checkpoint Fetch)
}

// CommitSummary is a point-in-time copy of CommitStats.
type CommitSummary struct {
	PayloadBytes int64
	WireBytes    int64
	RefsSent     int64
	FullSent     int64
	CacheHits    int64
	CacheMisses  int64
}

// Summarize snapshots the counters.
func (s *CommitStats) Summarize() CommitSummary {
	return CommitSummary{
		PayloadBytes: s.PayloadBytes.Load(),
		WireBytes:    s.WireBytes.Load(),
		RefsSent:     s.RefsSent.Load(),
		FullSent:     s.FullSent.Load(),
		CacheHits:    s.CacheHits.Load(),
		CacheMisses:  s.CacheMisses.Load(),
	}
}

// Reset zeroes all counters.
func (s *CommitStats) Reset() {
	s.PayloadBytes.Reset()
	s.WireBytes.Reset()
	s.RefsSent.Reset()
	s.FullSent.Reset()
	s.CacheHits.Reset()
	s.CacheMisses.Reset()
}

// String renders the summary in a compact, table-friendly form.
func (s CommitSummary) String() string {
	return fmt.Sprintf("payload=%dB wire=%dB refs=%d full=%d cache=%d hit/%d miss",
		s.PayloadBytes, s.WireBytes, s.RefsSent, s.FullSent, s.CacheHits, s.CacheMisses)
}

// payloadCache is the execution replica's bounded content-addressed
// payload store: encoded WrappedRequest bytes keyed by their SHA-256
// digest, evicted least-recently-used. Keys are always computed
// locally from the stored bytes, so no sender can make a digest map to
// foreign content; resolution re-verifies the digest anyway (see
// ExecutionReplica.resolveRefs).
type payloadCache struct {
	mu      sync.Mutex
	limit   int
	entries map[crypto.Digest]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	digest  crypto.Digest
	payload []byte
}

func newPayloadCache(limit int) *payloadCache {
	if limit <= 0 {
		limit = defaultPayloadCacheEntries
	}
	return &payloadCache{
		limit:   limit,
		entries: make(map[crypto.Digest]*list.Element, limit),
		order:   list.New(),
	}
}

// put stores payload under digest, evicting the least recently used
// entry when full. The caller must pass digest == crypto.Hash(payload)
// and must not mutate payload afterwards.
func (c *payloadCache) put(digest crypto.Digest, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.limit {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).digest)
	}
	c.entries[digest] = c.order.PushFront(&cacheEntry{digest: digest, payload: payload})
}

// get returns the payload stored under digest, marking it recently
// used.
func (c *payloadCache) get(digest crypto.Digest) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// drop removes an entry (used when stored bytes fail verification,
// which indicates a local bug rather than an attack — keys are locally
// computed — but must never leave a poisoned entry behind).
func (c *payloadCache) drop(digest crypto.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.Remove(el)
		delete(c.entries, digest)
	}
}

// len reports the number of cached payloads.
func (c *payloadCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
