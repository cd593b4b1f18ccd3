// Package cryptotest holds test helpers for code built on crypto.Suite.
package cryptotest

import (
	"sync"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// CountingSuite wraps a Suite and counts its Verify calls per domain
// and signer, valid or not: the public-key work an endpoint was made
// to do. Everything else passes through.
type CountingSuite struct {
	crypto.Suite

	mu       sync.Mutex
	verifies map[verifyKey]int64
}

type verifyKey struct {
	domain crypto.Domain
	signer ids.NodeID
}

// Counting wraps s.
func Counting(s crypto.Suite) *CountingSuite {
	return &CountingSuite{Suite: s, verifies: make(map[verifyKey]int64)}
}

// CountingAll wraps every suite of a deployment.
func CountingAll(suites map[ids.NodeID]crypto.Suite) (map[ids.NodeID]crypto.Suite, map[ids.NodeID]*CountingSuite) {
	wrapped := make(map[ids.NodeID]crypto.Suite, len(suites))
	counters := make(map[ids.NodeID]*CountingSuite, len(suites))
	for id, s := range suites {
		counters[id] = Counting(s)
		wrapped[id] = counters[id]
	}
	return wrapped, counters
}

// Verify counts the call and forwards it.
func (c *CountingSuite) Verify(signer ids.NodeID, d crypto.Domain, msg, sig []byte) error {
	c.mu.Lock()
	c.verifies[verifyKey{d, signer}]++
	c.mu.Unlock()
	return c.Suite.Verify(signer, d, msg, sig)
}

// Verifies returns how many Verify calls were made under domain d.
func (c *CountingSuite) Verifies(d crypto.Domain) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for k, v := range c.verifies {
		if k.domain == d {
			n += v
		}
	}
	return n
}

// VerifiesFrom returns how many Verify calls under domain d named
// signer.
func (c *CountingSuite) VerifiesFrom(d crypto.Domain, signer ids.NodeID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verifies[verifyKey{d, signer}]
}
