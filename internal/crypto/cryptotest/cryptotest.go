// Package cryptotest holds test helpers for code built on crypto.Suite.
package cryptotest

import (
	"sync"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// CountingSuite wraps a Suite and counts its Sign, Verify and VerifyMAC
// calls per domain and peer (the signer a signature is checked against,
// the sender a MAC is checked from), valid or not: the crypto work a
// node was made to do. A check is counted once it has returned.
// Everything else passes through.
type CountingSuite struct {
	crypto.Suite

	mu    sync.Mutex
	calls map[call]int64
}

type op uint8

const (
	opSign op = iota
	opVerify
	opVerifyMAC
)

type call struct {
	op     op
	domain crypto.Domain
	peer   ids.NodeID
	failed bool
}

// Counting wraps s.
func Counting(s crypto.Suite) *CountingSuite {
	return &CountingSuite{Suite: s, calls: make(map[call]int64)}
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

func (c *CountingSuite) count(k call) {
	c.mu.Lock()
	c.calls[k]++
	c.mu.Unlock()
}

// Sign counts the call and forwards it.
func (c *CountingSuite) Sign(d crypto.Domain, msg []byte) []byte {
	c.count(call{opSign, d, c.Node(), false})
	return c.Suite.Sign(d, msg)
}

// Verify forwards the call and counts it.
func (c *CountingSuite) Verify(signer ids.NodeID, d crypto.Domain, msg, sig []byte) error {
	err := c.Suite.Verify(signer, d, msg, sig)
	c.count(call{opVerify, d, signer, err != nil})
	return err
}

// VerifyMAC forwards the call and counts it.
func (c *CountingSuite) VerifyMAC(from ids.NodeID, d crypto.Domain, msg, mac []byte) error {
	err := c.Suite.VerifyMAC(from, d, msg, mac)
	c.count(call{opVerifyMAC, d, from, err != nil})
	return err
}

func (c *CountingSuite) sum(match func(call) bool) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for k, v := range c.calls {
		if match(k) {
			n += v
		}
	}
	return n
}

// Verifies returns how many Verify calls were made under domain d.
func (c *CountingSuite) Verifies(d crypto.Domain) int64 {
	return c.sum(func(k call) bool { return k.op == opVerify && k.domain == d })
}

// VerifiesFrom returns how many Verify calls under domain d named
// signer.
func (c *CountingSuite) VerifiesFrom(d crypto.Domain, signer ids.NodeID) int64 {
	return c.sum(func(k call) bool { return k.op == opVerify && k.domain == d && k.peer == signer })
}

// MACVerifiesFrom returns how many VerifyMAC calls under domain d named
// from.
func (c *CountingSuite) MACVerifiesFrom(d crypto.Domain, from ids.NodeID) int64 {
	return c.sum(func(k call) bool { return k.op == opVerifyMAC && k.domain == d && k.peer == from })
}

// MACRejectsFrom returns how many of those calls failed.
func (c *CountingSuite) MACRejectsFrom(d crypto.Domain, from ids.NodeID) int64 {
	return c.sum(func(k call) bool { return k == call{opVerifyMAC, d, from, true} })
}

// PublicKeyOps returns how many Sign and Verify calls were made, under
// any domain.
func (c *CountingSuite) PublicKeyOps() int64 {
	return c.sum(func(k call) bool { return k.op != opVerifyMAC })
}
