// Package quorum is the one place where votes are counted. Every layer
// of Spider accepts something once enough distinct members of a known
// group vouch for the same content: fs+1 matching Sends or shares on an
// IRMC, 2f+1 prepares, commits, checkpoints or view changes in PBFT, f+1
// checkpoint announcements, fe+1 matching replies at a client. This
// package holds the two shapes that takes — votes collected one message
// at a time (Collector), and a certificate checked as a whole (Cert) —
// under one rule: a member has one vote per position, whatever that vote
// carries, so a repeated or equivocating message changes nothing.
//
// Nothing here locks, reads the clock or starts a goroutine; callers
// serialize access as they do for the rest of their state.
package quorum

import (
	"cmp"
	"iter"
	"maps"

	"spider/internal/ids"
)

// Rule decides whether a set of distinct voters is a quorum.
type Rule interface {
	// IsQuorum reports whether the voter set reaches a quorum. The map is
	// borrowed for the call only: implementations must neither retain
	// nor change it.
	IsQuorum(voters map[ids.NodeID]bool) bool
}

// Count is the rule that any n distinct voters are a quorum.
type Count int

// IsQuorum implements Rule.
func (n Count) IsQuorum(voters map[ids.NodeID]bool) bool { return len(voters) >= int(n) }

// Vote is one member's vote at a position: the key it is grouped by and
// what the caller keeps with it.
type Vote[K comparable, V any] struct {
	From ids.NodeID
	Key  K
	Val  V
}

// Collector gathers votes per position P, grouped by a key K the caller
// chooses (a digest, a view and digest, a result), and answers whether
// the votes for one key reach the rule. Each member has one vote per
// position: the first stands, later ones are refused whatever they carry.
type Collector[P cmp.Ordered, K comparable, V any] struct {
	rule    Rule
	members int
	votes   map[P][]Vote[K, V] // per position, in arrival order
	scratch map[ids.NodeID]bool
}

// New returns an empty collector deciding by rule; members is the size
// of the voting group, the most votes one position can hold.
func New[P cmp.Ordered, K comparable, V any](rule Rule, members int) *Collector[P, K, V] {
	return &Collector[P, K, V]{rule: rule, members: members, votes: make(map[P][]Vote[K, V])}
}

// Voted returns from's vote at p, or nil. The caller may change the
// vote's value in place; the pointer is valid until the next Add.
func (c *Collector[P, K, V]) Voted(p P, from ids.NodeID) *Vote[K, V] {
	vs := c.votes[p]
	for i := range vs {
		if vs[i].From == from {
			return &vs[i]
		}
	}
	return nil
}

// Add records from's vote for key at p and reports whether it counted:
// false if from has voted at p already.
func (c *Collector[P, K, V]) Add(p P, from ids.NodeID, key K, val V) bool {
	if c.Voted(p, from) != nil {
		return false
	}
	vs := c.votes[p]
	if vs == nil {
		vs = make([]Vote[K, V], 0, c.members)
	}
	c.votes[p] = append(vs, Vote[K, V]{From: from, Key: key, Val: val})
	return true
}

// Reached reports whether the votes for key at p, together with the
// implicit voters (members whose vote is implied, such as a proposer's),
// satisfy the rule.
func (c *Collector[P, K, V]) Reached(p P, key K, implicit ...ids.NodeID) bool {
	return c.ReachedBy(p, key, nil, implicit...)
}

// ReachedBy is Reached counting only the votes whose value passes
// counts; nil counts every vote.
func (c *Collector[P, K, V]) ReachedBy(p P, key K, counts func(V) bool, implicit ...ids.NodeID) bool {
	counted := func(v *Vote[K, V]) bool { return v != nil && v.Key == key && (counts == nil || counts(v.Val)) }
	vs := c.votes[p]
	if need, ok := c.rule.(Count); ok {
		n := 0
		for i := range vs {
			if counted(&vs[i]) {
				n++
			}
		}
		for _, id := range implicit {
			if !counted(c.Voted(p, id)) {
				n++
			}
		}
		return n >= int(need)
	}
	if c.scratch == nil {
		c.scratch = make(map[ids.NodeID]bool, c.members)
	}
	clear(c.scratch)
	for i := range vs {
		if counted(&vs[i]) {
			c.scratch[vs[i].From] = true
		}
	}
	for _, id := range implicit {
		c.scratch[id] = true
	}
	return c.rule.IsQuorum(c.scratch)
}

// Matching yields the voter and value of every vote for key at p, in
// arrival order.
func (c *Collector[P, K, V]) Matching(p P, key K) iter.Seq2[ids.NodeID, V] {
	return func(yield func(ids.NodeID, V) bool) {
		for _, v := range c.votes[p] {
			if v.Key == key && !yield(v.From, v.Val) {
				return
			}
		}
	}
}

// At returns every vote at p, whatever its key, in arrival order.
func (c *Collector[P, K, V]) At(p P) []Vote[K, V] { return c.votes[p] }

// All yields every position that holds votes, with its votes.
func (c *Collector[P, K, V]) All() iter.Seq2[P, []Vote[K, V]] {
	return func(yield func(P, []Vote[K, V]) bool) {
		for p, vs := range c.votes {
			if !yield(p, vs) {
				return
			}
		}
	}
}

// Drop forgets the votes at p.
func (c *Collector[P, K, V]) Drop(p P) { delete(c.votes, p) }

// DropBelow forgets the votes at every position below p.
func (c *Collector[P, K, V]) DropBelow(p P) {
	for q := range c.votes {
		if q < p {
			delete(c.votes, q)
		}
	}
}

// Cert is how a certificate — a list of entries, each vouched for by one
// member — is checked as a whole: who may vouch and what makes a quorum.
type Cert struct {
	Rule    Rule
	Members ids.Group
}

// Verify reports whether a certificate of n entries, entry i vouched for
// by from(i), holds a quorum. Only the first entry of each member is
// checked (check(i) returns nil when it is valid); entries of non-members
// and of implicit voters are never checked, and an entry that fails
// counts for nothing. The implicit voters count without an entry. Every
// first entry is checked, in order, also once a quorum of them has
// passed.
func (c Cert) Verify(n int, from func(i int) ids.NodeID, check func(i int) error, implicit ...ids.NodeID) bool {
	valid := make(map[ids.NodeID]bool, n+len(implicit)) // member -> its entry passed
	for _, id := range implicit {
		valid[id] = true
	}
	for i := range n {
		id := from(i)
		if _, seen := valid[id]; seen || !c.Members.Contains(id) {
			continue
		}
		valid[id] = check(i) == nil
	}
	maps.DeleteFunc(valid, func(_ ids.NodeID, ok bool) bool { return !ok })
	return c.Rule.IsQuorum(valid)
}
