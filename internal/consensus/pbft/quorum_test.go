package pbft

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spider/internal/ids"
	"spider/internal/quorum"
)

func votersOf(nodes ...ids.NodeID) map[ids.NodeID]bool {
	m := make(map[ids.NodeID]bool, len(nodes))
	for _, n := range nodes {
		m[n] = true
	}
	return m
}

func TestCountQuorum(t *testing.T) {
	q := quorum.Count(3)
	if q.IsQuorum(votersOf(1, 2)) {
		t.Error("2 voters accepted for need=3")
	}
	if !q.IsQuorum(votersOf(1, 2, 3)) {
		t.Error("3 voters rejected for need=3")
	}
}

func TestWheatQuorumConstruction(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4, 5}
	group := ids.Group{ID: 1, Members: members, F: 1}
	q, err := NewWheatQuorum(group, 1, []ids.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// f=1, Δ=1: Vmax = 2 for replicas 1,2; Vmin = 1; need = 2f*Vmax+1 = 5.
	if q.Need != 5 {
		t.Errorf("need = %v", q.Need)
	}
	if q.Weights[1] != 2 || q.Weights[3] != 1 {
		t.Errorf("weights = %v", q.Weights)
	}
	// Two Vmax plus any Vmin replica form the fast 3-replica quorum.
	if !q.IsQuorum(votersOf(1, 2, 3)) {
		t.Error("fast quorum rejected")
	}
	// Three Vmin replicas do not reach weight 5.
	if q.IsQuorum(votersOf(3, 4, 5)) {
		t.Error("three Vmin replicas accepted")
	}
	// Four replicas with one Vmax do reach 2+1+1+1 = 5.
	if !q.IsQuorum(votersOf(1, 3, 4, 5)) {
		t.Error("1 Vmax + 3 Vmin rejected")
	}
}

func TestWheatQuorumErrors(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4, 5}
	group := ids.Group{ID: 1, Members: members, F: 1}
	if _, err := NewWheatQuorum(group, 2, []ids.NodeID{1, 2}); err == nil {
		t.Error("wrong group size accepted")
	}
	if _, err := NewWheatQuorum(group, 1, []ids.NodeID{1}); err == nil {
		t.Error("wrong Vmax count accepted")
	}
	if _, err := NewWheatQuorum(group, 1, []ids.NodeID{1, 99}); err == nil {
		t.Error("foreign Vmax replica accepted")
	}
}

// TestQuickWheatIntersection is the core safety property of weighted
// voting: any two quorums intersect in at least one correct replica
// (more precisely, their weight intersection exceeds what f Byzantine
// replicas can muster).
func TestQuickWheatIntersection(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4, 5}
	group := ids.Group{ID: 1, Members: members, F: 1}
	q, err := NewWheatQuorum(group, 1, []ids.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Draw two random subsets; whenever both are quorums, their
		// intersection must contain a node outside any possible
		// single Byzantine replica, i.e. at least 2 nodes or weight
		// > Vmax.
		a := randomSubset(rng, members)
		b := randomSubset(rng, members)
		if !q.IsQuorum(a) || !q.IsQuorum(b) {
			return true // vacuous
		}
		var interWeight float64
		for n := range a {
			if b[n] {
				interWeight += q.Weights[n]
			}
		}
		// One faulty replica controls at most Vmax = 2 weight; the
		// intersection must exceed that so a correct replica is in it.
		return interWeight > 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountIntersection checks the classic 2f+1-of-3f+1 property.
func TestQuickCountIntersection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fct := rng.Intn(3) + 1
		n := 3*fct + 1
		members := make([]ids.NodeID, n)
		for i := range members {
			members[i] = ids.NodeID(i + 1)
		}
		q := quorum.Count(2*fct + 1)
		a := randomSubset(rng, members)
		b := randomSubset(rng, members)
		if !q.IsQuorum(a) || !q.IsQuorum(b) {
			return true
		}
		inter := 0
		for m := range a {
			if b[m] {
				inter++
			}
		}
		return inter >= fct+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func randomSubset(rng *rand.Rand, members []ids.NodeID) map[ids.NodeID]bool {
	out := make(map[ids.NodeID]bool)
	for _, m := range members {
		if rng.Intn(2) == 0 {
			out[m] = true
		}
	}
	return out
}

func TestBatchDigestProperties(t *testing.T) {
	a := [][]byte{[]byte("x"), []byte("y")}
	b := [][]byte{[]byte("x"), []byte("y")}
	if batchDigest(a) != batchDigest(b) {
		t.Error("equal batches hash differently")
	}
	c := [][]byte{[]byte("y"), []byte("x")}
	if batchDigest(a) == batchDigest(c) {
		t.Error("order-insensitive digest")
	}
	if batchDigest(nil) != batchDigest([][]byte{}) {
		t.Error("nil and empty batch digests differ")
	}
	if batchDigest(a) == batchDigest(nil) {
		t.Error("non-empty equals null digest")
	}
	// Concatenation confusion: ["ab"] vs ["a","b"] must differ.
	if batchDigest([][]byte{[]byte("ab")}) == batchDigest([][]byte{[]byte("a"), []byte("b")}) {
		t.Error("batch boundary not part of digest")
	}
}
