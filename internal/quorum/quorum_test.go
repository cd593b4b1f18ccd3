package quorum

import (
	"errors"
	"testing"

	"spider/internal/ids"
)

var group = ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}

// weighted is a rule by weight: member 1 weighs 2, the others 1.
type weighted float64

func (need weighted) IsQuorum(voters map[ids.NodeID]bool) bool {
	var w float64
	for v := range voters {
		w++
		if v == 1 {
			w++
		}
	}
	return w >= float64(need)
}

func TestEquivocationCountsOnce(t *testing.T) {
	c := New[uint64, string, int](Count(2), 4)
	if !c.Add(7, 1, "a", 10) {
		t.Fatal("first vote refused")
	}
	if c.Add(7, 1, "b", 11) {
		t.Error("a member's second key at one position was counted")
	}
	if v := c.Voted(7, 1); v == nil || v.Key != "a" || v.Val != 10 {
		t.Errorf("the first vote does not stand: %+v", v)
	}
	c.Add(7, 2, "b", 20)
	if c.Reached(7, "b") {
		t.Error("one honest vote and one equivocation reached 2")
	}
	c.Add(7, 3, "a", 30)
	if !c.Reached(7, "a") {
		t.Error("two distinct votes for a did not reach 2")
	}
	var got []ids.NodeID
	for from, val := range c.Matching(7, "a") {
		got = append(got, from)
		if val != 10*int(from) {
			t.Errorf("value %d from %v", val, from)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("matching voters %v, want [n1 n3] in arrival order", got)
	}
	if n := len(c.At(7)); n != 3 {
		t.Errorf("%d votes at the position, want 3", n)
	}
}

func TestDuplicateVotes(t *testing.T) {
	c := New[uint64, string, struct{}](Count(2), 4)
	for range 10 {
		c.Add(1, 4, "x", struct{}{})
	}
	if c.Reached(1, "x") {
		t.Error("one member repeating its vote reached 2")
	}
	if n := len(c.At(1)); n != 1 {
		t.Errorf("%d votes stored, want 1", n)
	}
}

// TestFailedCheckRecordsNothing: the caller asks Voted before it verifies
// and adds only what verified, so a forged frame that claims a member's
// vote does not shadow the member's genuine one.
func TestFailedCheckRecordsNothing(t *testing.T) {
	c := New[uint64, string, string](Count(2), 4)
	admit := func(from ids.NodeID, key string, valid bool) {
		if c.Voted(5, from) != nil || !valid {
			return
		}
		c.Add(5, from, key, "verified")
	}
	admit(2, "forged", false)
	if c.Voted(5, 2) != nil {
		t.Fatal("a vote that failed its check was recorded")
	}
	admit(2, "k", true)
	admit(3, "k", true)
	if !c.Reached(5, "k") {
		t.Error("the genuine vote after a forged one did not count")
	}
}

func TestThresholds(t *testing.T) {
	byCount := New[uint64, string, struct{}](Count(3), 4)
	byWeight := New[uint64, string, struct{}](weighted(3), 4)
	for _, from := range []ids.NodeID{1, 2} {
		byCount.Add(1, from, "k", struct{}{})
		byWeight.Add(1, from, "k", struct{}{})
	}
	if byCount.Reached(1, "k") {
		t.Error("2 votes reached a count of 3")
	}
	if !byWeight.Reached(1, "k") {
		t.Error("members 1 and 2 (weight 3) did not reach weight 3")
	}
	if !byCount.Reached(1, "k", 3) {
		t.Error("an implicit third voter did not complete the count")
	}
	if byCount.Reached(1, "k", 2) {
		t.Error("an implicit voter that already voted was counted twice")
	}
	// ReachedBy counts only the votes whose value passes.
	signed := New[uint64, string, bool](Count(3), 4)
	signed.Add(1, 2, "k", true)
	signed.Add(1, 3, "k", false)
	signed.Add(1, 4, "k", true)
	isSigned := func(s bool) bool { return s }
	if signed.ReachedBy(1, "k", isSigned) {
		t.Error("an unsigned vote counted toward a signed quorum")
	}
	if !signed.ReachedBy(1, "k", isSigned, 1) {
		t.Error("two signed votes and the implicit voter did not reach 3")
	}
	if !signed.ReachedBy(1, "k", isSigned, 3) {
		t.Error("an implicit voter whose own vote does not count was not counted")
	}
	weightedSigned := New[uint64, string, bool](weighted(4), 4)
	weightedSigned.Add(1, 2, "k", true)
	weightedSigned.Add(1, 3, "k", false)
	if weightedSigned.ReachedBy(1, "k", isSigned, 1) {
		t.Error("weight 3 reached 4")
	}
	if !weightedSigned.ReachedBy(1, "k", nil, 1) {
		t.Error("weight 4 did not reach 4")
	}
}

func TestDropBelow(t *testing.T) {
	c := New[ids.Position, string, struct{}](Count(1), 4)
	for p := ids.Position(1); p <= 5; p++ {
		c.Add(p, 1, "k", struct{}{})
	}
	c.DropBelow(3)
	c.Drop(4)
	var left []ids.Position
	for p := range c.All() {
		left = append(left, p)
	}
	if len(left) != 2 || c.At(3) == nil || c.At(5) == nil {
		t.Fatalf("positions left %v, want 3 and 5", left)
	}
	if c.Voted(1, 1) != nil || !c.Add(1, 1, "other", struct{}{}) {
		t.Error("a dropped position still holds its vote")
	}
}

// entry is one certificate entry for the Cert tests.
type entry struct {
	from  ids.NodeID
	valid bool
}

func verify(t *testing.T, c Cert, entries []entry, implicit ...ids.NodeID) (ok bool, checked []ids.NodeID) {
	t.Helper()
	ran := make([]bool, len(entries))
	ok = c.Verify(len(entries), func(i int) ids.NodeID { return entries[i].from }, func(i int) error {
		ran[i] = true
		if !entries[i].valid {
			return errors.New("bad share")
		}
		return nil
	}, implicit...)
	for i, r := range ran {
		if r {
			checked = append(checked, entries[i].from)
		}
	}
	return ok, checked
}

func TestCertDuplicatesNonMembersImplicit(t *testing.T) {
	c := Cert{Rule: Count(3), Members: group}
	ok, checked := verify(t, c, []entry{{2, true}, {2, true}, {99, true}, {3, true}})
	if ok {
		t.Error("two distinct members and a non-member made a quorum of 3")
	}
	if len(checked) != 2 || checked[0] != 2 || checked[1] != 3 {
		t.Errorf("checked %v, want the first entry of each member only", checked)
	}
	// A member's first entry decides: a valid repeat does not stand in.
	if ok, _ := verify(t, c, []entry{{2, false}, {2, true}, {3, true}, {4, true}}); ok {
		t.Error("a member's valid second entry replaced its bad first one")
	}
	ok, checked = verify(t, c, []entry{{1, false}, {2, true}, {3, true}}, 1)
	if !ok {
		t.Error("the implicit voter with two entries did not make 3")
	}
	if len(checked) != 2 {
		t.Errorf("checked %v: the implicit voter's own entry must not be", checked)
	}
}

func TestCertOneBadShare(t *testing.T) {
	c := Cert{Rule: Count(3), Members: group}
	if ok, _ := verify(t, c, []entry{{1, true}, {2, false}, {3, true}}); ok {
		t.Error("an exactly-quorum certificate with one bad share was accepted")
	}
	ok, checked := verify(t, c, []entry{{1, true}, {2, false}, {3, true}, {4, true}})
	if !ok {
		t.Error("an over-quorum certificate with one bad share was rejected")
	}
	if len(checked) != 4 {
		t.Errorf("%d of 4 entries checked", len(checked))
	}
	wc := Cert{Rule: weighted(3), Members: group}
	if ok, _ := verify(t, wc, []entry{{1, true}, {2, true}}); !ok {
		t.Error("weight 3 certificate rejected")
	}
}
