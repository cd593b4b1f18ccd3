package crypto

import (
	"fmt"

	"spider/internal/ids"
	"spider/internal/wire"
)

// The HFT baseline (Steward) uses Shoup RSA threshold signatures so
// that a site of 3f+1 replicas can speak with a single signature that
// proves 2f+1 members agreed. The reproduction emulates this with a
// k-of-n multi-signature: a vector of k ordinary RSA share signatures
// from distinct members. Quorum semantics and wide-area message counts
// are identical to real threshold signatures; only the verification
// cost differs (k RSA verifications instead of one). Read the HFT
// baseline's CPU figures as an upper bound for that reason: its latency
// and wide-area traffic are what a real threshold scheme would show,
// its verification time is k times as much.

// Share is one replica's contribution to an emulated threshold
// signature.
type Share struct {
	Node ids.NodeID
	Sig  []byte
}

// MarshalWire implements wire.Marshaler.
func (s *Share) MarshalWire(w *wire.Writer) {
	w.WriteNode(s.Node)
	w.WriteBytes(s.Sig)
}

// UnmarshalWire implements wire.Unmarshaler.
func (s *Share) UnmarshalWire(r *wire.Reader) {
	s.Node = r.ReadNode()
	s.Sig = r.ReadBytes()
}

// SignShare produces this node's share over msg under domain d.
func SignShare(s Suite, d Domain, msg []byte) Share {
	return Share{Node: s.Node(), Sig: s.Sign(d, msg)}
}

// ThresholdSig is an emulated threshold signature: at least k share
// signatures from distinct group members over the same message.
type ThresholdSig struct {
	Shares []Share
}

// MarshalWire implements wire.Marshaler.
func (t *ThresholdSig) MarshalWire(w *wire.Writer) {
	w.WriteInt(len(t.Shares))
	for i := range t.Shares {
		t.Shares[i].MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (t *ThresholdSig) UnmarshalWire(r *wire.Reader) {
	n := r.ReadInt()
	if n < 0 || n > 1<<12 {
		return
	}
	t.Shares = make([]Share, n)
	for i := range t.Shares {
		t.Shares[i].UnmarshalWire(r)
	}
}

// Combine assembles a threshold signature from collected shares,
// keeping at most k of them (deduplicated by signer). It returns false
// if fewer than k distinct shares are available.
func Combine(shares []Share, k int) (ThresholdSig, bool) {
	seen := make(map[ids.NodeID]bool, len(shares))
	out := make([]Share, 0, k)
	for _, sh := range shares {
		if seen[sh.Node] {
			continue
		}
		seen[sh.Node] = true
		out = append(out, sh)
		if len(out) == k {
			return ThresholdSig{Shares: out}, true
		}
	}
	return ThresholdSig{}, false
}

// VerifyThreshold checks that ts carries k valid share signatures over
// msg under d from distinct members of group.
func VerifyThreshold(s Suite, group ids.Group, k int, d Domain, msg []byte, ts ThresholdSig) error {
	if len(ts.Shares) < k {
		return fmt.Errorf("%w: %d shares, need %d", ErrBadSignature, len(ts.Shares), k)
	}
	seen := make(map[ids.NodeID]bool, len(ts.Shares))
	valid := 0
	for _, sh := range ts.Shares {
		if seen[sh.Node] || !group.Contains(sh.Node) {
			continue
		}
		seen[sh.Node] = true
		if err := s.Verify(sh.Node, d, msg, sh.Sig); err != nil {
			return err
		}
		valid++
	}
	if valid < k {
		return fmt.Errorf("%w: only %d distinct valid shares, need %d", ErrBadSignature, valid, k)
	}
	return nil
}
