package pbft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// TestAsyncVerifyPreservesSenderOrder feeds a replica a long run of
// signed prepare/commit frames from one peer through the transport
// handler and asserts that verification hands them to the core in
// submission order: checking signatures must never reorder one sender's
// messages (vote bookkeeping, view-change and
// checkpoint certificate logic all assume the transport's per-sender
// FIFO). The votes are for a view the replica has not installed, so the
// core holds each one in arrival order, which is what the test reads.
func TestAsyncVerifyPreservesSenderOrder(t *testing.T) {
	nodes := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: nodes, F: 1}
	suites := crypto.NewSuites(nodes, crypto.SuiteRSA)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	r, err := New(Config{
		Group:   group,
		Suite:   suites[2],
		Node:    net.Node(2),
		Stream:  1,
		Deliver: func(consensus.Batch) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	type event struct {
		tag wire.TypeTag
		seq uint64
	}
	// Alternate prepares and commits from peer 3, all for distinct
	// sequence numbers, submitted in a strict order.
	const n = 120
	var want []event
	sender := suites[3]
	for i := 0; i < n; i++ {
		seq := uint64(i + 1)
		var frame []byte
		var tag wire.TypeTag
		if i%2 == 0 {
			tag = tagPrepare
			frame = registry.EncodeFrame(tagPrepare, &prepare{View: 1, Seq: seq})
		} else {
			tag = tagCommit
			frame = registry.EncodeFrame(tagCommit, &commit{View: 1, Seq: seq})
		}
		raw := signedRaw{From: 3, Frame: frame, Sig: sender.Sign(crypto.DomainPBFT, frame)}
		r.onFrames(3, [][]byte{wire.Encode(&raw)})
		want = append(want, event{tag: tag, seq: seq})
	}

	var got []event
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		got = got[:0]
		for _, in := range r.core.heldVotes[3] {
			var seq uint64
			switch m := in.msg.(type) {
			case *prepare:
				seq = m.Seq
			case *commit:
				seq = m.Seq
			}
			got = append(got, event{tag: in.tag, seq: seq})
		}
		r.mu.Unlock()
		if len(got) >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the core", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
	if len(got) != n {
		t.Fatalf("the core received %d frames, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %+v, want %+v%s", i, got[i], want[i],
				fmt.Sprintf(" (full order: %v)", got[:i+1]))
		}
	}
}

// TestAsyncVerifyRejectsBadSignatures asserts the transport handler
// refuses frames that fail verification: only the genuine vote reaches
// the core's log.
func TestAsyncVerifyRejectsBadSignatures(t *testing.T) {
	nodes := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: nodes, F: 1}
	suites := crypto.NewSuites(nodes, crypto.SuiteRSA)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	r, err := New(Config{
		Group:   group,
		Suite:   suites[2],
		Node:    net.Node(2),
		Stream:  1,
		Deliver: func(consensus.Batch) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	frame := registry.EncodeFrame(tagPrepare, &prepare{View: 0, Seq: 1})
	// Signed by 4 but claiming to be from 3: must be dropped. Had it
	// been admitted, it would hold 3's vote and the genuine one after it
	// would be discarded as a repeat.
	raw := signedRaw{From: 3, Frame: frame, Sig: suites[4].Sign(crypto.DomainPBFT, frame)}
	r.onFrames(3, [][]byte{wire.Encode(&raw)})
	// A frame from a non-member must be dropped before verification.
	raw = signedRaw{From: 99, Frame: frame, Sig: suites[4].Sign(crypto.DomainPBFT, frame)}
	r.onFrames(99, [][]byte{wire.Encode(&raw)})
	// A valid frame afterwards must still arrive.
	genuine := suites[3].Sign(crypto.DomainPBFT, frame)
	raw = signedRaw{From: 3, Frame: frame, Sig: genuine}
	r.onFrames(3, [][]byte{wire.Encode(&raw)})

	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.core.prepares.At(1))
		var sig []byte
		v := r.core.prepares.Voted(1, 3)
		if v != nil {
			sig = v.Val.Sig
		}
		r.mu.Unlock()
		if v != nil {
			if !bytes.Equal(sig, genuine) {
				t.Fatal("a vote with a bad signature reached the core")
			}
			if n != 1 {
				t.Fatalf("%d votes reached the core, want 1", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("valid frame never reached the core")
		}
		time.Sleep(time.Millisecond)
	}
}
