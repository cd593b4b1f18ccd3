package core

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/rc"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// TestBatchApplicationPreservesClientOrder drives a multi-request
// ExecuteBatchMsg through a real commit channel into a standalone
// execution replica (the agreement group is emulated by fa+1 channel
// senders) and checks that one client's requests inside the batch
// apply in counter order: the final app state and reply cache must
// reflect the LAST request, with every increment applied exactly once.
func TestBatchApplicationPreservesClientOrder(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	agGroup := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	execGroup := ids.Group{ID: 20, Members: []ids.NodeID{21, 22, 23}, F: 1}
	all := append(append([]ids.NodeID{}, agGroup.Members...), execGroup.Members...)
	all = append(all, 101)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)

	kv := app.NewKVStore()
	er, err := NewExecutionReplica(ExecutionConfig{
		Group:          execGroup,
		AgreementGroup: agGroup,
		Suite:          suites[21],
		Node:           net.Node(21),
		App:            kv,
	})
	if err != nil {
		t.Fatal(err)
	}
	er.Start()
	t.Cleanup(er.Stop)

	// One batch: three increments from client 101, counters 1..3, plus
	// a no-op slot and a foreign-group strong-read placeholder.
	const n = 3
	items := make([]ExecuteItem, 0, n+2)
	for c := uint64(1); c <= n; c++ {
		req := ClientRequest{Kind: KindWrite, Client: 101, Counter: c, Op: incOp("ctr", 1)}
		items = append(items, ExecuteItem{Full: true, Req: WrappedRequest{Req: req, Group: 99}})
	}
	items = append(items, ExecuteItem{}) // no-op slot
	items = append(items, ExecuteItem{Client: 101, Counter: n + 1})
	batch := ExecuteBatchMsg{Start: 1, Items: items}
	payload := wire.Encode(&batch)

	// fa+1 = 2 agreement senders submit the identical batch at
	// position 1; the channel resolves and the replica applies it.
	for _, sender := range agGroup.Members[:agGroup.F+1] {
		s, err := rc.NewSender(irmc.Config{
			Senders:   agGroup,
			Receivers: execGroup,
			Capacity:  commitChannelCapacity,
			Suite:     suites[sender],
			Node:      net.Node(sender),
			Stream:    commitStream(execGroup.ID),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Send(0, 1, payload); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if er.Seq() >= ids.SeqNr(n+2) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := er.Seq(); got != ids.SeqNr(n+2) {
		t.Fatalf("Seq = %d, want %d (batch not fully applied)", got, n+2)
	}

	er.Inspect(func(a Application) {
		res, err := app.DecodeResult(a.ExecuteRead(getOp("ctr")))
		if err != nil || res.Counter != n {
			t.Fatalf("ctr = %+v err=%v, want counter %d (order or at-most-once violated)", res, err, n)
		}
	})
	er.mu.Lock()
	cached := er.replies[101]
	pos := er.pos
	er.mu.Unlock()
	// The placeholder (counter n+1) supersedes the last write in the
	// dedup cache — exactly the per-client order of the batch.
	if cached.Counter != n+1 || !cached.Placeholder {
		t.Fatalf("reply cache = %+v, want placeholder at counter %d", cached, n+1)
	}
	if pos != 2 {
		t.Fatalf("next position = %d, want 2 (one batch, one position)", pos)
	}
}

// TestByzantineMalformedBatchRejected: fa faulty agreement senders
// inject malformed and oversized ExecuteBatchMsg payloads into a live
// deployment's commit channel, racing the correct replicas for many
// positions. The garbage must never reach execution and must not stall
// the subchannel — client writes keep completing.
func TestByzantineMalformedBatchRejected(t *testing.T) {
	d := newDeployment(t, 1, nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("before", "x")); err != nil {
		t.Fatalf("write before injection: %v", err)
	}

	// Node 4 is a legitimate agreement-group sender identity (fa = 1),
	// here acting Byzantine: garbage batches, an oversized item-count
	// claim, and a decodable batch carrying a fabricated write.
	var oversized wire.Writer
	oversized.WriteSeq(1)
	oversized.WriteInt(MaxBatchItems + 1)
	forged := ExecuteBatchMsg{Start: 1, Items: []ExecuteItem{{
		Full: true,
		Req: WrappedRequest{
			Req:   ClientRequest{Kind: KindWrite, Client: 101, Counter: 999, Op: putOp("forged", "evil")},
			Group: d.execGroups[0].ID,
		},
	}}}
	payloads := [][]byte{
		[]byte("not a batch at all"),
		oversized.Bytes(),
		wire.Encode(&forged),
	}
	d.forgeCommitSends(4, d.execGroups[0], payloads, commitChannelCapacity*3/2)

	// The subchannel must keep delivering the correct majority's
	// batches past an execution checkpoint: writes continue to complete
	// and converge.
	for i := 0; i < executionCheckpointInterval+8; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("after%02d", i), "v")); err != nil {
			t.Fatalf("write %d during injection: %v", i, err)
		}
	}
	for _, m := range d.execGroups[0].Members {
		if replicaRead(d, d.execGroups[0].ID, m, getOp("forged")).Found {
			t.Fatalf("forged batch executed at replica %v", m)
		}
	}
}

// TestBatchStraddlingWindowDoesNotDeadlock: a batch whose first
// sequence number lies inside the window and whose end lies beyond
// winHi, crossing a ka boundary on the way, must still deliver —
// pacing gates on the batch's first sequence number, because gating on
// its end would block before the very checkpoint that advances the
// window is generated (regression for the batched-delivery deadlock).
// The replica's peers never run, so no checkpoint turns stable and
// winHi stays at AG-WIN throughout.
func TestBatchStraddlingWindowDoesNotDeadlock(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	agGroup := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	suites := crypto.NewSuites(agGroup.Members, crypto.SuiteInsecure)
	ar, err := NewAgreementReplica(AgreementConfig{
		Group: agGroup,
		Suite: suites[1],
		Node:  net.Node(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ar.Stop)

	payloads := func(n int, from uint64) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			req := WrappedRequest{Req: ClientRequest{Kind: KindWrite, Client: 7, Counter: from + uint64(i), Op: []byte("x")}, Group: 10}
			out[i] = wire.Encode(&req)
		}
		return out
	}
	// Full batches fill the window up to a few sequence numbers short
	// of winHi; the last batch starts inside the window, ends beyond
	// it and crosses the ka boundary at AG-WIN.
	const straddle = agreementWindow - consensusBatch/2 + 1
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := uint64(1)
		for start := uint64(1); start < straddle; start += consensusBatch {
			n := min(consensusBatch, int(straddle-start))
			ar.deliver(consensus.Batch{Seq: seq, Start: ids.SeqNr(start), Payloads: payloads(n, start)})
			seq++
		}
		ar.deliver(consensus.Batch{Seq: seq, Start: straddle, Payloads: payloads(consensusBatch, straddle)})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery deadlocked on a window-straddling batch")
	}
	if got, want := ar.Seq(), ids.SeqNr(straddle+consensusBatch-1); got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
}

// TestUndecodablePayloadCounted: an ordered payload that fails to
// decode must be counted (and the batch's other requests unaffected)
// instead of being silently swallowed.
func TestUndecodablePayloadCounted(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	agGroup := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	suites := crypto.NewSuites(agGroup.Members, crypto.SuiteInsecure)
	ar, err := NewAgreementReplica(AgreementConfig{
		Group: agGroup,
		Suite: suites[1],
		Node:  net.Node(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ar.Stop)

	good := WrappedRequest{Req: ClientRequest{Kind: KindWrite, Client: 7, Counter: 1, Op: []byte("op")}, Group: 10}
	ar.deliver(consensus.Batch{Seq: 1, Start: 1, Payloads: [][]byte{
		[]byte("\xff\xfe garbage that is not a WrappedRequest"),
		wire.Encode(&good),
	}})
	if got := ar.UndecodablePayloads(); got != 1 {
		t.Fatalf("UndecodablePayloads = %d, want 1", got)
	}
	if got := ar.Seq(); got != 2 {
		t.Fatalf("Seq = %d, want 2 (good request must still be processed)", got)
	}
	ar.mu.Lock()
	he, ok := ar.hist[1]
	ar.mu.Unlock()
	if !ok || len(he.Reqs) != 2 || he.Reqs[0].Req.Client.Valid() || he.Reqs[1].Req.Client != 7 {
		t.Fatalf("hist entry = %+v ok=%v, want no-op slot then client 7", he, ok)
	}

	// A second corruption storm later must still be counted — the old
	// sync.Once logging is gone, the counter stays exact (log lines are
	// rate-limited by the gate, at most one per interval).
	ar.deliver(consensus.Batch{Seq: 2, Start: 3, Payloads: [][]byte{
		[]byte("\x01 second storm, also not a WrappedRequest"),
	}})
	if got := ar.UndecodablePayloads(); got != 2 {
		t.Fatalf("UndecodablePayloads after second storm = %d, want 2", got)
	}
}
