package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/storage"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// --- codec ----------------------------------------------------------------

// TestExecuteItemRefRoundTrip pins the wire format of the item kinds —
// full, placeholder and no-op — and rejects unknown kinds, including
// the retired by-digest reference kind 2.
func TestExecuteItemRefRoundTrip(t *testing.T) {
	batch := ExecuteBatchMsg{Start: 7, Items: []ExecuteItem{
		{Full: true, Req: WrappedRequest{Req: ClientRequest{Kind: KindWrite, Client: 9, Counter: 3, Op: []byte("op")}, Group: 20}},
		{Client: 9, Counter: 4}, // placeholder
		{},                      // no-op
	}}
	encoded := wire.Encode(&batch)

	var got ExecuteBatchMsg
	if err := wire.Decode(encoded, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Items[0].Full || got.Items[0].Req.Req.Client != 9 {
		t.Fatalf("full item mangled: %+v", got.Items[0])
	}
	if got.Items[1].Full || got.Items[1].Client != 9 || got.Items[1].Counter != 4 {
		t.Fatalf("placeholder mangled: %+v", got.Items[1])
	}
	if got.Items[2].Client.Valid() || got.Items[2].Full {
		t.Fatalf("no-op slot mangled: %+v", got.Items[2])
	}

	// An unknown item kind must poison the reader, and so must kind 2,
	// even when it is followed by a well-formed 32-byte digest.
	for _, kind := range []byte{2, 9} {
		var w wire.Writer
		w.WriteSeq(1)
		w.WriteInt(1)
		w.WriteU8(kind)
		w.WriteRaw(make([]byte, crypto.DigestSize))
		var bad ExecuteBatchMsg
		if err := wire.Decode(w.Bytes(), &bad); err == nil {
			t.Fatalf("item kind %d decoded", kind)
		}
	}
}

// encodeLegacyAgreementSnapshot encodes s the way builds with
// commit-channel dedup did: every history request followed by its
// 32-byte content digest.
func encodeLegacyAgreementSnapshot(s *agreementSnapshot) []byte {
	var w wire.Writer
	w.WriteSeq(s.Seq)
	w.WritePos(s.NextPos)
	clients := make([]ids.ClientID, 0, len(s.T))
	for c := range s.T {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	w.WriteInt(len(clients))
	for _, c := range clients {
		w.WriteClient(c)
		w.WriteUint64(s.T[c])
	}
	w.WriteInt(len(s.Hist))
	for i := range s.Hist {
		w.WriteRaw(encodeLegacyHistEntry(&s.Hist[i]))
	}
	info := RegistryInfo{Entries: s.Groups}
	w.WriteMessage(&info)
	return w.Bytes()
}

func encodeLegacyHistEntry(he *histEntry) []byte {
	var w wire.Writer
	w.WritePos(he.Pos)
	w.WriteSeq(he.Start)
	w.WriteInt(len(he.Reqs))
	for i := range he.Reqs {
		he.Reqs[i].MarshalWire(&w)
		d := crypto.Hash(wire.Encode(&he.Reqs[i]))
		w.WriteRaw(d[:])
	}
	return w.Bytes()
}

// TestLegacyAgreementStateStartsCold: an agreement StateDir written
// when history entries still carried per-request digests must not
// rehydrate into garbage. Its checkpoint fails to decode, so the
// replica starts cold and the checkpoint Fetch path repairs it; a
// suffix written in that format stops replay at its first request. The
// same state in the current format restores warm.
func TestLegacyAgreementStateStartsCold(t *testing.T) {
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	exec := ids.Group{ID: 20, Members: []ids.NodeID{21, 22, 23}, F: 1}
	write := func(client ids.ClientID, counter uint64) WrappedRequest {
		return WrappedRequest{Req: ClientRequest{Kind: KindWrite, Client: client, Counter: counter, Op: putOp("k", "v")}, Group: exec.ID}
	}
	snap := agreementSnapshot{
		Seq:     16,
		NextPos: 3,
		T:       map[ids.ClientID]uint64{101: 8},
		Hist:    []histEntry{{Pos: 2, Start: 9, Reqs: []WrappedRequest{write(101, 7), write(101, 8)}}},
		Groups:  []GroupEntry{{Group: exec, Region: "v"}},
	}
	next := histEntry{Pos: 3, Start: 17, Reqs: []WrappedRequest{write(101, 9)}}
	first := histEntry{Pos: 1, Start: 1, Reqs: []WrappedRequest{write(101, 1)}}

	// rehydrated restores a replica from a store holding state as its
	// checkpoint (none when nil) and suffix as its log record at pos.
	rehydrated := func(state []byte, pos ids.Position, suffix []byte) (ids.SeqNr, ids.Position) {
		dir := t.TempDir()
		st, err := storage.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if state != nil {
			st.SaveCheckpoint(uint64(snap.Seq), state)
		}
		st.Append(uint64(pos), suffix)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = storage.Open(dir); err != nil {
			t.Fatal(err)
		}
		net := memnet.New(memnet.Options{})
		defer net.Close()
		suites := crypto.NewSuites(append(append([]ids.NodeID{}, group.Members...), exec.Members...), crypto.SuiteInsecure)
		a, err := NewAgreementReplica(AgreementConfig{
			Group:      group,
			ExecGroups: []GroupEntry{{Group: exec, Region: "v"}},
			Suite:      suites[1],
			Node:       net.Node(1),
			Store:      st,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Stop()
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.sn, a.lastPos
	}

	if sn, last := rehydrated(wire.Encode(&snap), next.Pos, wire.Encode(&next)); sn != 17 || last != 3 {
		t.Fatalf("current checkpoint restored sn=%d lastPos=%d, want 17 and 3", sn, last)
	}
	if sn, last := rehydrated(nil, first.Pos, wire.Encode(&first)); sn != 1 || last != 1 {
		t.Fatalf("current suffix restored sn=%d lastPos=%d, want 1 and 1", sn, last)
	}
	if sn, last := rehydrated(encodeLegacyAgreementSnapshot(&snap), next.Pos, encodeLegacyHistEntry(&next)); sn != 0 || last != 0 {
		t.Fatalf("legacy checkpoint restored sn=%d lastPos=%d, want a cold start", sn, last)
	}
	if sn, last := rehydrated(nil, first.Pos, encodeLegacyHistEntry(&first)); sn != 0 || last != 0 {
		t.Fatalf("legacy suffix restored sn=%d lastPos=%d, want a cold start", sn, last)
	}
}

// --- routing --------------------------------------------------------------

// TestStrongReadGroupRouting: strong reads issued from clients of two
// different groups must execute at (and be answered by) their
// designated group and arrive as placeholders at the other group.
func TestStrongReadGroupRouting(t *testing.T) {
	d := newDeployment(t, 2, nil, 101, 102)
	d.start()
	groupA, groupB := d.execGroups[0], d.execGroups[1]
	clientA := d.client(101, groupA)
	clientB := d.client(102, groupB)

	if _, err := clientA.Write(putOp("ka", "va")); err != nil {
		t.Fatalf("write A: %v", err)
	}
	if _, err := clientB.Write(putOp("kb", "vb")); err != nil {
		t.Fatalf("write B: %v", err)
	}
	got, err := clientA.StrongRead(getOp("kb"))
	if err != nil {
		t.Fatalf("strong read A: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || string(r.Value) != "vb" {
		t.Fatalf("strong read A result: %+v", r)
	}
	got, err = clientB.StrongRead(getOp("ka"))
	if err != nil {
		t.Fatalf("strong read B: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || string(r.Value) != "va" {
		t.Fatalf("strong read B result: %+v", r)
	}

	// Client A's strong read (counter 2) is designated to group A: the
	// non-designated group B must hold a placeholder for it, never the
	// result. The placeholder propagates asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cached replyCacheEntry
		var ok bool
		for _, er := range d.execution[groupB.ID] {
			er.mu.Lock()
			cached, ok = er.replies[101]
			er.mu.Unlock()
			if ok {
				break
			}
		}
		if ok && cached.Counter == 2 {
			if !cached.Placeholder {
				t.Fatalf("non-designated group stored a result for the strong read: %+v", cached)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("placeholder for client 101 never reached group B (last: %+v ok=%v)", cached, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- fault injection ------------------------------------------------------

// TestByzantineForgedDigestRef: fa faulty agreement senders inject
// commit batches carrying forged full-content writes (content that was
// never ordered) and frames with the retired by-digest item kind 2,
// racing the correct replicas for many positions. Neither may reach
// execution, and the subchannel must not stall — client writes keep
// completing.
func TestByzantineForgedDigestRef(t *testing.T) {
	d := newDeployment(t, 1, nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("before", "x")); err != nil {
		t.Fatalf("write before injection: %v", err)
	}

	// A forged batch: a fabricated write that was never forwarded or
	// ordered. If any replica applied it, the key "forged" would
	// appear.
	fabricated := WrappedRequest{
		Req:   ClientRequest{Kind: KindWrite, Client: 101, Counter: 999, Op: putOp("forged", "evil")},
		Group: d.execGroups[0].ID,
	}
	forged := ExecuteBatchMsg{Start: 1, Items: []ExecuteItem{{Full: true, Req: fabricated}}}
	// A kind-2 frame: the retired by-digest reference, whole digest.
	var ref wire.Writer
	ref.WriteSeq(1)
	ref.WriteInt(1)
	ref.WriteU8(2)
	digest := crypto.Hash(wire.Encode(&fabricated))
	ref.WriteRaw(digest[:])

	payloads := [][]byte{wire.Encode(&forged), ref.Bytes()}
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

// TestCutOffReplicaConvergesWithoutFetch: a replica cut off from the
// client never receives its requests on the forward path, only through
// the commit channel. Every Execute carries its request in full, so the
// replica applies each batch as it arrives and converges without a
// single full-state fetch, with no later traffic to help it.
//
// The writes stay below one execution checkpoint interval, so no
// checkpoint exists: the commit channel is the replica's only way to
// converge. (A checkpoint that turns stable while a replica is a batch
// behind its peers makes that replica fetch, whatever it executes.)
func TestCutOffReplicaConvergesWithoutFetch(t *testing.T) {
	d := newDeployment(t, 2, nil, 101)
	d.start()
	group := d.execGroups[0]
	cut := group.Members[2]
	d.net.Cut(ids.ClientID(101).Node(), cut, true)

	client := d.client(101, group)
	writes := executionCheckpointInterval - 1
	for i := 0; i < writes; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	last := getOp(fmt.Sprintf("k%02d", writes-1))
	deadline := time.Now().Add(15 * time.Second)
	for !replicaRead(d, group.ID, cut, last).Found {
		if time.Now().After(deadline) {
			t.Fatal("cut-off replica never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, er := range d.execution[group.ID] {
		if er.me == cut {
			if n := er.FetchCalls(); n != 0 {
				t.Fatalf("cut-off replica issued %d full-state fetches, want 0", n)
			}
		}
	}
}
