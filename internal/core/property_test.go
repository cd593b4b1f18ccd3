package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/ids"
	"spider/internal/wire"
)

// TestQuickClientRequestRoundTrip: every client request survives the
// codec byte for byte (signatures are computed over these bytes).
func TestQuickClientRequestRoundTrip(t *testing.T) {
	f := func(kind uint8, client int32, counter uint64, op, sig []byte) bool {
		in := ClientRequest{
			Kind:    RequestKind(kind),
			Client:  ids.ClientID(client),
			Counter: counter,
			Op:      op,
			Sig:     sig,
		}
		var out ClientRequest
		if err := wire.Decode(wire.Encode(&in), &out); err != nil {
			return false
		}
		return bytes.Equal(wire.Encode(&in), wire.Encode(&out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExecuteBatchRoundTrip covers full, placeholder and no-op
// item variants of the commit-channel batch payload.
func TestQuickExecuteBatchRoundTrip(t *testing.T) {
	f := func(start uint64, fulls []bool, client int32, counter uint64, op []byte, group int32) bool {
		in := ExecuteBatchMsg{Start: ids.SeqNr(start)}
		for i, full := range fulls {
			item := ExecuteItem{Full: full}
			if full {
				item.Req = WrappedRequest{
					Req:   ClientRequest{Kind: KindWrite, Client: ids.ClientID(client) + ids.ClientID(i), Counter: counter, Op: op},
					Group: ids.GroupID(group),
				}
			} else if i%2 == 0 {
				item.Client = ids.ClientID(client)
				item.Counter = counter
			} // odd non-full slots stay no-ops
			in.Items = append(in.Items, item)
		}
		var out ExecuteBatchMsg
		if err := wire.Decode(wire.Encode(&in), &out); err != nil {
			return false
		}
		return bytes.Equal(wire.Encode(&in), wire.Encode(&out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBatchRejected: a length-corrupted batch claiming more
// than MaxBatchItems items must fail decoding instead of yielding an
// empty batch or a huge allocation.
func TestOversizedBatchRejected(t *testing.T) {
	var w wire.Writer
	w.WriteSeq(7)
	w.WriteInt(MaxBatchItems + 1)
	var out ExecuteBatchMsg
	if err := wire.Decode(w.Bytes(), &out); err == nil {
		t.Fatal("oversized batch decoded successfully")
	}
	var he histEntry
	var w2 wire.Writer
	w2.WritePos(3)
	w2.WriteSeq(7)
	w2.WriteInt(MaxBatchItems + 1)
	if err := wire.Decode(w2.Bytes(), &he); err == nil {
		t.Fatal("oversized hist entry decoded successfully")
	}
}

// TestQuickSnapshotDeterminism: snapshots are canonical — two
// snapshots of equal state encode identically regardless of map
// insertion order (checkpoint hashes depend on this).
func TestQuickSnapshotDeterminism(t *testing.T) {
	f := func(clients []int32, counters []uint64) bool {
		a := execSnapshot{Seq: 5, Replies: map[ids.ClientID]replyCacheEntry{}, App: []byte("app")}
		b := execSnapshot{Seq: 5, Replies: map[ids.ClientID]replyCacheEntry{}, App: []byte("app")}
		n := len(clients)
		if len(counters) < n {
			n = len(counters)
		}
		for i := 0; i < n; i++ {
			e := replyCacheEntry{Counter: counters[i], Result: []byte{byte(i)}}
			a.Replies[ids.ClientID(clients[i])] = e
		}
		// Populate b in reverse order.
		for i := n - 1; i >= 0; i-- {
			e := replyCacheEntry{Counter: counters[i], Result: []byte{byte(i)}}
			b.Replies[ids.ClientID(clients[i])] = e
		}
		return bytes.Equal(wire.Encode(&a), wire.Encode(&b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAgreementSnapshotRoundTrip(t *testing.T) {
	in := agreementSnapshot{
		Seq:     42,
		NextPos: 12,
		T:       map[ids.ClientID]uint64{3: 9, 1: 7},
		Hist: []histEntry{{
			Pos:   11,
			Start: 41,
			Reqs: []WrappedRequest{
				{Req: ClientRequest{Kind: KindWrite, Client: 3, Counter: 9, Op: []byte("x")}, Group: 10},
				{Req: ClientRequest{Kind: KindWrite, Client: 1, Counter: 7, Op: []byte("y")}, Group: 10},
			},
		}},
		Groups: []GroupEntry{{Group: ids.Group{ID: 10, Members: []ids.NodeID{11, 12, 13}, F: 1}, Region: "v"}},
	}
	var out agreementSnapshot
	if err := wire.Decode(wire.Encode(&in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 42 || out.NextPos != 12 || out.T[3] != 9 || len(out.Hist) != 1 || len(out.Groups) != 1 {
		t.Fatalf("round trip = %+v", out)
	}
	if out.Hist[0].Pos != 11 || out.Hist[0].Start != 41 || len(out.Hist[0].Reqs) != 2 || out.Hist[0].end() != 42 {
		t.Fatalf("hist round trip = %+v", out.Hist[0])
	}
	if out.Groups[0].Group.ID != 10 || out.Groups[0].Region != "v" {
		t.Fatalf("groups = %+v", out.Groups)
	}
}

// TestLivenessUnderMessageLoss injects 20% loss on every WAN-ish link
// between the execution group and the agreement group; retries and
// checkpointing must still complete every write (the paper's partial
// synchrony assumption plus reliable-channel emulation by retry).
func TestLivenessUnderMessageLoss(t *testing.T) {
	d := newDeployment(t, 1, nil, 101)
	// 20% drops in both directions between exec and agreement nodes.
	for _, e := range d.execGroups[0].Members {
		for _, a := range d.agGroup.Members {
			d.net.SetDropRate(e, a, 0.2)
			d.net.SetDropRate(a, e, 0.2)
		}
	}
	d.start()
	client := d.client(101, d.execGroups[0])
	client.cfg.Retry = 200 * time.Millisecond

	for i := 0; i < 6; i++ {
		if _, err := client.Write(incOp("lossy", 1)); err != nil {
			t.Fatalf("write %d under loss: %v", i, err)
		}
	}
	res, err := client.WeakRead(getOp("lossy"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if got := decodeResult(t, res); got.Counter != 6 {
		t.Fatalf("counter = %d, want 6 (lost or duplicated execution)", got.Counter)
	}
}

// TestStrongReadPlaceholders checks Lemma A.35's mechanics: the
// non-designated group stores a placeholder (counter only) for a
// strong read, and a later write from the same client still executes.
func TestStrongReadPlaceholders(t *testing.T) {
	d := newDeployment(t, 2, nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("k", "v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := client.StrongRead(getOp("k")); err != nil {
		t.Fatalf("strong read: %v", err)
	}
	// The write after the read must execute at BOTH groups even
	// though group 2 only saw a placeholder for the read's counter.
	if _, err := client.Write(putOp("k", "v2")); err != nil {
		t.Fatalf("write after read: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, g := range d.execGroups {
			for _, m := range g.Members {
				res := replicaRead(d, g.ID, m, getOp("k"))
				if !res.Found || string(res.Value) != "v2" {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("write after strong read did not reach all groups")
}

// TestPerKeyLinearizability is a history checker: several clients
// concurrently increment a handful of counter keys, and the recorded
// histories must be per-key linearizable. OpInc returns the
// post-increment value, so linearizability of a key is exactly: (1)
// across all clients, the returned counters for that key form the set
// {1..N} with no gaps or duplicates; (2) each client observes its own
// operations on the key in strictly increasing order (session order);
// (3) every replica of the execution group converges to N.
func TestPerKeyLinearizability(t *testing.T) {
	const (
		numClients = 3
		opsPer     = 24 // together past AG-WIN
	)
	d := newDeployment(t, 1, nil, 101, 102, 103)
	d.start()
	keys := []string{"lin-a0", "lin-b0", "lin-a1", "lin-b1"}

	type obs struct {
		client  int
		key     string
		counter int64
	}
	var (
		mu      sync.Mutex
		history []obs
	)
	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client := d.client(ids.ClientID(101+ci), d.execGroups[0])
			for i := 0; i < opsPer; i++ {
				key := keys[(ci+i)%len(keys)]
				res, err := client.Write(incOp(key, 1))
				if err != nil {
					errs <- fmt.Errorf("client %d inc %d: %w", ci, i, err)
					return
				}
				r := decodeResult(t, res)
				mu.Lock()
				history = append(history, obs{client: ci, key: key, counter: r.Counter})
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// (1) + (2): per-key counter sets are dense and session order holds.
	perKey := make(map[string][]int64)
	perClientKey := make(map[string]int64) // "client/key" -> last counter
	for _, o := range history {
		perKey[o.key] = append(perKey[o.key], o.counter)
		ck := fmt.Sprintf("%d/%s", o.client, o.key)
		if last, ok := perClientKey[ck]; ok && o.counter <= last {
			t.Fatalf("client %d saw key %q counters out of session order: %d after %d",
				o.client, o.key, o.counter, last)
		}
		perClientKey[ck] = o.counter
	}
	for key, counters := range perKey {
		sorted := append([]int64(nil), counters...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, c := range sorted {
			if c != int64(i+1) {
				t.Fatalf("key %q counters not the dense set 1..%d: %v (duplicate or lost increment)",
					key, len(sorted), sorted)
			}
		}
	}

	// (3): every replica converges to each key's total count.
	deadline := time.Now().Add(10 * time.Second)
	g := d.execGroups[0]
	for key, counters := range perKey {
		want := int64(len(counters))
		for _, member := range g.Members {
			for {
				if replicaRead(d, g.ID, member, getOp(key)).Counter == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("key %q: replica %v never converged to %d", key, member, want)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
}

// TestClientSwitchGroup: a client whose group becomes unavailable
// switches to another execution group and continues (Section 3.1).
func TestClientSwitchGroup(t *testing.T) {
	d := newDeployment(t, 2, nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("k", "v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Take the entire first group down.
	for _, m := range d.execGroups[0].Members {
		d.net.Isolate(m, true)
	}
	client.SwitchGroup(d.execGroups[1])
	if got := client.Group().ID; got != d.execGroups[1].ID {
		t.Fatalf("group after switch = %v", got)
	}
	if _, err := client.Write(putOp("k2", "v2")); err != nil {
		t.Fatalf("write via second group: %v", err)
	}
	res, err := client.WeakRead(getOp("k"))
	if err != nil {
		t.Fatalf("weak read via second group: %v", err)
	}
	if got := decodeResult(t, res); !got.Found {
		t.Fatal("state not visible via second group")
	}
}
