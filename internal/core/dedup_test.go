package core

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/wire"
)

// --- codec ----------------------------------------------------------------

// TestExecuteItemRefRoundTrip pins the wire format of the three item
// kinds, including the new by-digest reference, and rejects truncated
// references and unknown kinds.
func TestExecuteItemRefRoundTrip(t *testing.T) {
	d := crypto.Hash([]byte("payload"))
	batch := ExecuteBatchMsg{Start: 7, Items: []ExecuteItem{
		{Full: true, Req: WrappedRequest{Req: ClientRequest{Kind: KindWrite, Client: 9, Counter: 3, Op: []byte("op")}, Group: 20}},
		{Ref: true, Digest: d},
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
	if !got.Items[1].Ref || got.Items[1].Digest != d || got.Items[1].Full {
		t.Fatalf("ref item mangled: %+v", got.Items[1])
	}
	if got.Items[2].Full || got.Items[2].Ref || got.Items[2].Client != 9 || got.Items[2].Counter != 4 {
		t.Fatalf("placeholder mangled: %+v", got.Items[2])
	}
	if got.Items[3].Client.Valid() || got.Items[3].Full || got.Items[3].Ref {
		t.Fatalf("no-op slot mangled: %+v", got.Items[3])
	}

	// A truncated reference (digest cut short) must fail decoding, not
	// yield a zero digest.
	var truncated wire.Writer
	truncated.WriteSeq(1)
	truncated.WriteInt(1)
	truncated.WriteU8(2) // itemRef
	truncated.WriteRaw(d[:8])
	var bad ExecuteBatchMsg
	if err := wire.Decode(truncated.Bytes(), &bad); err == nil {
		t.Fatal("truncated reference decoded")
	}

	// An unknown item kind must poison the reader.
	var unknown wire.Writer
	unknown.WriteSeq(1)
	unknown.WriteInt(1)
	unknown.WriteU8(9)
	if err := wire.Decode(unknown.Bytes(), &bad); err == nil {
		t.Fatal("unknown item kind decoded")
	}
}

// TestHistEntryDigestRoundTrip: the per-slot content digests must
// survive the snapshot codec, so checkpoint-adopted batches reference
// the same content every correct sender does.
func TestHistEntryDigestRoundTrip(t *testing.T) {
	he := histEntry{
		Pos:   3,
		Start: 17,
		Reqs: []WrappedRequest{
			{Req: ClientRequest{Kind: KindWrite, Client: 5, Counter: 1, Op: []byte("a")}, Group: 20},
			{}, // no-op slot
		},
		Digests: []crypto.Digest{crypto.Hash([]byte("a-payload")), {}},
	}
	encoded := wire.Encode(&he)
	var got histEntry
	if err := wire.Decode(encoded, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.digest(0) != he.Digests[0] || got.digest(1) != (crypto.Digest{}) {
		t.Fatalf("digests mangled: %+v", got.Digests)
	}
}

// --- payload cache --------------------------------------------------------

func TestPayloadCacheLRU(t *testing.T) {
	c := newPayloadCache(3)
	payloads := make([][]byte, 5)
	digests := make([]crypto.Digest, 5)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%d", i))
		digests[i] = crypto.Hash(payloads[i])
	}
	c.put(digests[0], payloads[0])
	c.put(digests[1], payloads[1])
	c.put(digests[2], payloads[2])
	// Touch 0 so 1 becomes the eviction victim.
	if _, ok := c.get(digests[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	c.put(digests[3], payloads[3])
	if _, ok := c.get(digests[1]); ok {
		t.Fatal("LRU victim survived")
	}
	for _, i := range []int{0, 2, 3} {
		got, ok := c.get(digests[i])
		if !ok || string(got) != string(payloads[i]) {
			t.Fatalf("entry %d lost or corrupted", i)
		}
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	c.drop(digests[2])
	if _, ok := c.get(digests[2]); ok {
		t.Fatal("dropped entry still present")
	}
	// Re-putting an existing digest must not duplicate.
	c.put(digests[0], payloads[0])
	if c.len() != 2 {
		t.Fatalf("len after duplicate put = %d, want 2", c.len())
	}
}

// --- routing + resolution -------------------------------------------------

// TestStrongReadGroupRoutingWithDedup: strong reads issued from
// clients of two different groups must execute at (and be answered by)
// their designated group, arrive as placeholders at the other group,
// and the by-digest references each group receives for the requests it
// forwarded must resolve from its payload cache — no misses, on both
// the designated and the non-designated side of every strong read.
func TestStrongReadGroupRoutingWithDedup(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101, 102)
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

	s := d.commit.Summarize()
	if s.RefsSent == 0 {
		t.Fatal("no by-digest references were sent")
	}
	if s.CacheHits == 0 {
		t.Fatal("no reference resolved from a payload cache")
	}
	// A transient miss is legal (a commit reference can outrun the
	// slowest replica's admission of the client broadcast and resolve
	// on retry), so it is reported rather than asserted zero; a real
	// resolution regression shows up as CacheHits == 0 above.
	if s.CacheMisses != 0 {
		t.Logf("transient cache misses: %d (hits %d)", s.CacheMisses, s.CacheHits)
	}
}

// TestCommitDedupByteSavings is the acceptance measurement: a
// strong-read-heavy workload over two groups must ship at least 30%
// fewer commit-channel payload bytes per request with dedup on than
// with dedup off. ConsensusBatch = 1 pins the batch composition so the
// two runs are comparable, and the RSA suite gives requests the
// paper's RSA-1024 client signatures — the bulk of what a 33-byte
// reference replaces; the expected saving is ~70% (the designated
// group's full strong-read copy collapses to the reference).
func TestCommitDedupByteSavings(t *testing.T) {
	const reads = 12
	run := func(mode DedupMode) (bytesPerReq float64, s CommitSummary) {
		d := newDeploymentSuite(t, 2, testTunables(), 1, mode, crypto.SuiteRSA, nil, 111, 112)
		d.start()
		clientA := d.client(111, d.execGroups[0])
		clientB := d.client(112, d.execGroups[1])
		if _, err := clientA.Write(putOp("seed", "v")); err != nil {
			t.Fatalf("%v seed write: %v", mode, err)
		}
		for i := 0; i < reads; i++ {
			c := clientA
			if i%2 == 1 {
				c = clientB
			}
			if _, err := c.StrongRead(getOp("seed")); err != nil {
				t.Fatalf("%v strong read %d: %v", mode, i, err)
			}
		}
		s = d.commit.Summarize()
		d.stop()
		return float64(s.PayloadBytes) / float64(reads+1), s
	}

	offBytes, offSum := run(DedupOff)
	onBytes, onSum := run(DedupOn)
	t.Logf("dedup off: %.0f B/req (%s)", offBytes, offSum)
	t.Logf("dedup on:  %.0f B/req (%s)", onBytes, onSum)
	if offSum.RefsSent != 0 {
		t.Fatalf("dedup off sent %d references", offSum.RefsSent)
	}
	if onSum.RefsSent == 0 || onSum.CacheHits == 0 {
		t.Fatalf("dedup on: refs=%d hits=%d, want both > 0", onSum.RefsSent, onSum.CacheHits)
	}
	// A transient miss is legal (a commit reference can outrun the
	// slowest replica's RSA admission of the client broadcast and
	// resolve on retry), so misses are reported but not asserted zero;
	// the byte bound below is the acceptance criterion.
	if onBytes > 0.7*offBytes {
		t.Fatalf("dedup saved too little: %.0f B/req on vs %.0f B/req off (need >=30%% fewer)", onBytes, offBytes)
	}
}

// --- fault injection ------------------------------------------------------

// TestByzantineForgedDigestRef: fa faulty agreement senders inject
// commit batches whose items are forged by-digest references (digests
// of content that was never ordered) and truncated reference frames,
// racing the correct replicas for many positions. Neither may reach
// execution or poison a payload cache, and the subchannel must not
// stall — client writes keep completing.
func TestByzantineForgedDigestRef(t *testing.T) {
	d := newDeployment(t, 1, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("before", "x")); err != nil {
		t.Fatalf("write before injection: %v", err)
	}

	// A forged reference: the digest of a fabricated write that was
	// never forwarded or ordered. If any replica applied it, the key
	// "forged" would appear.
	fabricated := WrappedRequest{
		Req:   ClientRequest{Kind: KindWrite, Client: 101, Counter: 999, Op: putOp("forged", "evil")},
		Group: d.execGroups[0].ID,
	}
	forgedRef := ExecuteBatchMsg{Start: 1, Items: []ExecuteItem{
		{Ref: true, Digest: crypto.Hash(wire.Encode(&fabricated))},
	}}
	// A truncated reference frame: item kind 2 with half a digest.
	var truncated wire.Writer
	truncated.WriteSeq(1)
	truncated.WriteInt(1)
	truncated.WriteU8(2)
	truncated.WriteRaw(make([]byte, 8))

	payloads := [][]byte{wire.Encode(&forgedRef), truncated.Bytes()}
	d.forgeCommitSends(4, d.execGroups[0], payloads, 24)

	// The subchannel must keep delivering the correct majority's
	// batches: writes continue to complete and converge.
	for i := 0; i < 12; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("after%02d", i), "v")); err != nil {
			t.Fatalf("write %d during injection: %v", i, err)
		}
	}
	for _, m := range d.execGroups[0].Members {
		if replicaRead(d, d.execGroups[0].ID, m, getOp("forged")).Found {
			t.Fatalf("forged reference executed at replica %v", m)
		}
	}
}

// TestColdCacheReplicaFallsBackToFetch: a replica that never saw the
// client's submissions (here: cut off from the client, as a cold
// replica joining after a checkpoint would be) receives by-digest
// references it cannot resolve. It must fall back to the checkpoint
// Fetch path and still converge — progress never depends on the cache.
func TestColdCacheReplicaFallsBackToFetch(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101)
	d.start()
	group := d.execGroups[0]
	cold := group.Members[2]
	// The cold replica never receives client 101's requests, so its
	// payload cache stays empty for them while commit references for
	// exactly those requests keep arriving.
	d.net.Cut(ids.ClientID(101).Node(), cold, true)

	client := d.client(101, group)
	const writes = 20 // > 2 checkpoint intervals of 8
	for i := 0; i < writes; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if replicaRead(d, group.ID, cold, getOp("k08")).Found {
			if d.commit.CacheMisses.Load() == 0 {
				t.Fatal("cold replica converged without a single cache miss — the scenario did not exercise the fallback")
			}
			return
		}
		// Fresh traffic keeps checkpoints coming for the fetch path.
		if _, err := client.Write(putOp("tick", "x")); err != nil {
			t.Fatalf("tick write: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("cold-cache replica never converged via the Fetch fallback")
}
