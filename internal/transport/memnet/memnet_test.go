package memnet

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport"
)

var testStream = transport.MakeStream(transport.KindBench, 1)

func TestDelivery(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	got := make(chan string, 1)
	net.Node(2).Handle(testStream, func(from ids.NodeID, payload []byte) {
		if from != 1 {
			t.Errorf("from = %v", from)
		}
		got <- string(payload)
	})
	net.Node(1).Send(2, testStream, []byte("ping"))

	select {
	case msg := <-got:
		if msg != "ping" {
			t.Errorf("payload = %q", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("frame not delivered")
	}
}

func TestFIFOOrder(t *testing.T) {
	net := New(Options{JitterFrac: 0.5, Seed: 42})
	defer net.Close()

	const count = 200
	var mu sync.Mutex
	var seen []int
	done := make(chan struct{})
	net.Node(2).Handle(testStream, func(_ ids.NodeID, payload []byte) {
		mu.Lock()
		seen = append(seen, int(payload[0])<<8|int(payload[1]))
		if len(seen) == count {
			close(done)
		}
		mu.Unlock()
	})
	n1 := net.Node(1)
	for i := 0; i < count; i++ {
		n1.Send(2, testStream, []byte{byte(i >> 8), byte(i)})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frames not delivered")
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("frame %d arrived at position %d", v, i)
		}
	}
}

func TestLatency(t *testing.T) {
	p := topo.NewPlacement(1.0)
	p.Place(1, topo.Site{Region: topo.Virginia})
	p.Place(2, topo.Site{Region: topo.Tokyo})
	net := New(Options{Placement: p})
	defer net.Close()

	got := make(chan time.Duration, 1)
	start := time.Now()
	net.Node(2).Handle(testStream, func(ids.NodeID, []byte) {
		got <- time.Since(start)
	})
	net.Node(1).Send(2, testStream, []byte("x"))

	select {
	case d := <-got:
		// one-way Virginia->Tokyo is 81ms
		if d < 75*time.Millisecond || d > 200*time.Millisecond {
			t.Errorf("delivery took %v, want ~81ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame not delivered")
	}
}

func TestHandleBeforeSendBuffering(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	// Send before any handler is registered; the frame must be
	// buffered and delivered upon registration.
	net.Node(1).Send(2, testStream, []byte("early"))
	time.Sleep(20 * time.Millisecond)

	got := make(chan string, 1)
	net.Node(2).Handle(testStream, func(_ ids.NodeID, payload []byte) {
		got <- string(payload)
	})
	select {
	case msg := <-got:
		if msg != "early" {
			t.Errorf("payload = %q", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("buffered frame not delivered")
	}

	// Frames past the backlog's limit are dropped, and each drop shows
	// in Stats().Dropped: what the handler sees plus what was dropped
	// is what was sent. (transport's Mux tests the limit itself.)
	const sent = 10000
	for i := 0; i < sent; i++ {
		net.Node(3).Send(4, testStream, binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for net.Stats().Dropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var delivered atomic.Int64
	last := int64(-1)
	net.Node(4).Handle(testStream, func(_ ids.NodeID, payload []byte) {
		i := int64(binary.BigEndian.Uint32(payload))
		if i <= last {
			t.Errorf("frame %d delivered after frame %d", i, last)
		}
		last = i
		delivered.Add(1)
	})
	for delivered.Load()+net.Stats().Dropped < sent && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := net.Stats().Dropped; d == 0 || delivered.Load()+d != sent {
		t.Fatalf("delivered %d, Dropped = %d, sent %d", delivered.Load(), d, sent)
	}
}

// TestFIFOAcrossRegistration registers a handler while frames are
// buffered for it and the same sender keeps sending: the replayed
// frames and those arriving during the replay must reach the handler
// in send order, one call at a time.
func TestFIFOAcrossRegistration(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	const buffered, total = 2000, 4000
	send := func(from, to int) {
		for i := from; i < to; i++ {
			net.Node(1).Send(2, testStream, binary.BigEndian.AppendUint32(nil, uint32(i)))
		}
	}
	send(0, buffered)
	time.Sleep(20 * time.Millisecond) // let the link buffer them at node 2

	// The first replayed frame starts the sender again and holds the
	// replay until a newer frame reaches the handler or 200 ms pass; a
	// newer frame must not reach it before the replay is done.
	replaying, overtaken := make(chan struct{}), make(chan struct{})
	go func() {
		<-replaying
		send(buffered, total)
	}()
	var inside, overlaps, disorder, got atomic.Int64
	var last atomic.Int64
	last.Store(-1)
	done := make(chan struct{})
	net.Node(2).Handle(testStream, func(_ ids.NodeID, payload []byte) {
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		i := int64(binary.BigEndian.Uint32(payload))
		switch i {
		case 0:
			close(replaying)
			select {
			case <-overtaken:
			case <-time.After(200 * time.Millisecond):
			}
		case buffered:
			close(overtaken)
		}
		if i <= last.Swap(i) {
			disorder.Add(1)
		}
		inside.Add(-1)
		if got.Add(1) == total {
			close(done)
		}
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d of %d frames", got.Load(), total)
	}
	if o, d := overlaps.Load(), disorder.Load(); o != 0 || d != 0 {
		t.Fatalf("%d out-of-order frames, %d overlapping handler calls", d, o)
	}
}

func TestIsolate(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	var count atomic.Int32
	net.Node(2).Handle(testStream, func(ids.NodeID, []byte) { count.Add(1) })

	net.Isolate(2, true)
	net.Node(1).Send(2, testStream, []byte("lost"))
	time.Sleep(30 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("isolated node received a frame")
	}

	net.Isolate(2, false)
	net.Node(1).Send(2, testStream, []byte("found"))
	deadline := time.Now().Add(time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if count.Load() != 1 {
		t.Fatal("frame after un-isolation not delivered")
	}
	if net.Stats().Dropped == 0 {
		t.Error("drop not counted")
	}
}

func TestCut(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	var count atomic.Int32
	net.Node(2).Handle(testStream, func(ids.NodeID, []byte) { count.Add(1) })
	net.Cut(1, 2, true)
	net.Node(1).Send(2, testStream, []byte("lost"))
	time.Sleep(30 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("cut link delivered a frame")
	}
	// Other links remain usable.
	net.Node(3).Send(2, testStream, []byte("ok"))
	deadline := time.Now().Add(time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if count.Load() != 1 {
		t.Fatal("unrelated link affected by cut")
	}
}

func TestDropRate(t *testing.T) {
	net := New(Options{Seed: 7})
	defer net.Close()

	var count atomic.Int32
	net.Node(2).Handle(testStream, func(ids.NodeID, []byte) { count.Add(1) })
	net.SetDropRate(1, 2, 1.0)
	for i := 0; i < 10; i++ {
		net.Node(1).Send(2, testStream, []byte("x"))
	}
	time.Sleep(30 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatalf("%d frames got through a 100%% drop link", count.Load())
	}
	net.SetDropRate(1, 2, 0)
	net.Node(1).Send(2, testStream, []byte("x"))
	deadline := time.Now().Add(time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if count.Load() != 1 {
		t.Fatal("frame dropped after rate reset")
	}
}

func TestStatsClassification(t *testing.T) {
	p := topo.NewPlacement(0.001) // tiny scale so the test is fast
	p.Place(1, topo.Site{Region: topo.Virginia, Zone: 0})
	p.Place(2, topo.Site{Region: topo.Virginia, Zone: 1})
	p.Place(3, topo.Site{Region: topo.Tokyo, Zone: 0})
	net := New(Options{Placement: p})
	defer net.Close()

	var wg sync.WaitGroup
	wg.Add(3)
	handler := func(ids.NodeID, []byte) { wg.Done() }
	net.Node(1).Handle(testStream, handler)
	net.Node(2).Handle(testStream, handler)
	net.Node(3).Handle(testStream, handler)

	payload := make([]byte, 100)
	net.Node(1).Send(1, testStream, payload) // local
	net.Node(1).Send(2, testStream, payload) // LAN
	net.Node(1).Send(3, testStream, payload) // WAN
	wg.Wait()

	s := net.Stats()
	want := int64(100 + frameOverhead)
	if s.Bytes[ClassLocal] != want || s.Bytes[ClassLAN] != want || s.Bytes[ClassWAN] != want {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesWAN() != want || s.BytesLAN() != want {
		t.Errorf("accessors: wan=%d lan=%d", s.BytesWAN(), s.BytesLAN())
	}

	net.ResetStats()
	if s := net.Stats(); s.Bytes[ClassWAN] != 0 || s.Frames[ClassLAN] != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

func TestMulticast(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	var count atomic.Int32
	done := make(chan struct{})
	h := func(ids.NodeID, []byte) {
		if count.Add(1) == 3 {
			close(done)
		}
	}
	net.Node(2).Handle(testStream, h)
	net.Node(3).Handle(testStream, h)
	net.Node(4).Handle(testStream, h)
	transport.Multicast(net.Node(1), []ids.NodeID{2, 3, 4}, testStream, []byte("all"))
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("multicast delivered %d of 3", count.Load())
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	p := topo.NewPlacement(1.0)
	p.Place(1, topo.Site{Region: topo.Virginia})
	p.Place(2, topo.Site{Region: topo.Tokyo})
	net := New(Options{Placement: p})

	var count atomic.Int32
	net.Node(2).Handle(testStream, func(ids.NodeID, []byte) { count.Add(1) })
	net.Node(1).Send(2, testStream, []byte("in flight"))
	net.Close() // closes while the frame is still "on the wire"
	if count.Load() != 0 {
		t.Error("frame delivered after Close")
	}
	// Close is idempotent.
	net.Close()
	// Sends after close are silently dropped.
	net.Node(1).Send(2, testStream, []byte("late"))
}

func TestLinkClassString(t *testing.T) {
	if ClassLocal.String() != "local" || ClassLAN.String() != "lan" ||
		ClassWAN.String() != "wan" || LinkClass(9).String() != "unknown" {
		t.Error("LinkClass.String mismatch")
	}
}

// dropPattern sends count frames over 1->2 and records, per frame,
// whether it was dropped (drops are decided synchronously in send).
func dropPattern(net *Network, count int) []bool {
	pattern := make([]bool, count)
	prev := net.Stats().Dropped
	for i := range pattern {
		net.Node(1).Send(2, testStream, []byte("x"))
		now := net.Stats().Dropped
		pattern[i] = now > prev
		prev = now
	}
	return pattern
}

// TestDropDeterminism: drop decisions come from per-link generators
// seeded by the network seed, so a chaos failure replays exactly from
// a logged seed — and a different seed yields a different run.
func TestDropDeterminism(t *testing.T) {
	const count = 200
	run := func(seed int64) []bool {
		net := New(Options{Seed: seed})
		defer net.Close()
		net.Node(2).Handle(testStream, func(ids.NodeID, []byte) {})
		net.SetDropRate(1, 2, 0.5)
		return dropPattern(net, count)
	}
	a, b := run(1234), run(1234)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
	c := run(99)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestPartitionHeal: a region partition severs only the traffic
// crossing the boundary, in both directions, and Heal restores it.
func TestPartitionHeal(t *testing.T) {
	p := topo.NewPlacement(0.001)
	p.Place(1, topo.Site{Region: topo.Virginia, Zone: 0})
	p.Place(2, topo.Site{Region: topo.Virginia, Zone: 1})
	p.Place(3, topo.Site{Region: topo.Tokyo, Zone: 0})
	net := New(Options{Placement: p})
	defer net.Close()

	counts := make(map[ids.NodeID]*atomic.Int32)
	for _, id := range []ids.NodeID{1, 2, 3} {
		c := &atomic.Int32{}
		counts[id] = c
		net.Node(id).Handle(testStream, func(ids.NodeID, []byte) { c.Add(1) })
	}
	wait := func(c *atomic.Int32, want int32) {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for c.Load() < want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if got := c.Load(); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}

	net.Partition(topo.Virginia)
	if !net.Partitioned() {
		t.Fatal("Partitioned() = false during a partition")
	}
	net.Node(1).Send(3, testStream, []byte("cross"))  // dropped
	net.Node(3).Send(1, testStream, []byte("cross"))  // dropped
	net.Node(1).Send(2, testStream, []byte("within")) // delivered
	wait(counts[2], 1)
	time.Sleep(20 * time.Millisecond)
	if counts[3].Load() != 0 || counts[1].Load() != 0 {
		t.Fatal("partition leaked cross-boundary frames")
	}

	net.Heal()
	if net.Partitioned() {
		t.Fatal("Partitioned() = true after Heal")
	}
	net.Node(1).Send(3, testStream, []byte("cross"))
	wait(counts[3], 1)
}

// TestDegradeRestore: a degraded node's outbound frames are delayed by
// roughly the configured amount but never dropped, inbound frames are
// unaffected, and Restore returns the node to baseline.
func TestDegradeRestore(t *testing.T) {
	net := New(Options{})
	defer net.Close()

	got := make(chan time.Duration, 8)
	var start time.Time
	var startMu sync.Mutex
	arm := func() {
		startMu.Lock()
		start = time.Now()
		startMu.Unlock()
	}
	handler := func(ids.NodeID, []byte) {
		startMu.Lock()
		d := time.Since(start)
		startMu.Unlock()
		got <- d
	}
	net.Node(2).Handle(testStream, handler)
	net.Node(1).Handle(testStream, handler)
	recv := func(what string) time.Duration {
		t.Helper()
		select {
		case d := <-got:
			return d
		case <-time.After(2 * time.Second):
			t.Fatalf("%s frame not delivered", what)
			return 0
		}
	}

	net.Degrade(1, 60*time.Millisecond, 0)
	arm()
	net.Node(1).Send(2, testStream, []byte("slow out"))
	if d := recv("degraded outbound"); d < 55*time.Millisecond {
		t.Fatalf("degraded outbound took %v, want >= ~60ms", d)
	}
	// Inbound to the degraded node is unaffected: gray failure slows
	// what the node emits, not what it hears.
	arm()
	net.Node(2).Send(1, testStream, []byte("fast in"))
	if d := recv("inbound"); d > 50*time.Millisecond {
		t.Fatalf("inbound to degraded node took %v, want baseline", d)
	}

	net.Restore(1)
	arm()
	net.Node(1).Send(2, testStream, []byte("fast again"))
	if d := recv("restored"); d > 50*time.Millisecond {
		t.Fatalf("restored outbound took %v, want baseline", d)
	}
}
