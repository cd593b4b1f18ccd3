package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/deploy"
	"spider/internal/ids"
	"spider/internal/transport"
)

var testStream = transport.MakeStream(transport.KindBench, 1)

func TestSendReceive(t *testing.T) {
	a, err := Listen(Options{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Options{
		Self:       2,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[ids.NodeID]string{1: a.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// a learns b's address for the reverse direction.
	a.opts.Peers = map[ids.NodeID]string{2: b.Addr()}

	got := make(chan string, 1)
	a.Handle(testStream, func(from ids.NodeID, payload []byte) {
		if from == 2 {
			got <- string(payload)
		}
	})
	echo := make(chan string, 1)
	b.Handle(testStream, func(from ids.NodeID, payload []byte) {
		if from == 1 {
			echo <- string(payload)
		}
	})

	b.Send(1, testStream, []byte("over tcp"))
	select {
	case msg := <-got:
		if msg != "over tcp" {
			t.Fatalf("payload = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame not delivered")
	}

	a.Send(2, testStream, []byte("echo"))
	select {
	case msg := <-echo:
		if msg != "echo" {
			t.Fatalf("payload = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reverse frame not delivered")
	}
}

func TestSelfDelivery(t *testing.T) {
	n, err := Listen(Options{Self: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got := make(chan struct{}, 1)
	n.Handle(testStream, func(from ids.NodeID, _ []byte) {
		if from == 1 {
			got <- struct{}{}
		}
	})
	n.Send(1, testStream, []byte("loop"))
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("self delivery failed")
	}
}

func TestUnknownPeerDropped(t *testing.T) {
	n, err := Listen(Options{Self: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Send(99, testStream, []byte("nowhere")) // must not panic or block
}

// TestFailedListenLeavesNoGoroutine listens on an address in use: each
// failed Listen must leave nothing running behind it.
func TestFailedListenLeavesNoGoroutine(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if n, err := Listen(Options{Self: 1, ListenAddr: busy.Addr().String()}); err == nil {
			n.Close()
			t.Fatal("Listen on an address in use succeeded")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines went from %d to %d over 10 failed Listens", before, after)
	}
}

// TestFramesBeforeGarbageDelivered writes two frames and a garbage
// header in one write: the two frames reach the handler, as one run,
// before the connection is torn down.
func TestFramesBeforeGarbageDelivered(t *testing.T) {
	a, err := Listen(Options{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got := make(chan []string, 2)
	a.HandleBatch(testStream, func(_ ids.NodeID, payloads [][]byte) {
		var run []string
		for _, p := range payloads {
			run = append(run, string(p))
		}
		got <- run
	})
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := binary.LittleEndian.AppendUint32(nil, 2) // handshake: node 2
	for _, p := range []string{"one", "two"} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(testStream))
		buf = append(buf, p...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, maxFrameSize+1) // garbage length
	buf = binary.LittleEndian.AppendUint32(buf, uint32(testStream))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	select {
	case run := <-got:
		if !slices.Equal(run, []string{"one", "two"}) {
			t.Fatalf("run = %q, want [one two]", run)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frames before the garbage header not delivered")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after a garbage header")
	}
}

func TestReconnect(t *testing.T) {
	a, err := Listen(Options{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	var count atomic.Int32
	a.Handle(testStream, func(ids.NodeID, []byte) { count.Add(1) })

	b, err := Listen(Options{Self: 2, Peers: map[ids.NodeID]string{1: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	b.Send(1, testStream, []byte("first"))
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if count.Load() == 0 {
		t.Fatal("first frame not delivered")
	}

	// Restart the receiver on the same address; the sender must
	// re-dial and deliver subsequent frames.
	a.Close()
	a2, err := Listen(Options{Self: 1, ListenAddr: addr})
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer a2.Close()
	var count2 atomic.Int32
	a2.Handle(testStream, func(ids.NodeID, []byte) { count2.Add(1) })

	deadline = time.Now().Add(10 * time.Second)
	for count2.Load() == 0 && time.Now().Before(deadline) {
		b.Send(1, testStream, []byte("after restart"))
		time.Sleep(50 * time.Millisecond)
	}
	if count2.Load() == 0 {
		t.Fatal("no delivery after reconnect")
	}
}

// TestSpiderOverTCP runs a small single-machine Spider deployment over
// real TCP sockets: 4 agreement replicas, one 3-replica execution
// group, one client — the cmd/spider-node topology in miniature.
func TestSpiderOverTCP(t *testing.T) {
	agGroup := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	execGroup := ids.Group{ID: 10, Members: []ids.NodeID{11, 12, 13}, F: 1}
	clientID := ids.ClientID(101)
	all := append(append([]ids.NodeID{}, agGroup.Members...), execGroup.Members...)
	all = append(all, clientID.Node())
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)

	// Start every node on an ephemeral port, then distribute the
	// address book.
	nodes := make(map[ids.NodeID]*Node, len(all))
	addrs := make(map[ids.NodeID]string, len(all))
	for _, id := range all {
		n, err := Listen(Options{Self: id, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		addrs[id] = n.Addr()
	}
	for _, n := range nodes {
		peers := make(map[ids.NodeID]string, len(addrs))
		for id, addr := range addrs {
			if id != n.ID() {
				peers[id] = addr
			}
		}
		n.opts.Peers = peers
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	cfg := &deploy.Config{
		Crypto:     "insecure",
		Agreement:  deploy.GroupSpec{ID: agGroup.ID, F: agGroup.F, Members: agGroup.Members},
		ExecGroups: []deploy.GroupSpec{{ID: execGroup.ID, F: execGroup.F, Members: execGroup.Members, Region: "local"}},
	}
	for _, m := range append(slices.Clone(agGroup.Members), execGroup.Members...) {
		rep, err := cfg.Launch(m, deploy.Host{Node: nodes[m], Suite: suites[m]})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
	}

	client, err := core.NewClient(core.ClientConfig{
		ID:       clientID,
		Group:    execGroup,
		Suite:    suites[clientID.Node()],
		Node:     nodes[clientID.Node()],
		Retry:    time.Second,
		Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		op := app.EncodeOp(app.Op{Kind: app.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("tcp")})
		if _, err := client.Write(op); err != nil {
			t.Fatalf("write %d over TCP: %v", i, err)
		}
	}
	payload, err := client.WeakRead(app.EncodeOp(app.Op{Kind: app.OpGet, Key: "k4"}))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	res, err := app.DecodeResult(payload)
	if err != nil || !res.Found {
		t.Fatalf("result = %+v err=%v", res, err)
	}
}
