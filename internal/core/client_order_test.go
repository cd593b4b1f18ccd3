package core

import (
	"sync"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
)

// TestClientReplyDispatchOrder feeds a client's inbox a long run of
// sealed replies from one replica and asserts they are dispatched in
// arrival order: MAC verification must never reorder one replica's
// replies (the vote bookkeeping in applyReply assumes it).
func TestClientReplyDispatchOrder(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3}, F: 1}
	all := append([]ids.NodeID{101}, group.Members...)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)

	client, err := NewClient(ClientConfig{
		ID:    101,
		Group: group,
		Suite: suites[101],
		Node:  net.Node(101),
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 300
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	client.replyHook = func(from ids.NodeID, reply *Reply) {
		mu.Lock()
		got = append(got, reply.Counter)
		if len(got) == total {
			close(done)
		}
		mu.Unlock()
	}

	// Deliver the envelopes straight into the inbox handler, as the
	// transport would, all claiming to come from replica 1.
	replica := suites[1]
	for c := uint64(1); c <= total; c++ {
		frame := clientRegistry.EncodeFrame(tagReply, &Reply{Counter: c, Result: []byte("r")})
		env := sealClientFrame(replica, crypto.DomainReply, frame, ids.NodeID(101))
		client.onInbox(1, env)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("only %d of %d replies dispatched", n, total)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("reply %d dispatched at index %d (order violated)", c, i)
		}
	}
}

// TestClientReplyBadMACDropped: a reply whose MAC does not verify must
// be dropped, not dispatched.
func TestClientReplyBadMACDropped(t *testing.T) {
	net := memnet.New(memnet.Options{})
	t.Cleanup(net.Close)
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3}, F: 1}
	all := append([]ids.NodeID{101}, group.Members...)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)

	client, err := NewClient(ClientConfig{
		ID:    101,
		Group: group,
		Suite: suites[101],
		Node:  net.Node(101),
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatched := make(chan uint64, 2)
	client.replyHook = func(from ids.NodeID, reply *Reply) {
		dispatched <- reply.Counter
	}

	frame := clientRegistry.EncodeFrame(tagReply, &Reply{Counter: 1, Result: []byte("r")})
	env := sealClientFrame(suites[1], crypto.DomainReply, frame, ids.NodeID(101))
	env[len(env)-1] ^= 0xFF // corrupt the MAC
	client.onInbox(1, env)

	// A subsequent good reply still flows.
	good := sealClientFrame(suites[1], crypto.DomainReply, frame, ids.NodeID(101))
	client.onInbox(1, good)

	select {
	case c := <-dispatched:
		if c != 1 {
			t.Fatalf("unexpected counter %d", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("good reply never dispatched")
	}
	select {
	case <-dispatched:
		t.Fatal("corrupted reply was dispatched too")
	case <-time.After(100 * time.Millisecond):
	}
}
