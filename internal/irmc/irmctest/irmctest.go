// Package irmctest provides a conformance suite that both IRMC
// implementations (rc and sc) must pass. The tests encode the channel
// properties from Appendix A.5 of the paper: delivery requires fs+1
// identical submissions (IRMC-Correctness I), window moves require a
// correct endorser (IRMC-Correctness II), and the liveness properties
// that unblock senders and receivers.
package irmctest

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/crypto/cryptotest"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/transport/memnet"
)

// Channel bundles the endpoints of one channel under test.
type Channel struct {
	Senders   []irmc.Sender
	Receivers []irmc.Receiver
	Net       *memnet.Network
	SenderG   ids.Group
	ReceiverG ids.Group
}

// Close shuts down all endpoints and the network.
func (c *Channel) Close() {
	for _, s := range c.Senders {
		s.Close()
	}
	for _, r := range c.Receivers {
		r.Close()
	}
	c.Net.Close()
}

// Options are what a conformance case asks of the channel it runs on.
type Options struct {
	// Capacity is the per-subchannel window size.
	Capacity int
	// NodeSuites, when set, replaces Suites(): a case wraps the nodes'
	// suites to count their work or to corrupt one node's signatures.
	NodeSuites map[ids.NodeID]crypto.Suite
}

// SuiteSet returns the suites the channel's endpoints are to use.
func (o Options) SuiteSet() map[ids.NodeID]crypto.Suite {
	if o.NodeSuites != nil {
		return o.NodeSuites
	}
	return Suites()
}

// Factory builds a channel as the options ask over a fresh memnet.
// Implementations provide one for the suite.
type Factory func(t *testing.T, o Options) *Channel

// Groups returns the canonical test groups: 3 senders tolerating one
// fault (2fe+1 with fe=1, like a request channel's execution group)
// and 4 receivers tolerating one fault.
func Groups() (senders, receivers ids.Group) {
	senders = ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3}, F: 1}
	receivers = ids.Group{ID: 2, Members: []ids.NodeID{11, 12, 13, 14}, F: 1}
	return senders, receivers
}

// Suites builds crypto suites for all test nodes. The suite kind
// defaults to the fast test crypto and can be overridden with
// SPIDER_SUITE (the CI suite matrix runs the conformance suite under
// every registered signature suite this way).
func Suites() map[ids.NodeID]crypto.Suite {
	s, r := Groups()
	all := append(append([]ids.NodeID{}, s.Members...), r.Members...)
	return crypto.NewSuites(all, crypto.EnvSuiteKind(crypto.SuiteInsecure))
}

// receiveResult carries the outcome of an asynchronous Receive.
type receiveResult struct {
	msg []byte
	err error
}

func receiveAsync(r irmc.Receiver, sc ids.Subchannel, p ids.Position) <-chan receiveResult {
	ch := make(chan receiveResult, 1)
	go func() {
		msg, err := r.Receive(sc, p)
		ch <- receiveResult{msg: msg, err: err}
	}()
	return ch
}

func waitMsg(t *testing.T, ch <-chan receiveResult, want []byte, timeout time.Duration) {
	t.Helper()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("Receive failed: %v", res.err)
		}
		if !bytes.Equal(res.msg, want) {
			t.Fatalf("Receive = %q, want %q", res.msg, want)
		}
	case <-time.After(timeout):
		t.Fatal("Receive did not complete")
	}
}

// Run executes the conformance suite against the factory.
func Run(t *testing.T, factory Factory) {
	t.Run("DeliveryRequiresQuorum", func(t *testing.T) { testDeliveryRequiresQuorum(t, factory) })
	t.Run("MultiRequestPositions", func(t *testing.T) { testMultiRequestPositions(t, factory) })
	t.Run("MinorityCannotInject", func(t *testing.T) { testMinorityCannotInject(t, factory) })
	t.Run("ConflictingContent", func(t *testing.T) { testConflictingContent(t, factory) })
	t.Run("AllReceiversDeliver", func(t *testing.T) { testAllReceiversDeliver(t, factory) })
	t.Run("SubchannelsIndependent", func(t *testing.T) { testSubchannelsIndependent(t, factory) })
	t.Run("SendBlocksBeyondWindow", func(t *testing.T) { testSendBlocksBeyondWindow(t, factory) })
	t.Run("SendTooOld", func(t *testing.T) { testSendTooOld(t, factory) })
	t.Run("ReceiveTooOldAfterMove", func(t *testing.T) { testReceiveTooOldAfterMove(t, factory) })
	t.Run("SenderDrivenMove", func(t *testing.T) { testSenderDrivenMove(t, factory) })
	t.Run("SingleReceiverCannotMoveSenderWindow", func(t *testing.T) { testSingleReceiverCannotMove(t, factory) })
	t.Run("CloseUnblocks", func(t *testing.T) { testCloseUnblocks(t, factory) })
	t.Run("OwnMoveNeedsNoRoundTrip", func(t *testing.T) { testOwnMoveNeedsNoRoundTrip(t, factory) })
	t.Run("EarlyFloodIsBounded", func(t *testing.T) { testEarlyFloodIsBounded(t, factory) })
	t.Run("VerifiesOnlyUntilQuorum", func(t *testing.T) { testVerifiesOnlyUntilQuorum(t, factory) })
	t.Run("BadSignatureFirstStillDelivers", func(t *testing.T) { testBadSignatureFirstStillDelivers(t, factory) })
	t.Run("BadMACFirstStillDelivers", func(t *testing.T) { testBadMACFirstStillDelivers(t, factory) })
	t.Run("MoveReachesIsolatedReceiver", func(t *testing.T) { testMoveReachesIsolatedReceiver(t, factory) })
}

// sendQuorum submits msg at (sc, p) from fs+1 senders.
func sendQuorum(t *testing.T, c *Channel, sc ids.Subchannel, p ids.Position, msg []byte) {
	t.Helper()
	for _, s := range c.Senders[:c.SenderG.F+1] {
		if err := s.Send(sc, p, msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
}

func testDeliveryRequiresQuorum(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 8})
	defer c.Close()

	want := []byte("hello wide area")
	ch := receiveAsync(c.Receivers[0], 0, 1)
	sendQuorum(t, c, 0, 1, want)
	waitMsg(t, ch, want, 5*time.Second)
}

// batchPayload builds a composite payload of n length-prefixed
// sub-messages, mimicking the batched commit data plane where one
// position carries a whole consensus batch.
func batchPayload(pos ids.Position, n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		sub := []byte(fmt.Sprintf("pos-%d-req-%04d|payload-%032d", pos, i, i))
		out = append(out, byte(len(sub)))
		out = append(out, sub...)
	}
	return out
}

// testMultiRequestPositions sends large multi-request payloads across
// several positions, with one faulty sender submitting a divergent
// batch at every position: each position must deliver the correct
// majority's batch byte-exactly, in position order. This is the
// channel-level contract the batched commit data plane relies on — a
// position is a batch, and partial or mixed batches must never appear.
func testMultiRequestPositions(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 8})
	defer c.Close()

	const positions = 4
	const perBatch = 64
	want := make([][]byte, positions+1)
	chans := make([]<-chan receiveResult, positions+1)
	for p := 1; p <= positions; p++ {
		chans[p] = receiveAsync(c.Receivers[0], 0, ids.Position(p))
	}
	for p := 1; p <= positions; p++ {
		want[p] = batchPayload(ids.Position(p), perBatch)
		// The faulty sender proposes a batch with one request swapped.
		evil := batchPayload(ids.Position(p), perBatch)
		evil[len(evil)-1] ^= 0xFF
		if err := c.Senders[0].Send(0, ids.Position(p), evil); err != nil {
			t.Fatalf("faulty Send pos %d: %v", p, err)
		}
		for _, s := range c.Senders[1:] {
			if err := s.Send(0, ids.Position(p), want[p]); err != nil {
				t.Fatalf("Send pos %d: %v", p, err)
			}
		}
	}
	for p := 1; p <= positions; p++ {
		waitMsg(t, chans[p], want[p], 5*time.Second)
	}
}

func testMinorityCannotInject(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 8})
	defer c.Close()

	// Only fs senders (the maximum Byzantine minority) submit.
	for _, s := range c.Senders[:c.SenderG.F] {
		if err := s.Send(0, 1, []byte("forged")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ch := receiveAsync(c.Receivers[0], 0, 1)
	select {
	case res := <-ch:
		t.Fatalf("minority submission delivered: %q err=%v", res.msg, res.err)
	case <-time.After(300 * time.Millisecond):
		// Correct: the channel refuses to deliver.
	}
}

func testConflictingContent(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 8})
	defer c.Close()

	// One (faulty) sender submits conflicting content; the correct
	// majority agrees on `good`, which must be the delivered value.
	if err := c.Senders[0].Send(0, 1, []byte("evil")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	good := []byte("good")
	for _, s := range c.Senders[1:] {
		if err := s.Send(0, 1, good); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ch := receiveAsync(c.Receivers[0], 0, 1)
	waitMsg(t, ch, good, 5*time.Second)
}

func testAllReceiversDeliver(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 8})
	defer c.Close()

	want := []byte("to everyone")
	chans := make([]<-chan receiveResult, len(c.Receivers))
	for i, r := range c.Receivers {
		chans[i] = receiveAsync(r, 0, 1)
	}
	sendQuorum(t, c, 0, 1, want)
	for _, ch := range chans {
		waitMsg(t, ch, want, 5*time.Second)
	}
}

func testSubchannelsIndependent(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 4})
	defer c.Close()

	// Fill subchannel 7's window completely; subchannel 9 must be
	// unaffected.
	for p := ids.Position(1); p <= 4; p++ {
		sendQuorum(t, c, 7, p, []byte{byte(p)})
	}
	want := []byte("other lane")
	ch := receiveAsync(c.Receivers[0], 9, 1)
	sendQuorum(t, c, 9, 1, want)
	waitMsg(t, ch, want, 5*time.Second)

	// And subchannel 7's messages are all retrievable.
	for p := ids.Position(1); p <= 4; p++ {
		msg, err := c.Receivers[0].Receive(7, p)
		if err != nil || !bytes.Equal(msg, []byte{byte(p)}) {
			t.Fatalf("subchannel 7 pos %d: %q err=%v", p, msg, err)
		}
	}
}

func testSendBlocksBeyondWindow(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 2}) // window spans positions 1..2
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		done <- c.Senders[0].Send(0, 3, []byte("beyond"))
	}()
	select {
	case err := <-done:
		t.Fatalf("Send beyond window returned early: %v", err)
	case <-time.After(200 * time.Millisecond):
		// Correct: blocked (IRMC-Liveness II gating).
	}

	// fr+1 receivers move the window; the send must now complete.
	for _, r := range c.Receivers[:c.ReceiverG.F+1] {
		r.MoveWindow(0, 2)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Send after window move: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after fr+1 receivers moved the window")
	}
}

func testSendTooOld(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 2})
	defer c.Close()

	for _, r := range c.Receivers {
		r.MoveWindow(0, 5)
	}
	// Wait until the sender window reflects the move.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := c.Senders[0].Send(0, 2, []byte("stale"))
		if tooOld, ok := irmc.AsTooOld(err); ok {
			if tooOld.NewStart != 5 {
				t.Fatalf("TooOld.NewStart = %d, want 5", tooOld.NewStart)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("Send never reported TooOld")
}

func testReceiveTooOldAfterMove(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 4})
	defer c.Close()

	ch := receiveAsync(c.Receivers[0], 0, 1)
	// The receiver itself moves its window forward (e.g. after an
	// execution checkpoint): the pending Receive must abort.
	c.Receivers[0].MoveWindow(0, 3)
	select {
	case res := <-ch:
		tooOld, ok := irmc.AsTooOld(res.err)
		if !ok {
			t.Fatalf("Receive returned %q err=%v, want TooOld", res.msg, res.err)
		}
		if tooOld.NewStart != 3 {
			t.Fatalf("TooOld.NewStart = %d, want 3", tooOld.NewStart)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive still blocked after window move")
	}
}

func testSenderDrivenMove(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 4})
	defer c.Close()

	// fs+1 senders request the window to start at 6 (as execution
	// replicas do when a client submits a newer request).
	ch := receiveAsync(c.Receivers[0], 0, 2)
	for _, s := range c.Senders[:c.SenderG.F+1] {
		s.MoveWindow(0, 6)
	}
	select {
	case res := <-ch:
		tooOld, ok := irmc.AsTooOld(res.err)
		if !ok {
			t.Fatalf("Receive returned %q err=%v, want TooOld", res.msg, res.err)
		}
		if tooOld.NewStart < 6 {
			t.Fatalf("TooOld.NewStart = %d, want >= 6", tooOld.NewStart)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender-driven move did not propagate (IRMC-Liveness III)")
	}
}

func testSingleReceiverCannotMove(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 2})
	defer c.Close()

	// Only one receiver (≤ fr, potentially Byzantine) requests a
	// move; the sender window must not advance.
	c.Receivers[0].MoveWindow(0, 10)
	done := make(chan error, 1)
	go func() {
		done <- c.Senders[0].Send(0, 5, []byte("gated"))
	}()
	select {
	case err := <-done:
		t.Fatalf("single receiver moved the sender window: %v", err)
	case <-time.After(300 * time.Millisecond):
		// Correct: fr+1 endorsements required (IRMC-Correctness II).
	}
}

func testCloseUnblocks(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 2})
	defer c.Close()

	recvCh := receiveAsync(c.Receivers[0], 0, 1)
	sendCh := make(chan error, 1)
	go func() {
		sendCh <- c.Senders[0].Send(0, 99, []byte("blocked"))
	}()
	time.Sleep(50 * time.Millisecond)
	c.Receivers[0].Close()
	c.Senders[0].Close()

	select {
	case res := <-recvCh:
		if !errors.Is(res.err, irmc.ErrClosed) {
			t.Fatalf("Receive after close: %q err=%v", res.msg, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive not unblocked by Close")
	}
	select {
	case err := <-sendCh:
		if !errors.Is(err, irmc.ErrClosed) {
			t.Fatalf("Send after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send not unblocked by Close")
	}
}

// testOwnMoveNeedsNoRoundTrip: a sender's MoveWindow takes effect at
// the sender at once, so MoveWindow followed by Send completes, and
// delivers, on sender→receiver traffic alone. The receivers hold what
// reaches them before fs+1 Moves have shifted their window.
func testOwnMoveNeedsNoRoundTrip(t *testing.T, factory Factory) {
	c := factory(t, Options{Capacity: 2}) // window spans positions 1..2; 10 is far outside
	defer c.Close()

	for _, r := range c.ReceiverG.Members {
		for _, s := range c.SenderG.Members {
			c.Net.SetDropRate(r, s, 1)
		}
	}
	want := []byte("one way only")
	chans := make([]<-chan receiveResult, len(c.Receivers))
	for i, r := range c.Receivers {
		chans[i] = receiveAsync(r, 0, 10)
	}
	sent := make(chan error, len(c.Senders))
	for _, s := range c.Senders {
		go func() {
			s.MoveWindow(0, 10)
			sent <- s.Send(0, 10, want)
		}()
	}
	for range c.Senders {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("Send after own MoveWindow: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Send waited for the receivers although the sender had moved its own window")
		}
	}
	for _, ch := range chans {
		waitMsg(t, ch, want, 5*time.Second)
	}
}

// testEarlyFloodIsBounded: one (faulty) sender races ahead on its own —
// a ladder of Moves, each followed by Sends the receivers' window does
// not cover. No endpoint may hold more than Capacity early entries for
// it, its Moves alone move nobody, nothing it sent is delivered, and
// the correct senders' traffic is unaffected — also at a position
// where the faulty sender's held submission is waiting.
func testEarlyFloodIsBounded(t *testing.T, factory Factory) {
	const capacity = 2
	c := factory(t, Options{Capacity: capacity})
	defer c.Close()

	type holder interface {
		Held(sc ids.Subchannel, peer ids.NodeID) int
	}
	var holders []holder
	for _, s := range c.Senders {
		if h, ok := s.(holder); ok {
			holders = append(holders, h)
		}
	}
	for _, r := range c.Receivers {
		if h, ok := r.(holder); ok {
			holders = append(holders, h)
		}
	}
	if len(holders) == 0 {
		t.Fatal("no endpoint reports its held entries")
	}
	last := len(c.Senders) - 1 // not the IRMC-SC default collector
	faulty, faultyID := c.Senders[last], c.SenderG.Members[last]
	maxHeld := func() int {
		m := 0
		for _, h := range holders {
			if n := h.Held(0, faultyID); n > m {
				m = n
			}
		}
		return m
	}

	const rungs = 500 // two positions each: 1 000 distinct positions
	var top ids.Position
	for i := 0; i < rungs; i++ {
		top = ids.Position(10 + 2*i)
		faulty.MoveWindow(0, top)
		for _, p := range []ids.Position{top, top + 1} {
			if err := faulty.Send(0, p, []byte("junk")); err != nil {
				t.Fatalf("faulty Send %d: %v", p, err)
			}
		}
		if n := maxHeld(); n > capacity {
			t.Fatalf("rung %d: %d entries held for the faulty sender, capacity %d", i, n, capacity)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for maxHeld() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the flood never reached a hold")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := maxHeld(); n > capacity {
		t.Fatalf("%d entries held for the faulty sender after the flood, capacity %d", n, capacity)
	}

	// The receivers' window is still [1,2]: position 1 delivers from
	// the correct senders, and nothing the faulty sender sent does.
	good := []byte("good")
	flooded := receiveAsync(c.Receivers[0], 0, top)
	ch := receiveAsync(c.Receivers[0], 0, 1)
	for _, s := range c.Senders[:last] {
		if err := s.Send(0, 1, good); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitMsg(t, ch, good, 5*time.Second)
	select {
	case res := <-flooded:
		t.Fatalf("a single sender's early traffic was delivered or moved the window: %q err=%v", res.msg, res.err)
	case <-time.After(200 * time.Millisecond):
	}

	// The correct senders move to where the faulty sender's last
	// submissions are held: those count as its one vote, no more.
	for _, s := range c.Senders[:last] {
		s.MoveWindow(0, top)
		if err := s.Send(0, top, good); err != nil {
			t.Fatalf("Send %d: %v", top, err)
		}
	}
	waitMsg(t, flooded, good, 5*time.Second)
}

// sharesChecked reports whether the senders checked one another's share
// signatures. Sender-side collection does; under receiver-side
// collection senders exchange nothing.
func sharesChecked(c *Channel, counters map[ids.NodeID]*cryptotest.CountingSuite) bool {
	for _, id := range c.SenderG.Members {
		if counters[id].Verifies(crypto.DomainIRMCShare) > 0 {
			return true
		}
	}
	return false
}

// requireNoPublicKeyOps is what receiver-side collection costs in
// public-key work: nothing. Every message, a Send included, is
// authenticated by its envelope's pairwise MAC.
func requireNoPublicKeyOps(t *testing.T, counters map[ids.NodeID]*cryptotest.CountingSuite) {
	t.Helper()
	for id, cs := range counters {
		if n := cs.PublicKeyOps(); n != 0 {
			t.Errorf("node %v made %d Sign and Verify calls under receiver-side collection, want 0", id, n)
		}
	}
}

// testVerifiesOnlyUntilQuorum: with every sender correct, an endpoint
// does the public-key work that completes a position's quorum and none
// for what arrives after it. Per position the first fs+1 senders
// submit, every receiver delivers, and only then do the remaining
// senders submit, so what they send can only be surplus; an endpoint
// admits one frame of a link at a time, so the counts are exact. Under
// receiver-side collection there is no public-key work at all. Under
// sender-side collection a receiver pays fs+1 verifications per position
// (the shares of one certificate), and a sender at most fs+1 share
// verifications per position, exactly fs where its own share is in
// before any peer's arrives (the sender that submits first), and never
// one for its own share.
func testVerifiesOnlyUntilQuorum(t *testing.T, factory Factory) {
	const positions = 200
	suites, counters := cryptotest.CountingAll(Suites())
	c := factory(t, Options{Capacity: 256, NodeSuites: suites})
	defer c.Close()
	quorum := c.SenderG.F + 1

	for p := ids.Position(1); p <= positions; p++ {
		msg := []byte(fmt.Sprintf("position %d", p))
		chans := make([]<-chan receiveResult, len(c.Receivers))
		for i, r := range c.Receivers {
			chans[i] = receiveAsync(r, 0, p)
		}
		sendQuorum(t, c, 0, p, msg)
		for _, ch := range chans {
			waitMsg(t, ch, msg, 10*time.Second)
		}
		for _, s := range c.Senders[quorum:] {
			if err := s.Send(0, p, msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	// Everything a count below needs had happened when the last Receive
	// returned; the pause is for surplus still in flight, so that an
	// endpoint which does verify it is caught doing so.
	time.Sleep(100 * time.Millisecond)

	if !sharesChecked(c, counters) {
		requireNoPublicKeyOps(t, counters)
		return
	}
	for _, id := range c.ReceiverG.Members {
		if got, want := counters[id].Verifies(crypto.DomainIRMCShare), int64(quorum*positions); got != want {
			t.Errorf("receiver %v: %d verifications for %d positions, want %d (fs+1 each)", id, got, positions, want)
		}
	}
	for i, id := range c.SenderG.Members {
		got := counters[id].Verifies(crypto.DomainIRMCShare)
		if own := counters[id].VerifiesFrom(crypto.DomainIRMCShare, id); own != 0 {
			t.Errorf("sender %v verified its own share %d times", id, own)
		}
		if max := int64(quorum * positions); got > max {
			t.Errorf("sender %v: %d share verifications for %d positions, want at most %d (fs+1 each)", id, got, positions, max)
		}
		if want := int64(c.SenderG.F * positions); i == 0 && got != want {
			t.Errorf("first sender %v: %d share verifications for %d positions, want %d (fs each)", id, got, positions, want)
		}
	}
}

// badSigSuite signs with a flipped bit: every signature its node emits
// fails verification, while its MACs stay valid — the envelope around
// a share is accepted and the share inside it is not.
type badSigSuite struct{ crypto.Suite }

func (s badSigSuite) Sign(d crypto.Domain, msg []byte) []byte {
	sig := s.Suite.Sign(d, msg)
	sig[0] ^= 1
	return sig
}

// waitOpened waits until the envelopes of from's first submission have
// been opened at fs+1 endpoints — receivers opening Sends under
// receiver-side collection, the other senders opening shares under
// sender-side collection — and then a little longer, for what follows
// the MAC check on the same goroutine.
func waitOpened(t *testing.T, c *Channel, counters map[ids.NodeID]*cryptotest.CountingSuite, from ids.NodeID) {
	t.Helper()
	waitCond(t, "the first submission to be opened", func() bool {
		var n int64
		for _, cs := range counters {
			n += cs.MACVerifiesFrom(crypto.DomainIRMCSend, from) + cs.MACVerifiesFrom(crypto.DomainIRMCShare, from)
		}
		return n >= int64(c.SenderG.F+1)
	})
	time.Sleep(50 * time.Millisecond)
}

// testBadSignatureFirstStillDelivers: the submission that arrives first
// carries an invalid signature. Under sender-side collection, where the
// signature is a share's, it must be verified and refused — not counted
// towards the quorum, not placed in a certificate, and not allowed to
// stand in the way of what follows: the next fs+1 valid submissions are
// verified as if it had never come, and every receiver delivers. Under
// receiver-side collection a Send carries no signature, so the faulty
// signer changes nothing and no endpoint signs or verifies anything.
func testBadSignatureFirstStillDelivers(t *testing.T, factory Factory) {
	suites, counters := cryptotest.CountingAll(Suites())
	senderG, _ := Groups()
	last := len(senderG.Members) - 1 // not the IRMC-SC default collector
	bad := senderG.Members[last]
	suites[bad] = badSigSuite{suites[bad]}
	c := factory(t, Options{Capacity: 8, NodeSuites: suites})
	defer c.Close()

	want := []byte("valid after invalid")
	if err := c.Senders[last].Send(0, 1, want); err != nil {
		t.Fatalf("faulty Send: %v", err)
	}
	waitOpened(t, c, counters, bad)

	chans := make([]<-chan receiveResult, len(c.Receivers))
	for i, r := range c.Receivers {
		chans[i] = receiveAsync(r, 0, 1)
	}
	for _, s := range c.Senders[:last] {
		if err := s.Send(0, 1, want); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for _, ch := range chans {
		waitMsg(t, ch, want, 10*time.Second)
	}
	if !sharesChecked(c, counters) {
		requireNoPublicKeyOps(t, counters)
		return
	}
	var refused int64
	for _, cs := range counters {
		refused += cs.VerifiesFrom(crypto.DomainIRMCShare, bad)
	}
	if refused < int64(c.SenderG.F+1) {
		t.Errorf("the invalid share was verified %d times, want at least fs+1 = %d", refused, c.SenderG.F+1)
	}
	for _, id := range c.ReceiverG.Members {
		cs := counters[id]
		if good := cs.Verifies(crypto.DomainIRMCShare) - cs.VerifiesFrom(crypto.DomainIRMCShare, bad); good != int64(c.SenderG.F+1) {
			t.Errorf("receiver %v delivered on %d valid verifications, want fs+1 = %d", id, good, c.SenderG.F+1)
		}
		if n := cs.VerifiesFrom(crypto.DomainIRMCShare, bad); n != 0 {
			t.Errorf("receiver %v was sent a certificate holding the invalid share", id)
		}
	}
}

// badMACSuite makes every MAC its node emits fail verification while
// on is set.
type badMACSuite struct {
	crypto.Suite
	on *atomic.Bool
}

func (s badMACSuite) corrupt(mac []byte) []byte {
	if s.on.Load() {
		mac[len(mac)-1] ^= 1
	}
	return mac
}

func (s badMACSuite) MAC(to ids.NodeID, d crypto.Domain, msg []byte) []byte {
	return s.corrupt(s.Suite.MAC(to, d, msg))
}

func (s badMACSuite) MACAppend(to ids.NodeID, d crypto.Domain, msg, dst []byte) []byte {
	return s.corrupt(s.Suite.MACAppend(to, d, msg, dst))
}

// testBadMACFirstStillDelivers: the submission that arrives first comes
// in envelopes whose MAC is bad. It must be dropped on the MAC check,
// before any public-key work — not counted towards the quorum (one more
// valid submission delivers nothing), and not allowed to take its
// sender's one vote: the next fs+1 valid submissions, that sender's
// among them, deliver at every receiver. Under sender-side collection a
// sender's submission is final (a second Send for the position does
// nothing), so there its own share, admitted where it was made, is that
// submission, and the certificate it completes arrives through a
// collector switch.
func testBadMACFirstStillDelivers(t *testing.T, factory Factory) {
	suites, counters := cryptotest.CountingAll(Suites())
	senderG, _ := Groups()
	last := len(senderG.Members) - 1 // not the IRMC-SC default collector
	bad := senderG.Members[last]
	var corrupt atomic.Bool
	corrupt.Store(true)
	suites[bad] = badMACSuite{suites[bad], &corrupt}
	c := factory(t, Options{Capacity: 8, NodeSuites: suites})
	defer c.Close()

	want := []byte("valid after a bad MAC")
	if err := c.Senders[last].Send(0, 1, want); err != nil {
		t.Fatalf("Send with bad MACs: %v", err)
	}
	waitOpened(t, c, counters, bad)
	corrupt.Store(false)
	var rejected int64
	for _, cs := range counters {
		rejected += cs.MACRejectsFrom(crypto.DomainIRMCSend, bad) + cs.MACRejectsFrom(crypto.DomainIRMCShare, bad)
	}
	if rejected < int64(c.SenderG.F+1) {
		t.Fatalf("%d envelopes with a bad MAC were rejected, want at least fs+1 = %d", rejected, c.SenderG.F+1)
	}

	chans := make([]<-chan receiveResult, len(c.Receivers))
	for i, r := range c.Receivers {
		chans[i] = receiveAsync(r, 0, 1)
	}
	if err := c.Senders[0].Send(0, 1, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case res := <-chans[0]:
		t.Fatalf("delivered on one valid submission and one with a bad MAC: %q err=%v", res.msg, res.err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := c.Senders[last].Send(0, 1, want); err != nil {
		t.Fatalf("Send after the bad MAC: %v", err)
	}
	for _, ch := range chans {
		waitMsg(t, ch, want, 10*time.Second)
	}
	for _, id := range c.SenderG.Members {
		if n := counters[id].VerifiesFrom(crypto.DomainIRMCShare, bad); n != 0 {
			t.Errorf("sender %v verified a share signature from behind a bad MAC %d times", id, n)
		}
	}
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testMoveReachesIsolatedReceiver: a receiver that is unreachable while
// every sender moves its window must still learn of the move once it is
// reachable again — its Receive of a position the move passed fails
// with TooOld, the signal to fetch a checkpoint, instead of blocking
// for good — and once it has answered, the senders stop repeating
// themselves.
func testMoveReachesIsolatedReceiver(t *testing.T, factory Factory) {
	const sc = ids.Subchannel(5)
	c := factory(t, Options{Capacity: 4})
	defer c.Close()

	last := len(c.Receivers) - 1
	c.Net.Isolate(c.ReceiverG.Members[last], true)
	for _, s := range c.Senders {
		s.MoveWindow(sc, 20)
	}
	// The reachable receivers have followed: every Move has been sent.
	_, err := c.Receivers[0].Receive(sc, 5)
	if _, ok := irmc.AsTooOld(err); !ok {
		t.Fatalf("reachable receiver: Receive = %v, want TooOld", err)
	}
	c.Net.Isolate(c.ReceiverG.Members[last], false)

	select {
	case res := <-receiveAsync(c.Receivers[last], sc, 5):
		tooOld, ok := irmc.AsTooOld(res.err)
		if !ok || tooOld.NewStart != 20 {
			t.Fatalf("healed receiver: Receive = %q err=%v, want TooOld with start 20", res.msg, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the move never reached the receiver that was isolated when it was announced")
	}

	// Everyone has acknowledged; the channel carries nothing and must
	// fall silent (a re-announcement period is 20–50 ms here).
	frames := func() (n int64) {
		for _, f := range c.Net.Stats().Frames {
			n += f
		}
		return n
	}
	waitCond(t, "the re-announcements to stop", func() bool {
		before := frames()
		time.Sleep(300 * time.Millisecond)
		return frames() == before
	})
}
