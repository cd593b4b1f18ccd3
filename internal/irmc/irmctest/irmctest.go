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
	// Pipeline, when set, is every endpoint's crypto pipeline.
	Pipeline *crypto.Pipeline
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
	t.Run("MoveReachesIsolatedReceiver", func(t *testing.T) { testMoveReachesIsolatedReceiver(t, factory) })
	t.Run("FlowStatsCountAcksAndBlocks", func(t *testing.T) { testFlowStatsCountAcksAndBlocks(t, factory) })
	t.Run("SetCapacityUnblocksWaiters", func(t *testing.T) { testSetCapacityUnblocksWaiters(t, factory) })
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

// submissionVerifies is the public-key work an endpoint did to admit
// channel content: Send signatures (receiver-side collection) plus
// share signatures (sender-side collection: fellow senders' shares at a
// sender, certificate shares at a receiver).
func submissionVerifies(c *cryptotest.CountingSuite) int64 {
	return c.Verifies(crypto.DomainIRMCSend) + c.Verifies(crypto.DomainIRMCShare)
}

// submissionVerifiesFrom is the part of submissionVerifies spent on
// one signer's signatures.
func submissionVerifiesFrom(c *cryptotest.CountingSuite, signer ids.NodeID) int64 {
	return c.VerifiesFrom(crypto.DomainIRMCSend, signer) + c.VerifiesFrom(crypto.DomainIRMCShare, signer)
}

// testVerifiesOnlyUntilQuorum: with every sender correct, an endpoint
// verifies what completes a position's quorum and nothing that arrives
// after it. Per position the first fs+1 senders submit, every receiver
// delivers, and only then do the remaining senders submit, so what they
// send can only be surplus; the serial pipeline admits one frame of a
// link at a time, so the counts are exact. A receiver pays fs+1
// verifications per position under either implementation (fs+1 Sends,
// or the fs+1 shares of one certificate). Under sender-side collection
// a sender pays at most fs+1 share verifications per position, exactly
// fs where its own share is in before any peer's arrives (the sender
// that submits first), and never one for its own share.
func testVerifiesOnlyUntilQuorum(t *testing.T, factory Factory) {
	const positions = 200
	suites, counters := cryptotest.CountingAll(Suites())
	c := factory(t, Options{Capacity: 256, NodeSuites: suites, Pipeline: crypto.SerialPipeline()})
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

	for _, id := range c.ReceiverG.Members {
		if got, want := submissionVerifies(counters[id]), int64(quorum*positions); got != want {
			t.Errorf("receiver %v: %d verifications for %d positions, want %d (fs+1 each)", id, got, positions, want)
		}
	}
	var shareWork int64
	for _, id := range c.SenderG.Members {
		shareWork += counters[id].Verifies(crypto.DomainIRMCShare)
	}
	if shareWork == 0 {
		return // receiver-side collection: senders verify no submissions
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

// testBadSignatureFirstStillDelivers: the submission that arrives first
// carries an invalid signature. It must be verified and refused — not
// counted towards the quorum, not placed in a certificate, and not
// allowed to stand in the way of what follows: the next fs+1 valid
// submissions are verified as if it had never come, and every receiver
// delivers.
func testBadSignatureFirstStillDelivers(t *testing.T, factory Factory) {
	suites, counters := cryptotest.CountingAll(Suites())
	senderG, _ := Groups()
	last := len(senderG.Members) - 1 // not the IRMC-SC default collector
	bad := senderG.Members[last]
	suites[bad] = badSigSuite{suites[bad]}
	c := factory(t, Options{Capacity: 8, NodeSuites: suites, Pipeline: crypto.SerialPipeline()})
	defer c.Close()

	refused := func() int64 {
		var n int64
		for _, cs := range counters {
			n += submissionVerifiesFrom(cs, bad)
		}
		return n
	}
	want := []byte("valid after invalid")
	if err := c.Senders[last].Send(0, 1, want); err != nil {
		t.Fatalf("faulty Send: %v", err)
	}
	// It reaches every receiver (receiver-side collection) or every
	// other sender (sender-side collection), at least fs+1 endpoints
	// either way.
	deadline := time.Now().Add(5 * time.Second)
	for refused() < int64(c.SenderG.F+1) {
		if time.Now().After(deadline) {
			t.Fatal("the invalid submission was never verified")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

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
	for _, id := range c.ReceiverG.Members {
		if good := submissionVerifies(counters[id]) - submissionVerifiesFrom(counters[id], bad); good != int64(c.SenderG.F+1) {
			t.Errorf("receiver %v delivered on %d valid verifications, want fs+1 = %d", id, good, c.SenderG.F+1)
		}
		if n := counters[id].VerifiesFrom(crypto.DomainIRMCShare, bad); n != 0 {
			t.Errorf("receiver %v was sent a certificate holding the invalid share", id)
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

// testFlowStatsCountAcksAndBlocks pins the window auto-sizer's
// measurement inputs: positions the receiver ack quorum drains past
// count as Acked, and a Send stalling on a full effective window
// counts as Blocked and completes once acks advance the window. The
// sender's own move ticks neither.
func testFlowStatsCountAcksAndBlocks(t *testing.T, factory Factory) {
	const sc = ids.Subchannel(3)
	c := factory(t, Options{Capacity: 8})
	defer c.Close()
	s := c.Senders[0]

	// Fill positions 1..4 from every sender so receivers resolve them.
	for p := ids.Position(1); p <= 4; p++ {
		msg := fmt.Appendf(nil, "flow-%d", p)
		for _, snd := range c.Senders {
			if err := snd.Send(sc, p, msg); err != nil {
				t.Fatalf("send %d: %v", p, err)
			}
		}
		for _, r := range c.Receivers {
			if _, err := r.Receive(sc, p); err != nil {
				t.Fatalf("receive %d: %v", p, err)
			}
		}
	}
	st := s.FlowStats(sc)
	if st.Acked != 0 || st.Blocked != 0 {
		t.Fatalf("counters before any window move: %+v", st)
	}
	if st.Outstanding != 4 || st.Capacity != 8 {
		t.Fatalf("outstanding/capacity = %d/%d, want 4/8", st.Outstanding, st.Capacity)
	}

	// Receivers drain: every receiver moves its window to 5, the
	// fr+1-highest ack advances the sender window by 4.
	for _, r := range c.Receivers {
		r.MoveWindow(sc, 5)
	}
	waitCond(t, "acks to drain 4 positions", func() bool {
		return s.FlowStats(sc).Acked == 4
	})
	if st = s.FlowStats(sc); st.Outstanding != 0 {
		t.Fatalf("outstanding after full drain = %d, want 0", st.Outstanding)
	}

	// Shrink the effective window to 2: position 7 (window start 5,
	// max 6) must stall and count as blocked, then complete when the
	// receivers drain past 5.
	s.SetCapacity(sc, 2)
	if got := s.FlowStats(sc).Capacity; got != 2 {
		t.Fatalf("capacity after shrink = %d, want 2", got)
	}
	for p := ids.Position(5); p <= 6; p++ {
		msg := fmt.Appendf(nil, "flow-%d", p)
		for _, snd := range c.Senders {
			if err := snd.Send(sc, p, msg); err != nil {
				t.Fatalf("send %d: %v", p, err)
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Send(sc, 7, []byte("flow-7")) }()
	waitCond(t, "send 7 to stall on the shrunk window", func() bool {
		return s.FlowStats(sc).Blocked == 1
	})
	select {
	case err := <-done:
		t.Fatalf("send 7 completed through a 2-position window at start 5: %v", err)
	default:
	}
	for _, r := range c.Receivers {
		for p := ids.Position(5); p <= 6; p++ {
			if _, err := r.Receive(sc, p); err != nil {
				t.Fatalf("receive %d: %v", p, err)
			}
		}
		r.MoveWindow(sc, 7)
	}
	if err := <-done; err != nil {
		t.Fatalf("send 7 after drain: %v", err)
	}

	// A sender-requested move admits the Send behind it at once — that
	// is not a stall — and the positions it skips were not drained by
	// anyone: Acked only follows the receiver quorum, which a single
	// sender's Move does not shift.
	before := s.FlowStats(sc)
	s.MoveWindow(sc, 20)
	if err := s.Send(sc, 20, []byte("flow-20")); err != nil {
		t.Fatalf("send 20 after own move: %v", err)
	}
	if st = s.FlowStats(sc); st.Blocked != before.Blocked || st.Acked != before.Acked || st.Outstanding != 1 {
		t.Fatalf("after own move to 20: %+v, want blocked/acked unchanged from %+v and 1 outstanding", st, before)
	}
	// Once the other senders move too, the receivers follow and
	// announce 20: now the quorum has passed 7..19.
	for _, snd := range c.Senders[1:] {
		snd.MoveWindow(sc, 20)
	}
	waitCond(t, "receiver quorum to announce the move", func() bool {
		return s.FlowStats(sc).Acked == before.Acked+13
	})
	if got := s.FlowStats(sc).Blocked; got != before.Blocked {
		t.Fatalf("blocked = %d after the quorum caught up, want %d", got, before.Blocked)
	}

	// Growing the window back wakes nothing retroactively but must
	// clamp to the configured capacity on both ends.
	s.SetCapacity(sc, 1000)
	if got := s.FlowStats(sc).Capacity; got != 8 {
		t.Fatalf("capacity after oversized grow = %d, want the configured 8", got)
	}
	s.SetCapacity(sc, 0)
	if got := s.FlowStats(sc).Capacity; got != 1 {
		t.Fatalf("capacity after zero request = %d, want the floor 1", got)
	}
}

// testSetCapacityUnblocksWaiters: a Send stalled on a shrunk window
// completes as soon as the auto-sizer grows it again — no ack needed.
func testSetCapacityUnblocksWaiters(t *testing.T, factory Factory) {
	const sc = ids.Subchannel(4)
	c := factory(t, Options{Capacity: 8})
	defer c.Close()
	s := c.Senders[0]

	s.SetCapacity(sc, 1)
	if err := s.Send(sc, 1, []byte("a")); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Send(sc, 2, []byte("b")) }()
	waitCond(t, "send 2 to stall", func() bool { return s.FlowStats(sc).Blocked == 1 })
	s.SetCapacity(sc, 4)
	if err := <-done; err != nil {
		t.Fatalf("send 2 after grow: %v", err)
	}
	if got := s.FlowStats(sc).Outstanding; got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
}
