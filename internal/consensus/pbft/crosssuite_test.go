package pbft

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
	"spider/internal/wire"
)

// TestCrossSuitePrePrepareRejected pins signature admission when the
// deployment runs Ed25519: pre-prepares signed by the wrong suite (an
// RSA signer for the same node id), or carrying truncated/padded/empty
// variants of a genuine Ed25519 signature, must never enter the log —
// and rejecting them must not stall the replica, which still orders a
// correctly signed batch afterwards.
func TestCrossSuitePrePrepareRejected(t *testing.T) {
	members := []ids.NodeID{1, 2, 3, 4}
	group := ids.Group{ID: 1, Members: members, F: 1}
	suites := crypto.NewSuites(members, crypto.SuiteEd25519)
	rsaSuites := crypto.NewSuites(members, crypto.SuiteRSA)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	col := &collector{}
	r, err := New(Config{
		Group:          group,
		Suite:          suites[2],
		Node:           net.Node(2),
		Stream:         testStream,
		Deliver:        col.deliver,
		BatchSize:      1,
		RequestTimeout: time.Minute, // no view changes during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	send := func(from ids.NodeID, env []byte) { net.Node(from).Send(2, testStream, env) }

	// Forgeries for seq 1, all claiming to come from the view-0 leader.
	forged := []byte("forged-batch")
	frame := registry.EncodeFrame(tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{forged}})
	edSig := suites[1].Sign(crypto.DomainPBFT, frame)
	withSig := func(sig []byte) []byte {
		raw := signedRaw{From: 1, Frame: frame, Sig: sig}
		return wire.Encode(&raw)
	}
	// An RSA signature over the very same frame by node 1's RSA dev
	// identity: 128 bytes where the verifier expects 64.
	send(1, withSig(rsaSuites[1].Sign(crypto.DomainPBFT, frame)))
	// A genuine Ed25519 signature truncated to half its size.
	send(1, withSig(edSig[:crypto.Ed25519SignatureSize/2]))
	// A genuine Ed25519 signature zero-padded out to RSA's 128 bytes.
	send(1, withSig(append(append([]byte(nil), edSig...), make([]byte, 128-len(edSig))...)))
	// No signature at all.
	send(1, withSig(nil))

	// None of the forgeries may seed a log entry. The memnet delivers
	// synchronously into the replica's inbox; give the worker a moment
	// to drain it, then check the log stayed empty.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		n := len(r.core.log)
		r.mu.Unlock()
		if n != 0 {
			t.Fatal("forged pre-prepare was admitted to the log")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replica must still be live: a correctly signed pre-prepare for
	// a different batch, plus MAC prepares/commits, orders and delivers.
	honest := []byte("honest-batch")
	digest := batchDigest([][]byte{honest})
	send(1, sealFrom(suites[1], tagPrePrepare, &prePrepare{View: 0, Seq: 1, Payloads: [][]byte{honest}}))
	send(3, macFrom(suites[3], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(4, macFrom(suites[4], members, tagPrepare, &prepare{View: 0, Seq: 1, Digest: digest}))
	send(3, macFrom(suites[3], members, tagCommit, &commit{View: 0, Seq: 1, Digest: digest}))
	send(4, macFrom(suites[4], members, tagCommit, &commit{View: 0, Seq: 1, Digest: digest}))

	waitDeadline := time.Now().Add(10 * time.Second)
	for col.count() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("honest batch never delivered after rejected forgeries")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, payloads := col.snapshot()
	if !bytes.Equal(payloads[0], honest) {
		t.Fatalf("delivered %q, want %q", payloads[0], honest)
	}
}

// TestEd25519ClusterDelivers runs a full 4-replica cluster under the
// Ed25519 suite in signature mode — the drop-in check that agreement
// works end-to-end with 64-byte signatures on every frame.
func TestEd25519ClusterDelivers(t *testing.T) {
	t.Setenv("SPIDER_SUITE", "ed25519")
	c := newCluster(t, 4, 1, func(_ int, cfg *Config) {
		cfg.NormalCaseAuth = AuthSignatures
	})
	defer c.stop()
	c.start()

	const total = 6
	for i := 0; i < total; i++ {
		c.orderAll(payloadN(i))
	}
	c.waitDeliveries(total, 10*time.Second, nil)

	refSeqs, refPayloads := c.collectors[0].snapshot()
	for ri := 1; ri < 4; ri++ {
		seqs, payloads := c.collectors[ri].snapshot()
		for i := 0; i < total; i++ {
			if seqs[i] != refSeqs[i] || !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("replica %d diverges at %d under ed25519", ri, i)
			}
		}
	}
}
