package core

import (
	"testing"

	"spider/internal/crypto"
	"spider/internal/ids"
)

// TestCrossSuiteClientRequestRejected runs a full Ed25519 deployment
// and injects client requests whose signatures are wrong-suite (RSA,
// 128 bytes), truncated, zero-padded to RSA's size, or missing. Every
// envelope carries a valid MAC — pairwise MAC keys are suite-
// independent — so rejection must happen at the request-signature
// admission check. None of the forged writes may execute, and an
// honest Ed25519 client sharing the group must be unaffected.
func TestCrossSuiteClientRequestRejected(t *testing.T) {
	d := newDeploymentSuite(t, 1, crypto.SuiteEd25519, nil, 101, 102)
	d.start()
	group := d.execGroups[0]

	forger := ids.ClientID(102)
	edSuite := d.suites[forger.Node()]
	// The same node id under the RSA dev suite: its signatures are
	// valid RSA, but the deployment's directories hold Ed25519 keys.
	rsaSuite := crypto.NewSuites([]ids.NodeID{forger.Node()}, crypto.SuiteRSA)[forger.Node()]
	node := d.net.Node(forger.Node())

	forge := func(counter uint64, key string, sign func(payload []byte) []byte) {
		for _, replica := range group.Members {
			req := ClientRequest{
				Kind:    KindWrite,
				Client:  forger,
				Counter: counter,
				Op:      putOp(key, "forged"),
			}
			req.Sig = sign(req.SigPayload())
			frame := clientRegistry.EncodeFrame(tagRequest, &req)
			env := sealClientFrame(edSuite, crypto.DomainClientRequest, frame, replica)
			node.Send(replica, clientStream(group.ID), env)
		}
	}

	forge(1, "forged-rsa", func(p []byte) []byte {
		return rsaSuite.Sign(crypto.DomainClientRequest, p)
	})
	forge(2, "forged-trunc", func(p []byte) []byte {
		return edSuite.Sign(crypto.DomainClientRequest, p)[:crypto.Ed25519SignatureSize/2]
	})
	forge(3, "forged-padded", func(p []byte) []byte {
		sig := edSuite.Sign(crypto.DomainClientRequest, p)
		return append(sig, make([]byte, 128-len(sig))...)
	})
	forge(4, "forged-unsigned", func(p []byte) []byte { return nil })

	// The honest client's write runs the complete Ed25519 path —
	// request, agreement, commit channel, execution, reply — after the
	// forgeries, proving nothing stalled.
	honest := d.client(101, group)
	if _, err := honest.Write(putOp("good", "value")); err != nil {
		t.Fatalf("honest client blocked by forged requests: %v", err)
	}
	for _, key := range []string{"forged-rsa", "forged-trunc", "forged-padded", "forged-unsigned"} {
		for _, m := range group.Members {
			if replicaRead(d, group.ID, m, getOp(key)).Found {
				t.Fatalf("request %s executed at replica %v", key, m)
			}
		}
	}
}
