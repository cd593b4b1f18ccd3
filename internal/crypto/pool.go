package crypto

import (
	"crypto"
	"errors"
	"slices"
	"sync"

	"spider/internal/ids"
)

// devPool caches generated keys, per suite kind, for the lifetime of
// the process so that tests and in-process deployments do not pay
// key-generation cost for every cluster they assemble. The cache is the
// one piece of process-global state in this module; it holds key
// material only, no deployment state, and is safe for concurrent use.
var devPool struct {
	mu   sync.Mutex
	keys map[SuiteKind][]crypto.Signer
}

// devKeys returns n cached keys of a key-file suite, generating any
// missing ones in parallel. Calls hand keys out prefix-stable: the
// first n keys are the same on every call.
func devKeys(kind SuiteKind, n int) []crypto.Signer {
	devPool.mu.Lock()
	defer devPool.mu.Unlock()
	have := devPool.keys[kind]
	if missing := n - len(have); missing > 0 {
		fresh := make([]crypto.Signer, missing)
		errs := make([]error, missing)
		var wg sync.WaitGroup
		for i := range fresh {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fresh[i], errs[i] = kind.spec().newKey()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			// Key generation only fails if the system randomness
			// source is broken; nothing in the process can proceed
			// in that case.
			panic(err)
		}
		if devPool.keys == nil {
			devPool.keys = make(map[SuiteKind][]crypto.Signer)
		}
		have = append(have, fresh...)
		devPool.keys[kind] = have
	}
	return slices.Clone(have[:n])
}

// SuiteKind selects the authentication implementation for a deployment.
// Each kind has a registry entry (see registry.go) naming it and
// providing its key generator.
type SuiteKind int

const (
	// SuiteRSA uses RSA-1024 signatures as in the paper's evaluation.
	// It is the zero value.
	SuiteRSA SuiteKind = iota
	// SuiteInsecure uses HMAC-based pseudo-signatures; fast, for
	// protocol-logic tests and latency-dominated benchmarks.
	SuiteInsecure
	// SuiteEd25519 uses Ed25519 signatures: ~25x faster signing than
	// RSA-1024 and 64-byte signatures (half the WAN certificate bytes).
	SuiteEd25519
)

// NewSuites builds one Suite per node, all sharing a directory and
// master secret. Nodes are assigned pooled keys in slice order, so two
// calls with the same node list yield compatible suites within one
// process.
func NewSuites(nodes []ids.NodeID, kind SuiteKind) map[ids.NodeID]Suite {
	master := []byte("spider-deployment-master-secret")
	keys := make([]crypto.Signer, len(nodes))
	var dir map[ids.NodeID]crypto.PublicKey
	if HasKeyFiles(kind) {
		keys = devKeys(kind, len(nodes))
		dir = make(map[ids.NodeID]crypto.PublicKey, len(nodes))
		for i, n := range nodes {
			dir[n] = keys[i].Public()
		}
	}
	suites := make(map[ids.NodeID]Suite, len(nodes))
	for i, n := range nodes {
		suites[n] = newSuite(n, keys[i], dir, master)
	}
	return suites
}
