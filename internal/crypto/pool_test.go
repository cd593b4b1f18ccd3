package crypto

import (
	"crypto"
	"crypto/x509"
	"sync"
	"testing"

	"spider/internal/ids"
)

// privateKeyID extracts a comparable identity for the suite's signing
// key, so distinctness checks work across key types.
func privateKeyID(t *testing.T, n ids.NodeID, s Suite) string {
	t.Helper()
	key := s.(*suite).key
	if key == nil {
		t.Fatalf("node %v: nil private key", n)
	}
	der, err := x509.MarshalPKIXPublicKey(key.Public())
	if err != nil {
		t.Fatalf("node %v: %v", n, err)
	}
	return string(der)
}

// checkDistinctKeys asserts every key is present and no two nodes share
// a private key.
func checkDistinctKeys(t *testing.T, suites map[ids.NodeID]Suite, nodes []ids.NodeID) {
	t.Helper()
	seen := make(map[string]ids.NodeID, len(nodes))
	for _, n := range nodes {
		s, ok := suites[n]
		if !ok || s == nil {
			t.Fatalf("node %v: missing suite", n)
		}
		id := privateKeyID(t, n, s)
		if prev, dup := seen[id]; dup {
			t.Fatalf("nodes %v and %v share a key", prev, n)
		}
		seen[id] = n
	}
}

// TestNewSuitesRSAKeysDistinct is the regression test for the devKeys
// loop-variable capture bug: workers racing on one slot left nil keys
// (panicking NewSuites) or duplicate keys in the pool.
func TestNewSuitesRSAKeysDistinct(t *testing.T) {
	nodes := make([]ids.NodeID, 24)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	checkDistinctKeys(t, NewSuites(nodes, SuiteRSA), nodes)
}

// TestNewSuitesRSAConcurrent builds RSA suites from several goroutines
// at once; every caller must observe complete, pairwise-distinct keys.
func TestNewSuitesRSAConcurrent(t *testing.T) {
	nodes := make([]ids.NodeID, 32)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	const callers = 8
	results := make([]map[ids.NodeID]Suite, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Vary n so concurrent calls hit both the cached and the
			// generating paths.
			results[c] = NewSuites(nodes[:16+2*c], SuiteRSA)
		}(c)
	}
	wg.Wait()
	for c, suites := range results {
		checkDistinctKeys(t, suites, nodes[:16+2*c])
	}
}

// TestNewSuitesEd25519KeysDistinct mirrors the RSA distinctness check
// for the Ed25519 dev-key pool.
func TestNewSuitesEd25519KeysDistinct(t *testing.T) {
	nodes := make([]ids.NodeID, 24)
	for i := range nodes {
		nodes[i] = ids.NodeID(i + 1)
	}
	checkDistinctKeys(t, NewSuites(nodes, SuiteEd25519), nodes)
}

// TestDevKeysPrefixStable asserts repeated calls hand out the same keys
// in slice order, for every key-file suite: suites built by separate
// NewSuites calls within one process must be able to verify each other.
func TestDevKeysPrefixStable(t *testing.T) {
	for _, kind := range RegisteredSuiteKinds() {
		if !HasKeyFiles(kind) {
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			a := devKeys(kind, 8)
			b := devKeys(kind, 4)
			for i := range b {
				if !a[i].(interface{ Equal(crypto.PrivateKey) bool }).Equal(b[i]) {
					t.Fatalf("key %d differs between calls", i)
				}
			}
		})
	}
}
