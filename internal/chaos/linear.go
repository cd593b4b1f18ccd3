// Package chaos drives scripted fault timelines — crash, restart,
// partition, heal, leader kill, load surge — against a running harness
// cluster while continuously checking safety invariants: no divergent
// replicas, no stalled commit stream while the network is healthy, and
// per-key linearizability of the recorded client history.
package chaos

import (
	"fmt"
	"sort"
	"sync"
)

// Obs is one observed counter increment: which client saw which
// post-increment value for which key. OpInc returns the counter after
// the increment, so an increment-only history is per-key linearizable
// exactly when each key's counters form the dense set {1..N} and each
// client's own observations per key are strictly increasing.
type Obs struct {
	Client  int
	Key     string
	Counter int64
}

// History collects observations from concurrent load clients.
type History struct {
	mu  sync.Mutex
	obs []Obs
}

// Record appends one observation.
func (h *History) Record(client int, key string, counter int64) {
	h.mu.Lock()
	h.obs = append(h.obs, Obs{Client: client, Key: key, Counter: counter})
	h.mu.Unlock()
}

// Len returns the number of recorded observations.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.obs)
}

// Snapshot copies the history for checking.
func (h *History) Snapshot() []Obs {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Obs{}, h.obs...)
}

// PerKeyTotals returns the number of increments recorded per key — the
// counter value every execution replica must converge to.
func (h *History) PerKeyTotals() map[string]int64 {
	totals := make(map[string]int64)
	for _, o := range h.Snapshot() {
		totals[o.Key]++
	}
	return totals
}

// CheckLinearizable validates an increment-only history per key:
//
//  1. across all clients, each key's returned counters form the dense
//     set {1..N} — no gap (lost increment), no duplicate (double
//     execution or stale reply);
//  2. each client observes its own operations on a key in strictly
//     increasing counter order (session order).
//
// Linearizability is local: per-key linearizability of every key is
// linearizability of the store as a whole. All violations found are
// returned.
func CheckLinearizable(obs []Obs) []string {
	var violations []string
	perKey := make(map[string][]int64)
	lastOf := make(map[string]int64) // "client/key" -> last counter seen
	for _, o := range obs {
		perKey[o.Key] = append(perKey[o.Key], o.Counter)
		ck := fmt.Sprintf("%d/%s", o.Client, o.Key)
		if last, ok := lastOf[ck]; ok && o.Counter <= last {
			violations = append(violations, fmt.Sprintf(
				"session order: client %d saw key %q counter %d after %d",
				o.Client, o.Key, o.Counter, last))
		}
		lastOf[ck] = o.Counter
	}
	keys := make([]string, 0, len(perKey))
	for key := range perKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sorted := append([]int64(nil), perKey[key]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, c := range sorted {
			if c != int64(i+1) {
				violations = append(violations, fmt.Sprintf(
					"dense set: key %q counters are not {1..%d}: %v (lost or duplicated increment)",
					key, len(sorted), sorted))
				break
			}
		}
	}
	return violations
}
