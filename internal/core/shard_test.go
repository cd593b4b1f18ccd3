package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/app"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
)

func TestShardMapOf(t *testing.T) {
	m := ShardMap{Shards: 4}
	hit := make(map[ShardID]int)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		s := m.Of(key)
		if s < 0 || int(s) >= m.Shards {
			t.Fatalf("Of(%q) = %d out of range [0,%d)", key, s, m.Shards)
		}
		if again := m.Of(key); again != s {
			t.Fatalf("Of(%q) not deterministic: %d then %d", key, s, again)
		}
		hit[s]++
	}
	for s := ShardID(0); int(s) < m.Shards; s++ {
		if hit[s] == 0 {
			t.Fatalf("no key hashed to shard %d: %v", s, hit)
		}
	}

	// Unsharded maps route everything to shard 0.
	for _, shards := range []int{0, 1} {
		m := ShardMap{Shards: shards}
		if s := m.Of("anything"); s != 0 {
			t.Fatalf("ShardMap{Shards:%d}.Of = %d, want 0", shards, s)
		}
	}
}

func TestShardGroupIdentity(t *testing.T) {
	g := ids.Group{ID: 10, Members: []ids.NodeID{11, 12, 13}, F: 1}

	// Shard 0 is the unsharded identity: same group id, members, f.
	s0 := ShardGroup(g, 0)
	if !reflect.DeepEqual(s0, g) {
		t.Fatalf("ShardGroup(g, 0) = %+v, want %+v", s0, g)
	}

	// Other shards offset only the group id; the member set is shared.
	s3 := ShardGroup(g, 3)
	if s3.ID != g.ID+3 {
		t.Fatalf("ShardGroup(g, 3).ID = %d, want %d", s3.ID, g.ID+3)
	}
	if !reflect.DeepEqual(s3.Members, g.Members) || s3.F != g.F {
		t.Fatalf("ShardGroup(g, 3) changed members: %+v", s3)
	}

	// The result is a clone: mutating it must not alias the input.
	s3.Members[0] = 99
	if g.Members[0] != 11 {
		t.Fatal("ShardGroup aliased the input member slice")
	}
}

// sortedByMergeRule reports whether entries obey the documented
// deterministic interleave: ascending (Seq, Shard).
func sortedByMergeRule(entries []ShardSeq) bool {
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Seq > b.Seq || (a.Seq == b.Seq && a.Shard > b.Shard) {
			return false
		}
	}
	return true
}

func TestMergeOrderProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}

	// The output is sorted by (Seq, Shard) and is a permutation of the
	// input; the input itself is never mutated.
	sortedAndPermutation := func(raw []uint16) bool {
		in := make([]ShardSeq, len(raw))
		for i, v := range raw {
			in[i] = ShardSeq{Shard: ShardID(v % MaxShards), Seq: ids.SeqNr(v / MaxShards)}
		}
		before := make([]ShardSeq, len(in))
		copy(before, in)
		out := MergeOrder(in)
		if !reflect.DeepEqual(in, before) {
			return false // input mutated
		}
		if len(out) != len(in) || !sortedByMergeRule(out) {
			return false
		}
		count := func(s []ShardSeq) map[ShardSeq]int {
			m := make(map[ShardSeq]int)
			for _, e := range s {
				m[e]++
			}
			return m
		}
		return reflect.DeepEqual(count(in), count(out))
	}
	if err := quick.Check(sortedAndPermutation, cfg); err != nil {
		t.Fatalf("merge order not a sorted permutation: %v", err)
	}

	// Permutation invariance: every interleaving of the per-shard
	// streams merges to the same global order — the property that makes
	// the merge rule deterministic across observers.
	permutationInvariant := func(raw []uint16, seed int64) bool {
		in := make([]ShardSeq, len(raw))
		for i, v := range raw {
			in[i] = ShardSeq{Shard: ShardID(v % MaxShards), Seq: ids.SeqNr(v / MaxShards)}
		}
		shuffled := append([]ShardSeq(nil), in...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return reflect.DeepEqual(MergeOrder(in), MergeOrder(shuffled))
	}
	if err := quick.Check(permutationInvariant, cfg); err != nil {
		t.Fatalf("merge order not permutation-invariant: %v", err)
	}

	// Per-shard commit order survives the merge: each shard's entries
	// appear in ascending sequence order in the merged stream.
	perShardOrder := func(raw []uint16) bool {
		in := make([]ShardSeq, len(raw))
		for i, v := range raw {
			in[i] = ShardSeq{Shard: ShardID(v % MaxShards), Seq: ids.SeqNr(v / MaxShards)}
		}
		out := MergeOrder(in)
		last := make(map[ShardID]ids.SeqNr)
		for _, e := range out {
			if prev, ok := last[e.Shard]; ok && e.Seq < prev {
				return false
			}
			last[e.Shard] = e.Seq
		}
		return true
	}
	if err := quick.Check(perShardOrder, cfg); err != nil {
		t.Fatalf("merge order broke per-shard sequence order: %v", err)
	}
}

// shardedDeployment runs S independent Spider agreement sessions over
// the same physical nodes: agreement shard s uses group id 1+s over
// nodes 1..4, and each execution region's shard s uses group id
// base+s over the region's nodes. Shard 0 is byte-for-byte the
// unsharded deployment.
type shardedDeployment struct {
	t      *testing.T
	net    *memnet.Network
	shards int

	agBase    ids.Group
	execBases []ids.Group
	suites    map[ids.NodeID]crypto.Suite

	agreement [][]*AgreementReplica               // [shard][member]
	execution map[ids.GroupID][]*ExecutionReplica // keyed by shard-qualified group id
	apps      map[ids.GroupID]map[ids.NodeID]*app.KVStore
}

func newShardedDeployment(t *testing.T, shards, numExec int, tun Tunables, clientIDs ...ids.ClientID) *shardedDeployment {
	t.Helper()
	return newShardedDeploymentOn(t, memnet.New(memnet.Options{}), shards, numExec, tun, clientIDs...)
}

// newShardedDeploymentOn builds the deployment on a network the caller
// prepared, for tests that place the nodes on the emulated WAN.
func newShardedDeploymentOn(t *testing.T, net *memnet.Network, shards, numExec int, tun Tunables, clientIDs ...ids.ClientID) *shardedDeployment {
	t.Helper()
	d := &shardedDeployment{
		t:         t,
		net:       net,
		shards:    shards,
		execution: make(map[ids.GroupID][]*ExecutionReplica),
		apps:      make(map[ids.GroupID]map[ids.NodeID]*app.KVStore),
	}
	d.agBase = ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	all := append([]ids.NodeID{}, d.agBase.Members...)
	for g := 1; g <= numExec; g++ {
		base := ids.NodeID(10 * (g + 1))
		group := ids.Group{
			ID:      ids.GroupID(10 * (g + 1)),
			Members: []ids.NodeID{base + 1, base + 2, base + 3},
			F:       1,
		}
		d.execBases = append(d.execBases, group)
		all = append(all, group.Members...)
	}
	for _, c := range clientIDs {
		all = append(all, c.Node())
	}
	d.suites = crypto.NewSuites(all, crypto.SuiteInsecure)

	shardMap := ShardMap{Shards: shards}
	for s := 0; s < shards; s++ {
		shard := ShardID(s)
		agGroup := ShardGroup(d.agBase, shard)
		var entries []GroupEntry
		for _, g := range d.execBases {
			entries = append(entries, GroupEntry{
				Group:  ShardGroup(g, shard),
				Region: fmt.Sprintf("region-%d", g.ID),
			})
		}
		var ars []*AgreementReplica
		for _, m := range agGroup.Members {
			ar, err := NewAgreementReplica(AgreementConfig{
				Group:            agGroup,
				ExecGroups:       entries,
				Suite:            d.suites[m],
				Node:             d.net.Node(m),
				Tunables:         tun,
				ConsensusTimeout: 500 * time.Millisecond,
				Shard:            shard,
			})
			if err != nil {
				t.Fatalf("shard %d agreement replica %v: %v", s, m, err)
			}
			ars = append(ars, ar)
		}
		d.agreement = append(d.agreement, ars)

		for gi, base := range d.execBases {
			g := ShardGroup(base, shard)
			var peers []ids.Group
			for gj, other := range d.execBases {
				if gj != gi {
					peers = append(peers, ShardGroup(other, shard))
				}
			}
			d.apps[g.ID] = make(map[ids.NodeID]*app.KVStore)
			for _, m := range g.Members {
				kv := app.NewKVStore()
				d.apps[g.ID][m] = kv
				er, err := NewExecutionReplica(ExecutionConfig{
					Group:          g,
					AgreementGroup: agGroup,
					PeerGroups:     peers,
					Suite:          d.suites[m],
					Node:           d.net.Node(m),
					App:            kv,
					Tunables:       tun,
					Shard:          shard,
					ShardMap:       shardMap,
					KeyOf:          app.OpKey,
				})
				if err != nil {
					t.Fatalf("shard %d execution replica %v: %v", s, m, err)
				}
				d.execution[g.ID] = append(d.execution[g.ID], er)
			}
		}
	}
	t.Cleanup(d.stop)
	return d
}

func (d *shardedDeployment) start() {
	for _, ars := range d.agreement {
		for _, ar := range ars {
			ar.Start()
		}
	}
	for _, ers := range d.execution {
		for _, er := range ers {
			er.Start()
		}
	}
}

func (d *shardedDeployment) stop() {
	for _, ers := range d.execution {
		for _, er := range ers {
			er.Stop()
		}
	}
	for _, ars := range d.agreement {
		for _, ar := range ars {
			ar.Stop()
		}
	}
	d.net.Close()
}

// client builds a shard-routing client homed on execution region 0.
func (d *shardedDeployment) client(id ids.ClientID) *Client {
	d.t.Helper()
	return d.clientAt(id, 0)
}

// clientAt is client with an explicit counter seed, for session tests.
func (d *shardedDeployment) clientAt(id ids.ClientID, counterStart uint64) *Client {
	d.t.Helper()
	var shardGroups []ids.Group
	for s := 0; s < d.shards; s++ {
		shardGroups = append(shardGroups, ShardGroup(d.execBases[0], ShardID(s)))
	}
	c, err := NewClient(ClientConfig{
		ID:             id,
		Group:          shardGroups[0],
		AgreementGroup: d.agBase,
		Suite:          d.suites[id.Node()],
		Node:           d.net.Node(id.Node()),
		Retry:          300 * time.Millisecond,
		Deadline:       20 * time.Second,
		CounterStart:   counterStart,
		ShardGroups:    shardGroups,
		ShardMap:       ShardMap{Shards: d.shards},
		KeyOf:          app.OpKey,
	})
	if err != nil {
		d.t.Fatalf("sharded client %v: %v", id, err)
	}
	return c
}

// readShard performs a synchronized local read against one execution
// replica of the given shard-qualified group.
func (d *shardedDeployment) readShard(gid ids.GroupID, member ids.NodeID, op []byte) app.Result {
	var res app.Result
	for _, er := range d.execution[gid] {
		if er.me == member {
			er.Inspect(func(a Application) {
				res, _ = app.DecodeResult(a.ExecuteRead(op))
			})
		}
	}
	return res
}

// keyForShard finds a key the map routes to the wanted shard.
func keyForShard(m ShardMap, shard ShardID, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if m.Of(k) == shard {
			return k
		}
	}
}

func TestShardedWriteRouting(t *testing.T) {
	const shards = 2
	d := newShardedDeployment(t, shards, 1, testTunables(), 101)
	d.start()
	client := d.client(101)
	m := ShardMap{Shards: shards}

	keys := make([]string, shards)
	for s := 0; s < shards; s++ {
		keys[s] = keyForShard(m, ShardID(s), fmt.Sprintf("route%d", s))
		if _, err := client.Write(putOp(keys[s], fmt.Sprintf("v%d", s))); err != nil {
			t.Fatalf("write to shard %d: %v", s, err)
		}
	}
	// Both keys read back through the routed client.
	for s := 0; s < shards; s++ {
		got, err := client.WeakRead(getOp(keys[s]))
		if err != nil {
			t.Fatalf("weak read shard %d: %v", s, err)
		}
		if r := decodeResult(t, got); !r.Found || string(r.Value) != fmt.Sprintf("v%d", s) {
			t.Fatalf("weak read shard %d: %+v", s, r)
		}
	}
	// Partition isolation: each key lives only in its owning shard's
	// replicas — the other shard's state machine never saw it.
	for s := 0; s < shards; s++ {
		owner := ShardGroup(d.execBases[0], ShardID(s))
		other := ShardGroup(d.execBases[0], ShardID((s+1)%shards))
		if !d.readShard(owner.ID, owner.Members[0], getOp(keys[s])).Found {
			t.Fatalf("key %q missing from owning shard %d", keys[s], s)
		}
		if d.readShard(other.ID, other.Members[0], getOp(keys[s])).Found {
			t.Fatalf("key %q leaked into shard %d", keys[s], (s+1)%shards)
		}
	}
}

// TestShardedByzantineIsolation injects a faulty client's conflicting
// requests plus raw garbage frames into shard 0's streams and requires
// both shards to keep committing: a malformed batch source on one
// shard must not stall the other shard's subchannels, and shard 0
// itself must stay live for honest clients.
func TestShardedByzantineIsolation(t *testing.T) {
	const shards = 2
	d := newShardedDeployment(t, shards, 1, testTunables(), 101, 102)
	d.start()
	m := ShardMap{Shards: shards}
	target := ShardGroup(d.execBases[0], 0) // shard 0 exec group
	agTarget := ShardGroup(d.agBase, 0)     // shard 0 agreement group

	// Conflicting signed requests, one version per replica (the
	// faulty-client idiom): the shard-0 request channel must not
	// deliver either version.
	faulty := ids.ClientID(102)
	suite := d.suites[faulty.Node()]
	node := d.net.Node(faulty.Node())
	evilKey := keyForShard(m, 0, "evil")
	for i, replica := range target.Members {
		req := ClientRequest{
			Kind:    KindWrite,
			Client:  faulty,
			Counter: 1,
			Op:      putOp(evilKey, fmt.Sprintf("version-%d", i)),
		}
		req.Sig = suite.Sign(crypto.DomainClientRequest, req.SigPayload())
		frame := clientRegistry.EncodeFrame(tagRequest, &req)
		env := sealClientFrame(suite, crypto.DomainClientRequest, frame, replica)
		node.Send(replica, clientStream(target.ID), env)
	}
	// Raw garbage on shard 0's client and consensus streams at every
	// replica: undecodable frames must be dropped without wedging the
	// shard's pipelines.
	garbage := []byte("\xde\xad\xbe\xef not a frame")
	for _, replica := range target.Members {
		node.Send(replica, clientStream(target.ID), garbage)
	}
	for _, replica := range agTarget.Members {
		node.Send(replica, clientStream(agTarget.ID), garbage)
		node.Send(replica, pbftStream(agTarget.ID), garbage)
	}

	honest := d.client(101)
	// Shard 1 commits while shard 0 digests the junk...
	k1 := keyForShard(m, 1, "good")
	if _, err := honest.Write(putOp(k1, "v")); err != nil {
		t.Fatalf("shard 1 write stalled by shard 0 garbage: %v", err)
	}
	// ...and shard 0 itself stays live for honest traffic.
	k0 := keyForShard(m, 0, "good")
	if _, err := honest.Write(putOp(k0, "v")); err != nil {
		t.Fatalf("shard 0 write stalled by garbage on its own streams: %v", err)
	}
	// Neither version of the conflicting write executed anywhere.
	for s := 0; s < shards; s++ {
		g := ShardGroup(d.execBases[0], ShardID(s))
		for _, member := range g.Members {
			if d.readShard(g.ID, member, getOp(evilKey)).Found {
				t.Fatalf("conflicting request executed at shard %d replica %v", s, member)
			}
		}
	}
}

// TestShardedForeignKeyDropped verifies the execution-side routing
// check: a request whose key belongs to another shard is dropped at
// forward time, so a faulty client cannot plant keys in a foreign
// partition by sending to the wrong shard's group.
func TestShardedForeignKeyDropped(t *testing.T) {
	const shards = 2
	d := newShardedDeployment(t, shards, 1, testTunables(), 101, 102)
	d.start()
	m := ShardMap{Shards: shards}

	// A shard-1 key sent (signed, well-formed) to shard 0's group.
	wrong := ids.ClientID(102)
	suite := d.suites[wrong.Node()]
	node := d.net.Node(wrong.Node())
	k1 := keyForShard(m, 1, "foreign")
	target := ShardGroup(d.execBases[0], 0)
	req := ClientRequest{
		Kind:    KindWrite,
		Client:  wrong,
		Counter: 1,
		Op:      putOp(k1, "planted"),
	}
	req.Sig = suite.Sign(crypto.DomainClientRequest, req.SigPayload())
	frame := clientRegistry.EncodeFrame(tagRequest, &req)
	for _, replica := range target.Members {
		env := sealClientFrame(suite, crypto.DomainClientRequest, frame, replica)
		node.Send(replica, clientStream(target.ID), env)
	}

	// An honest write on each shard still completes, and the foreign
	// key never appears in either shard.
	honest := d.client(101)
	for s := 0; s < shards; s++ {
		k := keyForShard(m, ShardID(s), fmt.Sprintf("after%d", s))
		if _, err := honest.Write(putOp(k, "v")); err != nil {
			t.Fatalf("shard %d write: %v", s, err)
		}
	}
	for s := 0; s < shards; s++ {
		g := ShardGroup(d.execBases[0], ShardID(s))
		for _, member := range g.Members {
			if d.readShard(g.ID, member, getOp(k1)).Found && s == 0 {
				t.Fatalf("foreign-shard key executed at shard %d replica %v", s, member)
			}
		}
	}
}

// TestShardKeyDistribution pins down that keyForShard terminates for
// every shard of the largest supported map — i.e. FNV-1a spreads keys
// over all MaxShards partitions.
func TestShardKeyDistribution(t *testing.T) {
	m := ShardMap{Shards: MaxShards}
	seen := make(map[ShardID]bool)
	for i := 0; i < 4096 && len(seen) < MaxShards; i++ {
		seen[m.Of(fmt.Sprintf("k%d", i))] = true
	}
	if len(seen) != MaxShards {
		got := make([]int, 0, len(seen))
		for s := range seen {
			got = append(got, int(s))
		}
		sort.Ints(got)
		t.Fatalf("only shards %v reached in 4096 keys", got)
	}
}
