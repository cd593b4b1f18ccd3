package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
)

// deployment is a full in-process Spider system for tests.
type deployment struct {
	t   *testing.T
	net *memnet.Network

	agGroup    ids.Group
	execGroups []ids.Group
	suites     map[ids.NodeID]crypto.Suite

	agreement []*AgreementReplica
	execution map[ids.GroupID][]*ExecutionReplica
	apps      map[ids.NodeID]*app.KVStore

	// commit aggregates the commit-channel byte and dedup counters of
	// every replica in the deployment.
	commit *CommitStats
}

// testTunables keeps checkpoint intervals small so tests exercise them.
func testTunables() Tunables {
	return Tunables{
		ExecutionCheckpointInterval: 8,
		AgreementCheckpointInterval: 8,
		CommitChannelCapacity:       16,
		AgreementWindow:             16,
	}
}

// newDeployment builds an agreement group (nodes 1..4) and numExec
// execution groups (nodes 10g+1..10g+3, group ids 10g).
func newDeployment(t *testing.T, numExec int, tun Tunables, adminClients []ids.ClientID, clientIDs ...ids.ClientID) *deployment {
	t.Helper()
	return newDeploymentBatch(t, numExec, tun, 0, adminClients, clientIDs...)
}

// newDeploymentBatch is newDeployment with an explicit consensus batch
// size (0 = default), so tests can pin BatchSize = 1 and verify the
// unbatched semantics stay reachable.
func newDeploymentBatch(t *testing.T, numExec int, tun Tunables, batch int, adminClients []ids.ClientID, clientIDs ...ids.ClientID) *deployment {
	t.Helper()
	return newDeploymentDedup(t, numExec, tun, batch, DedupOn, adminClients, clientIDs...)
}

// newDeploymentDedup additionally pins the commit-channel dedup mode,
// so tests can compare the reference and full-content data planes.
func newDeploymentDedup(t *testing.T, numExec int, tun Tunables, batch int, dedup DedupMode, adminClients []ids.ClientID, clientIDs ...ids.ClientID) *deployment {
	t.Helper()
	return newDeploymentSuite(t, numExec, tun, batch, dedup, crypto.SuiteInsecure, adminClients, clientIDs...)
}

// newDeploymentSuite additionally selects the crypto suite, for tests
// that measure byte costs with the paper's RSA-1024 signatures.
func newDeploymentSuite(t *testing.T, numExec int, tun Tunables, batch int, dedup DedupMode, suite crypto.SuiteKind, adminClients []ids.ClientID, clientIDs ...ids.ClientID) *deployment {
	t.Helper()
	return newDeploymentOn(t, memnet.New(memnet.Options{}), numExec, tun, batch, dedup, suite, adminClients, clientIDs...)
}

// newDeploymentOn builds the deployment on a network the caller
// prepared, for tests that place the nodes on the emulated WAN.
func newDeploymentOn(t *testing.T, net *memnet.Network, numExec int, tun Tunables, batch int, dedup DedupMode, suite crypto.SuiteKind, adminClients []ids.ClientID, clientIDs ...ids.ClientID) *deployment {
	t.Helper()
	d := &deployment{
		t:         t,
		net:       net,
		execution: make(map[ids.GroupID][]*ExecutionReplica),
		apps:      make(map[ids.NodeID]*app.KVStore),
		commit:    &CommitStats{},
	}
	d.agGroup = ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	all := append([]ids.NodeID{}, d.agGroup.Members...)
	for g := 1; g <= numExec; g++ {
		base := ids.NodeID(10 * (g + 1))
		group := ids.Group{
			ID:      ids.GroupID(10 * (g + 1)),
			Members: []ids.NodeID{base + 1, base + 2, base + 3},
			F:       1,
		}
		d.execGroups = append(d.execGroups, group)
		all = append(all, group.Members...)
	}
	for _, c := range clientIDs {
		all = append(all, c.Node())
	}
	// Reserve ids for groups added at runtime (50x range).
	for n := ids.NodeID(51); n <= 53; n++ {
		all = append(all, n)
	}
	d.suites = crypto.NewSuites(all, suite)

	var entries []GroupEntry
	for _, g := range d.execGroups {
		entries = append(entries, GroupEntry{Group: g, Region: fmt.Sprintf("region-%d", g.ID)})
	}
	for _, m := range d.agGroup.Members {
		ar, err := NewAgreementReplica(AgreementConfig{
			Group:            d.agGroup,
			ExecGroups:       entries,
			AdminClients:     adminClients,
			Suite:            d.suites[m],
			Node:             d.net.Node(m),
			Tunables:         tun,
			ConsensusTimeout: 500 * time.Millisecond,
			ConsensusBatch:   batch,
			CommitDedup:      dedup,
			CommitStats:      d.commit,
		})
		if err != nil {
			t.Fatalf("agreement replica %v: %v", m, err)
		}
		d.agreement = append(d.agreement, ar)
	}
	for gi, g := range d.execGroups {
		var peers []ids.Group
		for gj, other := range d.execGroups {
			if gj != gi {
				peers = append(peers, other)
			}
		}
		for _, m := range g.Members {
			kv := app.NewKVStore()
			d.apps[m] = kv
			er, err := NewExecutionReplica(ExecutionConfig{
				Group:          g,
				AgreementGroup: d.agGroup,
				PeerGroups:     peers,
				Suite:          d.suites[m],
				Node:           d.net.Node(m),
				App:            kv,
				Tunables:       tun,
				CommitDedup:    dedup,
				CommitStats:    d.commit,
			})
			if err != nil {
				t.Fatalf("execution replica %v: %v", m, err)
			}
			d.execution[g.ID] = append(d.execution[g.ID], er)
		}
	}
	t.Cleanup(d.stop)
	return d
}

func (d *deployment) start() {
	for _, ar := range d.agreement {
		ar.Start()
	}
	for _, ers := range d.execution {
		for _, er := range ers {
			er.Start()
		}
	}
}

func (d *deployment) stop() {
	for _, ers := range d.execution {
		for _, er := range ers {
			er.Stop()
		}
	}
	for _, ar := range d.agreement {
		ar.Stop()
	}
	d.net.Close()
}

func (d *deployment) client(id ids.ClientID, group ids.Group) *Client {
	d.t.Helper()
	c, err := NewClient(ClientConfig{
		ID:             id,
		Group:          group,
		AgreementGroup: d.agGroup,
		Suite:          d.suites[id.Node()],
		Node:           d.net.Node(id.Node()),
		Retry:          300 * time.Millisecond,
		Deadline:       20 * time.Second,
	})
	if err != nil {
		d.t.Fatalf("client %v: %v", id, err)
	}
	return c
}

func putOp(key, value string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: []byte(value)})
}

func getOp(key string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpGet, Key: key})
}

func incOp(key string, delta int64) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpInc, Key: key, Delta: delta})
}

// replicaRead performs a synchronized local read against one
// execution replica's application.
func replicaRead(d *deployment, gid ids.GroupID, member ids.NodeID, op []byte) app.Result {
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

func decodeResult(t *testing.T, payload []byte) app.Result {
	t.Helper()
	res, err := app.DecodeResult(payload)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return res
}

func TestWriteAndWeakRead(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	res, err := client.Write(putOp("greeting", "hello"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if r := decodeResult(t, res); !r.OK {
		t.Fatalf("write result: %+v", r)
	}

	got, err := client.WeakRead(getOp("greeting"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || string(r.Value) != "hello" {
		t.Fatalf("weak read result: %+v", r)
	}
}

func TestWritePropagatesToAllGroups(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101, 102)
	d.start()
	writer := d.client(101, d.execGroups[0])
	reader := d.client(102, d.execGroups[1])

	if _, err := writer.Write(putOp("k", "v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The other group applies the write asynchronously; weak reads
	// become consistent shortly after.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := reader.WeakRead(getOp("k"))
		if err == nil {
			if r := decodeResult(t, got); r.Found && string(r.Value) == "v" {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("write never reached the second execution group")
}

func TestStrongReadAcrossGroups(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101, 102)
	d.start()
	writer := d.client(101, d.execGroups[0])
	reader := d.client(102, d.execGroups[1])

	if _, err := writer.Write(putOp("k", "strong")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// A strong read is ordered after the write, so it must observe it
	// regardless of which group serves it.
	got, err := reader.StrongRead(getOp("k"))
	if err != nil {
		t.Fatalf("strong read: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || string(r.Value) != "strong" {
		t.Fatalf("strong read result: %+v", r)
	}
}

func TestAtMostOnceExecution(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	for i := 1; i <= 5; i++ {
		res, err := client.Write(incOp("counter", 1))
		if err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
		if r := decodeResult(t, res); r.Counter != int64(i) {
			t.Fatalf("inc %d returned counter %d", i, r.Counter)
		}
	}
	// Every replica of both groups converges to exactly 5.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, g := range d.execGroups {
			for _, m := range g.Members {
				if replicaRead(d, g.ID, m, getOp("counter")).Counter != 5 {
					done = false
				}
			}
		}
		if done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("replicas did not converge to counter=5 (duplicate or lost execution)")
}

func TestManyWritesThroughCheckpoints(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	// 3x the checkpoint interval: windows must keep moving.
	const writes = 24
	for i := 0; i < writes; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, err := client.WeakRead(getOp("k23"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if r := decodeResult(t, got); !r.Found {
		t.Fatal("last write lost")
	}
}

func TestLaggingExecutionReplicaCatchesUp(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	// Disconnect one replica of group 0, write past several execution
	// checkpoints, reconnect, and require it to catch up via fetch.
	straggler := d.execGroups[0].Members[2]
	d.net.Isolate(straggler, true)

	const writes = 20 // > 2 checkpoint intervals of 8
	for i := 0; i < writes; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	d.net.Isolate(straggler, false)

	var er *ExecutionReplica
	for _, cand := range d.execution[d.execGroups[0].ID] {
		if cand.me == straggler {
			er = cand
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if er.Seq() >= ids.SeqNr(writes-8) { // within one checkpoint of the tip
			if replicaRead(d, d.execGroups[0].ID, straggler, getOp("k08")).Found {
				return
			}
		}
		// Fresh traffic helps the straggler notice it is behind.
		if _, err := client.Write(putOp("tick", "x")); err != nil {
			t.Fatalf("tick write: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("straggler stuck at seq %d", er.Seq())
}

func TestFaultyClientContained(t *testing.T) {
	d := newDeployment(t, 1, testTunables(), nil, 101, 102)
	d.start()
	group := d.execGroups[0]

	// A faulty client sends conflicting requests to different
	// replicas: the request channel must not deliver either version,
	// and an honest client sharing the group must be unaffected.
	faulty := ids.ClientID(102)
	suite := d.suites[faulty.Node()]
	node := d.net.Node(faulty.Node())
	for i, replica := range group.Members {
		req := ClientRequest{
			Kind:    KindWrite,
			Client:  faulty,
			Counter: 1,
			Op:      putOp("evil", fmt.Sprintf("version-%d", i)),
		}
		req.Sig = suite.Sign(crypto.DomainClientRequest, req.SigPayload())
		frame := clientRegistry.EncodeFrame(tagRequest, &req)
		env := sealClientFrame(suite, crypto.DomainClientRequest, frame, replica)
		node.Send(replica, clientStream(group.ID), env)
	}

	honest := d.client(101, group)
	if _, err := honest.Write(putOp("good", "value")); err != nil {
		t.Fatalf("honest client blocked by faulty client: %v", err)
	}
	// No version of the conflicting write may have executed.
	for _, m := range group.Members {
		if replicaRead(d, group.ID, m, getOp("evil")).Found {
			t.Fatalf("conflicting request executed at replica %v", m)
		}
	}
}

func TestAgreementLeaderFailure(t *testing.T) {
	d := newDeployment(t, 1, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	if _, err := client.Write(putOp("before", "x")); err != nil {
		t.Fatalf("write before failure: %v", err)
	}

	// Kill the initial PBFT leader (agreement node 1). The view
	// change is intra-region; clients must keep completing writes.
	d.net.Isolate(1, true)
	d.agreement[0].Stop()

	if _, err := client.Write(putOp("after", "y")); err != nil {
		t.Fatalf("write after leader failure: %v", err)
	}
	got, err := client.WeakRead(getOp("after"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || string(r.Value) != "y" {
		t.Fatalf("read after view change: %+v", r)
	}
}

func TestAddExecutionGroupAtRuntime(t *testing.T) {
	tun := testTunables()
	d := newDeployment(t, 1, tun, []ids.ClientID{200}, 101, 200, 103)
	d.start()
	client := d.client(101, d.execGroups[0])

	// Some history before the new group joins.
	for i := 0; i < 10; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("pre%02d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// Start the new group's replicas (ids 51..53, group 50).
	newGroup := ids.Group{ID: 50, Members: []ids.NodeID{51, 52, 53}, F: 1}
	var newReplicas []*ExecutionReplica
	for _, m := range newGroup.Members {
		kv := app.NewKVStore()
		d.apps[m] = kv
		er, err := NewExecutionReplica(ExecutionConfig{
			Group:          newGroup,
			AgreementGroup: d.agGroup,
			PeerGroups:     d.execGroups, // fetch state from existing groups
			Suite:          d.suites[m],
			Node:           d.net.Node(m),
			App:            kv,
			Tunables:       tun,
		})
		if err != nil {
			t.Fatalf("new replica %v: %v", m, err)
		}
		er.Start()
		newReplicas = append(newReplicas, er)
	}
	t.Cleanup(func() {
		for _, er := range newReplicas {
			er.Stop()
		}
	})

	admin := d.client(200, d.execGroups[0])
	if err := admin.Admin(AdminOp{Kind: AdminAddGroup, Group: newGroup, Region: "sao-paulo"}); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	// The registry must reflect the new group at fa+1 replicas.
	info, err := admin.QueryRegistry()
	if err != nil {
		t.Fatalf("registry query: %v", err)
	}
	found := false
	for _, e := range info.Entries {
		if e.Group.ID == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry missing new group: %+v", info.Entries)
	}

	// Keep writing so execution checkpoints cover the join point; the
	// new group must catch up and then serve reads locally.
	newClient := d.client(103, newGroup)
	deadline := time.Now().Add(20 * time.Second)
	i := 0
	for time.Now().Before(deadline) {
		if _, err := client.Write(putOp(fmt.Sprintf("post%02d", i), "v")); err != nil {
			t.Fatalf("post write: %v", err)
		}
		i++
		got, err := newClient.WeakRead(getOp("pre05"))
		if err == nil {
			if r := decodeResult(t, got); r.Found {
				return // new group serves pre-join state: success
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("new execution group never caught up")
}

func TestRemoveExecutionGroup(t *testing.T) {
	d := newDeployment(t, 2, testTunables(), []ids.ClientID{200}, 101, 200)
	d.start()
	client := d.client(101, d.execGroups[0])
	admin := d.client(200, d.execGroups[0])

	if _, err := client.Write(putOp("k", "v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := admin.Admin(AdminOp{Kind: AdminRemoveGroup, Group: d.execGroups[1]}); err != nil {
		t.Fatalf("RemoveGroup: %v", err)
	}
	info, err := admin.QueryRegistry()
	if err != nil {
		t.Fatalf("registry query: %v", err)
	}
	for _, e := range info.Entries {
		if e.Group.ID == d.execGroups[1].ID {
			t.Fatal("removed group still in registry")
		}
	}
	// The system keeps operating with the remaining group.
	if _, err := client.Write(putOp("k2", "v2")); err != nil {
		t.Fatalf("write after removal: %v", err)
	}
}

func TestUnauthorizedAdminRejected(t *testing.T) {
	d := newDeployment(t, 1, testTunables(), []ids.ClientID{200}, 101)
	d.start()
	// Client 101 is not on the admin list; the operation must time
	// out (never ordered) rather than execute.
	rogue := d.client(101, d.execGroups[0])
	rogue.cfg.Deadline = 2 * time.Second
	err := rogue.Admin(AdminOp{
		Kind:  AdminRemoveGroup,
		Group: d.execGroups[0],
	})
	if err == nil {
		t.Fatal("unauthorized admin op succeeded")
	}
	info := d.agreement[1].Registry()
	if len(info.Entries) != 1 {
		t.Fatalf("registry changed by unauthorized client: %+v", info.Entries)
	}
}

func TestSCChannelVariant(t *testing.T) {
	tun := testTunables()
	tun.Channel = ChannelSC
	tun.ChannelProgressMS = 20
	tun.ChannelCollectorMS = 200
	d := newDeployment(t, 2, tun, nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])

	for i := 0; i < 10; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("write %d over IRMC-SC: %v", i, err)
		}
	}
	got, err := client.WeakRead(getOp("k9"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if r := decodeResult(t, got); !r.Found {
		t.Fatal("write over IRMC-SC lost")
	}
}

func TestWeakReadIsLocal(t *testing.T) {
	d := newDeployment(t, 1, testTunables(), nil, 101)
	d.start()
	client := d.client(101, d.execGroups[0])
	if _, err := client.Write(putOp("k", "v")); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Cut the execution group off from the agreement group: weak
	// reads must still complete (Section 3.1: agreement outage does
	// not affect weakly consistent reads).
	for _, e := range d.execGroups[0].Members {
		for _, a := range d.agGroup.Members {
			d.net.Cut(e, a, true)
		}
	}
	got, err := client.WeakRead(getOp("k"))
	if err != nil {
		t.Fatalf("weak read during agreement outage: %v", err)
	}
	if r := decodeResult(t, got); !r.Found || !bytes.Equal(r.Value, []byte("v")) {
		t.Fatalf("weak read result: %+v", r)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("empty client config accepted")
	}
}

func TestTunablesValidation(t *testing.T) {
	bad := Tunables{ExecutionCheckpointInterval: 64, CommitChannelCapacity: 32}
	if err := bad.validate(); err == nil {
		t.Fatal("ke > commit capacity accepted (liveness violation)")
	}
	bad = Tunables{AgreementCheckpointInterval: 64, AgreementWindow: 32, CommitChannelCapacity: 64, ExecutionCheckpointInterval: 32}
	if err := bad.validate(); err == nil {
		t.Fatal("AG-WIN < ka accepted")
	}
}
