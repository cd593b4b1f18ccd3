package tcpnet

import (
	"slices"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/deploy"
	"spider/internal/ids"
)

// TestSequentialClientProcesses mimics cmd/spider-client: short-lived
// client processes share one identity and address, each with a fresh
// clock-derived counter epoch.
func TestSequentialClientProcesses(t *testing.T) {
	agGroup := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	execGroup := ids.Group{ID: 10, Members: []ids.NodeID{11, 12, 13}, F: 1}
	clientID := ids.ClientID(101)
	all := append(append([]ids.NodeID{}, agGroup.Members...), execGroup.Members...)
	all = append(all, clientID.Node())
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)

	nodes := make(map[ids.NodeID]*Node)
	addrs := make(map[ids.NodeID]string)
	for _, id := range all[:7] {
		n, err := Listen(Options{Self: id, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		addrs[id] = n.Addr()
	}
	clientNode, err := Listen(Options{Self: clientID.Node(), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	clientAddr := clientNode.Addr()
	addrs[clientID.Node()] = clientAddr
	clientNode.Close()

	for _, n := range nodes {
		peers := make(map[ids.NodeID]string)
		for id, a := range addrs {
			if id != n.ID() {
				peers[id] = a
			}
		}
		n.opts.Peers = peers
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	cfg := &deploy.Config{
		Crypto:     "insecure",
		Agreement:  deploy.GroupSpec{ID: agGroup.ID, F: agGroup.F, Members: agGroup.Members},
		ExecGroups: []deploy.GroupSpec{{ID: execGroup.ID, F: execGroup.F, Members: execGroup.Members, Region: "local"}},
	}
	for _, m := range append(slices.Clone(agGroup.Members), execGroup.Members...) {
		rep, err := cfg.Launch(m, deploy.Host{Node: nodes[m], Suite: suites[m]})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
	}

	runSession := func(session int, op []byte) app.Result {
		t.Helper()
		cn, err := Listen(Options{Self: clientID.Node(), ListenAddr: clientAddr})
		if err != nil {
			t.Fatalf("session %d listen: %v", session, err)
		}
		defer cn.Close()
		peers := make(map[ids.NodeID]string)
		for id, a := range addrs {
			if id != clientID.Node() {
				peers[id] = a
			}
		}
		cn.opts.Peers = peers
		c, err := core.NewClient(core.ClientConfig{
			ID: clientID, Group: execGroup, Suite: suites[clientID.Node()],
			Node: cn, Retry: time.Second, Deadline: 10 * time.Second,
			CounterStart: uint64(time.Now().UnixNano()),
		})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.Write(op)
		if err != nil {
			t.Fatalf("session %d write: %v", session, err)
		}
		res, err := app.DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r := runSession(0, app.EncodeOp(app.Op{Kind: app.OpPut, Key: "k1", Value: []byte("v1")}))
	t.Logf("session 0 put: %+v", r)
	r = runSession(1, app.EncodeOp(app.Op{Kind: app.OpInc, Key: "visits", Delta: 7}))
	t.Logf("session 1 inc: %+v", r)
	if r.Counter != 7 {
		t.Fatalf("second session inc returned %+v, want Counter=7", r)
	}
}
