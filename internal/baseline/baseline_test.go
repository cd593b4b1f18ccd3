// Package baseline_test exercises the three baseline systems end to
// end over memnet, sharing the client protocol with Spider.
package baseline_test

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/baseline/bftgeo"
	"spider/internal/baseline/hft"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport/memnet"
)

func newClient(t *testing.T, net *memnet.Network, suites map[ids.NodeID]crypto.Suite, id ids.ClientID, group ids.Group) *core.Client {
	t.Helper()
	c, err := core.NewClient(core.ClientConfig{
		ID:       id,
		Group:    group,
		Suite:    suites[id.Node()],
		Node:     net.Node(id.Node()),
		Retry:    300 * time.Millisecond,
		Deadline: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func putOp(key, value string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpPut, Key: key, Value: []byte(value)})
}

func getOp(key string) []byte {
	return app.EncodeOp(app.Op{Kind: app.OpGet, Key: key})
}

func checkFound(t *testing.T, payload []byte, want string) {
	t.Helper()
	res, err := app.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || string(res.Value) != want {
		t.Fatalf("result = %+v, want %q", res, want)
	}
}

// weakReadFresh retries a weak read until it observes want: weakly
// consistent reads may return stale values under concurrency
// (Section 3.3), and clients react by retrying.
func weakReadFresh(t *testing.T, client *core.Client, key, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		payload, err := client.WeakRead(getOp(key))
		if err == nil {
			if res, derr := app.DecodeResult(payload); derr == nil && res.Found && string(res.Value) == want {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("weak read of %q never converged to %q", key, want)
}

func TestBFTBaseline(t *testing.T) {
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4}, F: 1}
	all := append([]ids.NodeID{}, group.Members...)
	all = append(all, 101)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	var replicas []*bftgeo.Replica
	for _, m := range group.Members {
		r, err := bftgeo.New(bftgeo.Config{
			Group: group,
			Suite: suites[m],
			Node:  net.Node(m),
			App:   app.NewKVStore(),
			Consensus: pbft.Config{
				RequestTimeout: 500 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	client := newClient(t, net, suites, 101, group)
	for i := 0; i < 5; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	weakReadFresh(t, client, "k4", "v")

	got, err := client.StrongRead(getOp("k0"))
	if err != nil {
		t.Fatalf("strong read: %v", err)
	}
	checkFound(t, got, "v")
}

// TestWVBaseline builds BFT-WV as the harness does for Figure 10: the
// BFT baseline under a WHEAT quorum policy.
func TestWVBaseline(t *testing.T) {
	// 3f+1+Δ = 5 replicas, f=1, Δ=1; replicas 1 and 2 carry Vmax.
	group := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3, 4, 5}, F: 1}
	all := append([]ids.NodeID{}, group.Members...)
	all = append(all, 101)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)
	net := memnet.New(memnet.Options{})
	defer net.Close()

	policy, err := pbft.NewWheatQuorum(group, 1, []ids.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var replicas []*bftgeo.Replica
	for _, m := range group.Members {
		r, err := bftgeo.New(bftgeo.Config{
			Group:  group,
			Suite:  suites[m],
			Node:   net.Node(m),
			App:    app.NewKVStore(),
			Policy: policy,
			Consensus: pbft.Config{
				RequestTimeout: 500 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	client := newClient(t, net, suites, 101, group)
	if _, err := client.Write(putOp("weighted", "quorum")); err != nil {
		t.Fatalf("write: %v", err)
	}
	weakReadFresh(t, client, "weighted", "quorum")
}

// buildHFT assembles an HFT deployment with the given number of sites
// (4 replicas each) and returns the sites plus a stop function.
func buildHFT(t *testing.T, net *memnet.Network, suites map[ids.NodeID]crypto.Suite, sites []ids.Group, leader int) func() {
	t.Helper()
	var replicas []*hft.Replica
	for si, site := range sites {
		for _, m := range site.Members {
			r, err := hft.New(hft.Config{
				Sites:      sites,
				LeaderSite: leader,
				Site:       si,
				Suite:      suites[m],
				Node:       net.Node(m),
				App:        app.NewKVStore(),
				Consensus: pbft.Config{
					RequestTimeout: 500 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			replicas = append(replicas, r)
			r.Start()
		}
	}
	return func() {
		for _, r := range replicas {
			r.Stop()
		}
	}
}

func hftFixture(t *testing.T) (*memnet.Network, map[ids.NodeID]crypto.Suite, []ids.Group) {
	t.Helper()
	var sites []ids.Group
	var all []ids.NodeID
	for s := 0; s < 3; s++ {
		base := ids.NodeID(10 * (s + 1))
		site := ids.Group{
			ID:      ids.GroupID(10 * (s + 1)),
			Members: []ids.NodeID{base + 1, base + 2, base + 3, base + 4},
			F:       1,
		}
		sites = append(sites, site)
		all = append(all, site.Members...)
	}
	all = append(all, 101, 102)
	suites := crypto.NewSuites(all, crypto.SuiteInsecure)
	return memnet.New(memnet.Options{}), suites, sites
}

func TestHFTLeaderSiteClients(t *testing.T) {
	net, suites, sites := hftFixture(t)
	defer net.Close()
	stop := buildHFT(t, net, suites, sites, 0)
	defer stop()

	// Client at the leader site: orders go straight through the
	// leader site's local consensus.
	client := newClient(t, net, suites, 101, sites[0])
	for i := 0; i < 5; i++ {
		if _, err := client.Write(putOp(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	weakReadFresh(t, client, "k4", "v")
}

func TestHFTRemoteSiteClients(t *testing.T) {
	net, suites, sites := hftFixture(t)
	defer net.Close()
	stop := buildHFT(t, net, suites, sites, 0)
	defer stop()

	// Client at a non-leader site: request is forwarded to the leader
	// site with a threshold signature and the reply comes from the
	// origin site after global ordering.
	client := newClient(t, net, suites, 102, sites[2])
	if _, err := client.Write(putOp("remote", "write")); err != nil {
		t.Fatalf("remote write: %v", err)
	}
	weakReadFresh(t, client, "remote", "write")
}

func TestHFTCrossSiteConsistency(t *testing.T) {
	net, suites, sites := hftFixture(t)
	defer net.Close()
	stop := buildHFT(t, net, suites, sites, 1) // leader site 1
	defer stop()

	writer := newClient(t, net, suites, 101, sites[0])
	reader := newClient(t, net, suites, 102, sites[2])

	if _, err := writer.Write(putOp("shared", "state")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// All sites execute the same global order; the other site's weak
	// reads converge.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := reader.WeakRead(getOp("shared"))
		if err == nil {
			if res, derr := app.DecodeResult(got); derr == nil && res.Found && string(res.Value) == "state" {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("write never reached the other site")
}
