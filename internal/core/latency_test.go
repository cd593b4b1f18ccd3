package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport/memnet"
)

// farScale shrinks the topology's delays: Tokyo–Virginia becomes an
// 81 ms round trip, long enough that a second WAN crossing (the wait
// this file guards against) stands far above scheduling noise, short
// enough for a unit test.
const farScale = 0.5

// farNet places the agreement group in Virginia and everything else —
// execution group 20, the runtime group 50 and the clients — in Tokyo,
// one node per availability zone as the paper deploys them.
func farNet(clients ...ids.ClientID) (*memnet.Network, time.Duration) {
	p := topo.NewPlacement(farScale)
	for i, n := range []ids.NodeID{1, 2, 3, 4} {
		p.Place(n, topo.Site{Region: topo.Virginia, Zone: i})
	}
	for i, n := range []ids.NodeID{21, 22, 23, 51, 52, 53} {
		p.Place(n, topo.Site{Region: topo.Tokyo, Zone: i % 3})
	}
	for _, c := range clients {
		p.Place(c.Node(), topo.Site{Region: topo.Tokyo})
	}
	return memnet.New(memnet.Options{Placement: p}), 2 * p.OneWay(21, 1)
}

// medianWrite walks the cycle ('r' weak read, 'w' write; key i belongs
// to the i-th write) and returns the median write latency after two
// unmeasured warm-up cycles.
func medianWrite(t *testing.T, c *Client, cycle string, key func(i int) string) time.Duration {
	t.Helper()
	const warmup, measured = 2, 9
	var lat []time.Duration
	writes := 0
	for round := 0; round < warmup+measured; round++ {
		for _, op := range cycle {
			if op == 'r' {
				if _, err := c.WeakRead(getOp(key(writes))); err != nil {
					t.Fatalf("weak read: %v", err)
				}
				continue
			}
			start := time.Now()
			if _, err := c.Write(putOp(key(writes), fmt.Sprintf("v%d", writes))); err != nil {
				t.Fatalf("write %d: %v", writes, err)
			}
			if round >= warmup {
				lat = append(lat, time.Since(start))
			}
			writes++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2]
}

// requireOneRoundTrip fails when the median write costs more than the
// paper's "about one round trip to the agreement region".
func requireOneRoundTrip(t *testing.T, what string, median, rtt time.Duration) {
	t.Helper()
	t.Logf("%s: median write %v, RTT %v (%.2f RTT)", what, median, rtt, float64(median)/float64(rtt))
	if median > rtt*13/10 {
		t.Errorf("%s: median write %v exceeds 1.3 x RTT %v — a write after a counter gap waits for the window move again",
			what, median, rtt)
	}
}

// TestWriteAfterWeakReadIsOneRoundTrip: a weak read consumes a client
// counter without touching the request subchannel, so the following
// write lands past the capacity-2 window. The forwarder's MoveWindow
// must admit it at once; the move and the request cross the WAN
// together, not one after the other — on both channel implementations.
func TestWriteAfterWeakReadIsOneRoundTrip(t *testing.T) {
	for _, channel := range []ChannelKind{ChannelRC, ChannelSC} {
		for _, cycle := range []string{"rw", "rrrw"} {
			t.Run(fmt.Sprintf("%v/%s", channel, cycle), func(t *testing.T) {
				net, rtt := farNet(101)
				tun := testTunables()
				tun.Channel = channel
				d := newDeploymentOn(t, net, 1, tun, 0, DedupOn, crypto.SuiteInsecure, nil, 101)
				d.start()
				client := d.client(101, d.execGroups[0])
				median := medianWrite(t, client, cycle, func(int) string { return "k" })
				requireOneRoundTrip(t, "cycle "+cycle, median, rtt)
			})
		}
	}
}

// TestShardAlternatingWritesAreOneRoundTrip: a sharded client has one
// counter sequence across all shards, so each shard's request
// subchannel sees every other counter when the client alternates.
func TestShardAlternatingWritesAreOneRoundTrip(t *testing.T) {
	net, rtt := farNet(101)
	d := newShardedDeploymentOn(t, net, 2, 1, testTunables(), 101)
	d.start()
	client := d.client(101)
	m := ShardMap{Shards: 2}
	keys := []string{keyForShard(m, 0, "alt"), keyForShard(m, 1, "alt")}
	median := medianWrite(t, client, "w", func(i int) string { return keys[i%2] })
	requireOneRoundTrip(t, "alternating shards", median, rtt)
}

// TestJoinDoesNotWaitForNewGroup: AdminAddGroup anchors the new commit
// channel past position 1 with MoveWindow and sends the batch carrying
// the admin op there. The new group's replicas are not running, so its
// receivers never answer: the anchoring send, and with it the fan-out
// every later batch waits behind, must go through on the sender's own
// move alone.
func TestJoinDoesNotWaitForNewGroup(t *testing.T) {
	tun := testTunables()
	d := newDeployment(t, 1, tun, []ids.ClientID{200}, 101, 200)
	d.start()
	client := d.client(101, d.execGroups[0])
	// Push the join point beyond a fresh channel's initial window.
	for i := 0; i <= tun.CommitChannelCapacity; i++ {
		if _, err := client.Write(putOp("pre", fmt.Sprint(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	newGroup := ids.Group{ID: 50, Members: []ids.NodeID{51, 52, 53}, F: 1}
	admin := d.client(200, d.execGroups[0])
	done := make(chan error, 1)
	go func() {
		if err := admin.Admin(AdminOp{Kind: AdminAddGroup, Group: newGroup, Region: "silent"}); err != nil {
			done <- fmt.Errorf("AddGroup: %w", err)
			return
		}
		_, err := client.Write(putOp("post", "v"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the batch after the join waited for the new group's receivers")
	}
}
