package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/deploy"
	"spider/internal/ids"
	"spider/internal/topo"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
	"spider/internal/transport/tcpnet"
)

// nodeArgsEnv makes the test binary run as spider-node with the given
// arguments instead of running tests, so a test can start replicas as
// separate processes on the command's own code path.
const nodeArgsEnv = "SPIDER_NODE_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(nodeArgsEnv); args != "" {
		os.Args = append([]string{"spider-node"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOneConfigTwoLaunches starts one deployment description two ways —
// in process on the emulated WAN, and as seven spider-node processes on
// TCP loopback — and runs the same writes and strong read against both.
// Both go through deploy.Launch with ed25519 keys from the config's key
// directory; a client operation returns only on fe+1 matching replies.
func TestOneConfigTwoLaunches(t *testing.T) {
	if testing.Short() {
		t.Skip("starts seven processes")
	}
	dir := t.TempDir()
	client := ids.ClientID(100)
	desc := &deploy.Config{
		Crypto:     "ed25519",
		KeyDir:     filepath.Join(dir, "keys"),
		Agreement:  deploy.GroupSpec{ID: 1, F: 1, Members: []ids.NodeID{1, 2, 3, 4}, Region: string(topo.Virginia)},
		ExecGroups: []deploy.GroupSpec{{ID: 10, F: 1, Members: []ids.NodeID{11, 12, 13}, Region: string(topo.Virginia)}},
		Addresses:  make(map[string]string),
	}
	replicas := append(slices.Clone(desc.Agreement.Members), desc.ExecGroups[0].Members...)
	for _, id := range append(slices.Clone(replicas), client.Node()) {
		desc.Addresses[fmt.Sprint(int32(id))] = freeAddr(t)
	}
	if err := desc.GenerateKeys(desc.KeyDir); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "deploy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := deploy.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("memnet", func(t *testing.T) {
		place := topo.NewPlacement(0.05)
		cfg.Place(place)
		place.Place(client.Node(), topo.Site{Region: topo.Virginia})
		wan := memnet.New(memnet.Options{Placement: place})
		defer wan.Close()
		for _, id := range replicas {
			suite, err := cfg.Suite(id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cfg.Launch(id, deploy.Host{Node: wan.Node(id), Suite: suite})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Stop()
		}
		runWorkload(t, cfg, client, wan.Node(client.Node()))
	})

	t.Run("tcpnet", func(t *testing.T) {
		for _, id := range replicas {
			startNode(t, path, id)
		}
		addr, _ := cfg.Address(client.Node())
		node, err := tcpnet.Listen(tcpnet.Options{Self: client.Node(), ListenAddr: addr, Peers: cfg.Peers(client.Node())})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		runWorkload(t, cfg, client, node)
	})
}

// runWorkload writes five increments and reads the counter back
// strongly.
func runWorkload(t *testing.T, cfg *deploy.Config, id ids.ClientID, node transport.Node) {
	t.Helper()
	suite, err := cfg.Suite(id.Node())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewClient(core.ClientConfig{
		ID:             id,
		Group:          cfg.ExecGroups[0].Group(),
		AgreementGroup: cfg.Agreement.Group(),
		Suite:          suite,
		Node:           node,
		Retry:          time.Second,
		Deadline:       20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 5
	for i := 0; i < writes; i++ {
		if _, err := c.Write(app.EncodeOp(app.Op{Kind: app.OpInc, Key: "n", Delta: 1})); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	payload, err := c.StrongRead(app.EncodeOp(app.Op{Kind: app.OpGet, Key: "n"}))
	if err != nil {
		t.Fatalf("strong read: %v", err)
	}
	if res, err := app.DecodeResult(payload); err != nil || res.Counter != writes {
		t.Fatalf("strong read = %+v (err %v), want counter %d", res, err, writes)
	}
}

// startNode runs the test binary as spider-node for one replica, waits
// until it listens, and stops it when the test ends.
func startNode(t *testing.T, config string, id ids.NodeID) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=-config %s -id %d", nodeArgsEnv, config, id))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("node %v: %v", id, err)
			}
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			t.Errorf("node %v did not stop", id)
		}
	})
	ready := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(out)
		for lines.Scan() {
			if strings.Contains(lines.Text(), "listening on") {
				ready <- lines.Text()
			}
		}
	}()
	select {
	case line := <-ready:
		t.Log(line)
	case <-time.After(10 * time.Second):
		t.Fatalf("node %v did not start", id)
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}
