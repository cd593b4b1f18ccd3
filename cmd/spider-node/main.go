// Command spider-node runs one Spider replica as a standalone process
// over TCP, taking its role (agreement or execution) from a JSON
// deployment description, and starts it through deploy.Launch, the
// launcher the in-process harness uses too:
//
//	spider-node -config deploy.json -id 3
//	spider-node -config deploy.json -genkeys keys/   # one-time key setup
//
// Example deploy.json:
//
//	{
//	  "crypto": "ed25519",
//	  "key_dir": "keys/",
//	  "agreement": {"id": 1, "f": 1, "members": [1, 2, 3, 4], "region": "virginia"},
//	  "exec_groups": [
//	    {"id": 10, "f": 1, "members": [11, 12, 13], "region": "virginia",
//	     "sites": [{"region": "virginia", "zone": 0}, {"region": "virginia", "zone": 1},
//	               {"region": "ohio", "zone": 0}]}
//	  ],
//	  "admin_clients": [100],
//	  "addresses": {
//	    "1": "127.0.0.1:7001", "2": "127.0.0.1:7002",
//	    "3": "127.0.0.1:7003", "4": "127.0.0.1:7004",
//	    "11": "127.0.0.1:7011", "12": "127.0.0.1:7012", "13": "127.0.0.1:7013",
//	    "100": "127.0.0.1:7100"
//	  },
//	  "channel": "irmc-rc",
//	  "consensus_auth": "mac-vector",
//	  "slack_groups": 0,
//	  "state_dir": "state/"
//	}
//
// "crypto" is required ("insecure" must be named to be used), and a
// field the description does not define is an error rather than
// ignored. "channel", "consensus_auth" and "slack_groups" may be
// omitted (the values above are the defaults); "sites" places the
// members in availability zones (default: member i in zone i of the
// group's region) and "state_dir" gives every replica a persistent
// store under <state_dir>/n<id>-agree or n<id>-exec.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"spider/internal/deploy"
	"spider/internal/ids"
	"spider/internal/transport/tcpnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spider-node:", err)
		os.Exit(1)
	}
}

func run() error {
	configPath := flag.String("config", "deploy.json", "deployment description")
	id := flag.Int("id", 0, "this replica's node id")
	genkeys := flag.String("genkeys", "", "generate keys of the configured suite for every node into the directory and exit")
	flag.Parse()

	cfg, err := deploy.Load(*configPath)
	if err != nil {
		return err
	}
	if *genkeys != "" {
		if err := cfg.GenerateKeys(*genkeys); err != nil {
			return err
		}
		fmt.Printf("keys for %d nodes written to %s\n", len(cfg.AllNodes()), *genkeys)
		return nil
	}

	self := ids.NodeID(*id)
	if !self.Valid() {
		return fmt.Errorf("-id required")
	}
	addr, ok := cfg.Address(self)
	if !ok {
		return fmt.Errorf("no address configured for node %v", self)
	}
	suite, err := cfg.Suite(self)
	if err != nil {
		return err
	}
	node, err := tcpnet.Listen(tcpnet.Options{
		Self:       self,
		ListenAddr: addr,
		Peers:      cfg.Peers(self),
	})
	if err != nil {
		return err
	}
	defer node.Close()

	// Catch the stop signal before the replica runs, so a stop that
	// comes early still shuts it down cleanly and flushes its store.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	rep, err := cfg.Launch(self, deploy.Host{Node: node, Suite: suite})
	if err != nil {
		return err
	}
	role := "execution"
	if rep.Agreement != nil {
		role = "agreement"
	}
	fmt.Printf("%s replica %v listening on %s\n", role, self, node.Addr())

	<-sig
	fmt.Println("shutting down")
	rep.Stop()
	return nil
}
