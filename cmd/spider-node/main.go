// Command spider-node runs one Spider replica as a standalone process
// over TCP, taking its role (agreement or execution) from a JSON
// deployment description:
//
//	spider-node -config deploy.json -id 3
//	spider-node -config deploy.json -genkeys keys/   # one-time key setup
//
// Example deploy.json:
//
//	{
//	  "crypto": "ed25519",
//	  "key_dir": "keys/",
//	  "agreement": {"id": 1, "f": 1, "members": [1, 2, 3, 4]},
//	  "exec_groups": [
//	    {"id": 10, "f": 1, "members": [11, 12, 13], "region": "virginia"}
//	  ],
//	  "admin_clients": [100],
//	  "addresses": {
//	    "1": "127.0.0.1:7001", "2": "127.0.0.1:7002",
//	    "3": "127.0.0.1:7003", "4": "127.0.0.1:7004",
//	    "11": "127.0.0.1:7011", "12": "127.0.0.1:7012", "13": "127.0.0.1:7013",
//	    "100": "127.0.0.1:7100"
//	  }
//	}
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"spider/internal/app"
	"spider/internal/core"
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
	cryptoFlag := flag.String("crypto", "", "override the config's crypto suite (rsa, ed25519, insecure)")
	flag.Parse()

	cfg, err := deploy.Load(*configPath)
	if err != nil {
		return err
	}
	if *cryptoFlag != "" {
		cfg.Crypto = *cryptoFlag
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

	agreement := cfg.Agreement.Group()
	var stop func()
	switch {
	case agreement.Contains(self):
		admins := make([]ids.ClientID, len(cfg.AdminClients))
		for i, a := range cfg.AdminClients {
			admins[i] = ids.ClientID(a)
		}
		ar, err := core.NewAgreementReplica(core.AgreementConfig{
			Group:        agreement,
			ExecGroups:   cfg.Entries(),
			AdminClients: admins,
			Suite:        suite,
			Node:         node,
		})
		if err != nil {
			return err
		}
		ar.Start()
		stop = ar.Stop
		fmt.Printf("agreement replica %v listening on %s\n", self, node.Addr())
	default:
		var own ids.Group
		var peers []ids.Group
		for _, g := range cfg.ExecGroups {
			grp := g.Group()
			if grp.Contains(self) {
				own = grp
			} else {
				peers = append(peers, grp)
			}
		}
		if !own.ID.Valid() {
			return fmt.Errorf("node %v is in no configured group", self)
		}
		er, err := core.NewExecutionReplica(core.ExecutionConfig{
			Group:          own,
			AgreementGroup: agreement,
			PeerGroups:     peers,
			Suite:          suite,
			Node:           node,
			App:            app.NewKVStore(),
		})
		if err != nil {
			return err
		}
		er.Start()
		stop = er.Stop
		fmt.Printf("execution replica %v (group %v) listening on %s\n", self, own.ID, node.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	stop()
	return nil
}
