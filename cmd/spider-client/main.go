// Command spider-client talks to a running multi-process Spider
// deployment (see cmd/spider-node):
//
//	spider-client -config deploy.json -id 100 -group 10 put mykey myvalue
//	spider-client -config deploy.json -id 100 -group 10 get mykey
//	spider-client -config deploy.json -id 100 -group 10 weakget mykey
//	spider-client -config deploy.json -id 100 -group 10 inc counter 5
//	spider-client -config deploy.json -id 100 -group 10 registry
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/deploy"
	"spider/internal/ids"
	"spider/internal/transport/tcpnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spider-client:", err)
		os.Exit(1)
	}
}

func run() error {
	configPath := flag.String("config", "deploy.json", "deployment description")
	id := flag.Int("id", 0, "client id (must have an address entry)")
	groupID := flag.Int("group", 0, "execution group to contact")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: spider-client [flags] put|get|weakget|inc|del|registry ...")
	}

	cfg, err := deploy.Load(*configPath)
	if err != nil {
		return err
	}
	self := ids.ClientID(*id)
	if !self.Valid() {
		return fmt.Errorf("-id required")
	}
	var group ids.Group
	for _, g := range cfg.ExecGroups {
		if g.ID == ids.GroupID(*groupID) {
			group = g.Group()
		}
	}
	if !group.ID.Valid() {
		return fmt.Errorf("-group %d not in config", *groupID)
	}
	suite, err := cfg.Suite(self.Node())
	if err != nil {
		return err
	}
	addr, _ := cfg.Address(self.Node())
	node, err := tcpnet.Listen(tcpnet.Options{
		Self:       self.Node(),
		ListenAddr: addr,
		Peers:      cfg.Peers(self.Node()),
	})
	if err != nil {
		return err
	}
	defer node.Close()

	client, err := core.NewClient(core.ClientConfig{
		ID:             self,
		Group:          group,
		AgreementGroup: cfg.Agreement.Group(),
		Suite:          suite,
		Node:           node,
		Retry:          time.Second,
		Deadline:       15 * time.Second,
		// Each CLI invocation is a fresh process sharing the client
		// identity; a time-derived counter keeps counters strictly
		// increasing across invocations (replicas deduplicate on it).
		CounterStart: uint64(time.Now().UnixNano()),
	})
	if err != nil {
		return err
	}

	start := time.Now()
	var payload []byte
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		payload, err = client.Write(app.EncodeOp(app.Op{Kind: app.OpPut, Key: args[1], Value: []byte(args[2])}))
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		payload, err = client.StrongRead(app.EncodeOp(app.Op{Kind: app.OpGet, Key: args[1]}))
	case "weakget":
		if len(args) != 2 {
			return fmt.Errorf("usage: weakget <key>")
		}
		payload, err = client.WeakRead(app.EncodeOp(app.Op{Kind: app.OpGet, Key: args[1]}))
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		payload, err = client.Write(app.EncodeOp(app.Op{Kind: app.OpDel, Key: args[1]}))
	case "inc":
		if len(args) != 3 {
			return fmt.Errorf("usage: inc <key> <delta>")
		}
		delta, perr := strconv.ParseInt(args[2], 10, 64)
		if perr != nil {
			return perr
		}
		payload, err = client.Write(app.EncodeOp(app.Op{Kind: app.OpInc, Key: args[1], Delta: delta}))
	case "registry":
		info, qerr := client.QueryRegistry()
		if qerr != nil {
			return qerr
		}
		for _, e := range info.Entries {
			fmt.Printf("group %v (f=%d, %d replicas) region=%s\n",
				e.Group.ID, e.Group.F, len(e.Group.Members), e.Region)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		return err
	}
	res, err := app.DecodeResult(payload)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	switch {
	case !res.OK:
		fmt.Printf("error (in %s)\n", elapsed)
	case res.Found && len(res.Value) > 0:
		fmt.Printf("%s (in %s)\n", res.Value, elapsed)
	case res.Counter != 0:
		fmt.Printf("%d (in %s)\n", res.Counter, elapsed)
	case res.Found:
		fmt.Printf("found (in %s)\n", elapsed)
	default:
		fmt.Printf("ok (in %s)\n", elapsed)
	}
	return nil
}
