// Command reconfiguration demonstrates Spider's adaptability
// (Section 3.6 and Figure 10 of the paper): a running system gains a
// new execution group in São Paulo without stopping, the new group
// catches up via checkpoint transfer from its peers, and clients in
// the new region immediately enjoy region-local weak reads.
package main

import (
	"fmt"
	"log"
	"time"

	"spider"
)

func main() {
	cluster, err := spider.NewLocalCluster(spider.LocalClusterOptions{
		LatencyScale: 1.0,
		ExtraRegions: []spider.Region{spider.SaoPaulo},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer cluster.Stop()
	fmt.Println("initial regions:", cluster.Regions())

	// Build up some state before the new region exists.
	writer, err := cluster.NewClient(spider.Virginia)
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := writer.Write(spider.PutOp(fmt.Sprintf("item-%02d", i), []byte("stock"))); err != nil {
			log.Fatalf("write %d: %v", i, err)
		}
	}
	fmt.Println("wrote 10 items from virginia")

	// São Paulo clients before the local group exists would have to
	// talk to a remote region. Bring their own group online instead:
	// the admin command is ordered by the agreement group, the new
	// replicas fetch an execution checkpoint from an existing group.
	start := time.Now()
	if err := cluster.AddRegion(spider.SaoPaulo); err != nil {
		log.Fatalf("add region: %v", err)
	}
	fmt.Printf("added sao-paulo execution group in %.0fms (admin round trip)\n",
		time.Since(start).Seconds()*1000)
	fmt.Println("regions after the join:", cluster.Regions())

	client, err := cluster.NewClient(spider.SaoPaulo)
	if err != nil {
		log.Fatalf("client: %v", err)
	}

	// Keep writing so execution checkpoints cover the join point; the
	// new group serves its first weak read as soon as it caught up.
	fmt.Print("waiting for the new group to catch up")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := writer.Write(spider.IncOp("ticks", 1)); err != nil {
			log.Fatalf("tick: %v", err)
		}
		payload, err := client.WeakRead(spider.GetOp("item-05"))
		if err == nil {
			if res, derr := spider.DecodeKVResult(payload); derr == nil && res.Found {
				break
			}
		}
		if time.Now().After(deadline) {
			log.Fatal("\nnew group never caught up")
		}
		fmt.Print(".")
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Println(" done")

	weak, err := spider.Timings(10, func() error {
		_, err := client.WeakRead(spider.GetOp("item-05"))
		return err
	})
	if err != nil {
		log.Fatalf("weak read: %v", err)
	}
	write, err := spider.Timings(5, func() error {
		_, err := client.Write(spider.PutOp("from-sp", []byte("ola")))
		return err
	})
	if err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("sao-paulo weak reads:  %s  (region-local — the Figure 10b effect)\n", weak)
	fmt.Printf("sao-paulo writes:      %s  (one WAN round trip to virginia)\n", write)
}
