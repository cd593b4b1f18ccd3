package spider_test

import (
	"slices"
	"testing"

	"spider"
)

// TestPublicAPI exercises the facade end to end: deploy, write, read
// strongly and weakly from another continent, reconfigure.
func TestPublicAPI(t *testing.T) {
	cluster, err := spider.NewLocalCluster(spider.LocalClusterOptions{
		Regions:      []spider.Region{spider.Virginia, spider.Tokyo},
		ExtraRegions: []spider.Region{spider.SaoPaulo},
		LatencyScale: 0.02,
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer cluster.Stop()

	if got := cluster.Regions(); len(got) != 2 {
		t.Fatalf("regions = %v", got)
	}

	alice, err := cluster.NewClient(spider.Virginia)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cluster.NewClient(spider.Tokyo)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := alice.Write(spider.PutOp("k", []byte("v"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	payload, err := bob.StrongRead(spider.GetOp("k"))
	if err != nil {
		t.Fatalf("strong read: %v", err)
	}
	res, err := spider.DecodeKVResult(payload)
	if err != nil || !res.Found || string(res.Value) != "v" {
		t.Fatalf("strong read result: %+v err=%v", res, err)
	}

	if _, err := alice.Write(spider.IncOp("n", 3)); err != nil {
		t.Fatalf("inc: %v", err)
	}
	// A weak read from the writer's own region observes the write.
	payload, err = alice.WeakRead(spider.GetOp("n"))
	if err != nil {
		t.Fatalf("weak read: %v", err)
	}
	if res, err := spider.DecodeKVResult(payload); err != nil || res.Counter != 3 {
		t.Fatalf("weak read result: %+v err=%v", res, err)
	}
	if _, err := alice.Write(spider.DelOp("k")); err != nil {
		t.Fatalf("del: %v", err)
	}

	if err := cluster.AddRegion(spider.SaoPaulo); err != nil {
		t.Fatalf("add region: %v", err)
	}
	if got := cluster.Regions(); !slices.Contains(got, spider.SaoPaulo) || len(got) != 3 {
		t.Fatalf("regions after AddRegion = %v, want the joined sao-paulo too", got)
	}
	carol, err := cluster.NewClient(spider.SaoPaulo)
	if err != nil {
		t.Fatal(err)
	}
	// The new group answers its clients once an execution checkpoint
	// covers the join point; keep background traffic flowing as the
	// paper's workload does.
	done := make(chan error, 1)
	go func() {
		_, werr := carol.Write(spider.PutOp("sp", []byte("ola")))
		done <- werr
	}()
	var carolErr error
	ticking := true
	for ticking {
		select {
		case carolErr = <-done:
			ticking = false
		default:
			if _, err := alice.Write(spider.IncOp("tick", 1)); err != nil {
				t.Fatalf("tick: %v", err)
			}
		}
	}
	if carolErr != nil {
		t.Fatalf("write via new group: %v", carolErr)
	}

	summary, err := spider.Timings(3, func() error {
		_, err := alice.WeakRead(spider.GetOp("n"))
		return err
	})
	if err != nil {
		t.Fatalf("timings: %v", err)
	}
	if summary.Count != 3 {
		t.Fatalf("summary = %+v", summary)
	}
}
