package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/app"
	"spider/internal/consensus"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/rc"
	"spider/internal/irmc/sc"
	"spider/internal/storage"
	"spider/internal/topo"
	"spider/internal/transport"
	"spider/internal/transport/memnet"
	"spider/internal/transport/tcpnet"
	"spider/internal/wire"
)

// The layer probes time calls into one module's exported API at a time,
// on the calibrated in-region link (0.6 ms one way between availability
// zones) unless a probe says otherwise, under ed25519. They are the same
// for every workload; the per-workload numbers (core.*, proc.*) come
// from the traced window itself.

const (
	lanOneWay  = 600 * time.Microsecond
	probeFrame = 256 // bytes, the channel and transport probes' payload
	probeSuite = crypto.SuiteEd25519
)

var probeStream = transport.MakeStream(transport.KindBench, 1)

// The sinks keep the compiler from discarding a probed call's result.
// They are typed: storing a slice in an interface would allocate and
// show up in the probed numbers.
var (
	sink    []byte
	sinkVec [][]byte
)

// prober carries the tracer and collects metrics.
type prober struct {
	tr  *tracer
	out map[string]float64
}

// batch times n back-to-back calls of f under one span and returns the
// mean nanoseconds per call. It suits calls of nanoseconds to
// microseconds, where a clock read per call would dominate.
func (p *prober) batch(name string, n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	end := time.Now()
	p.tr.probe(name, n, start, end)
	return float64(end.Sub(start)) / float64(n)
}

// each times every call of f under its own span and returns the
// durations; f returns the instant its effect was observed.
func (p *prober) each(name string, n int, f func(i int) (time.Time, error)) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		end, err := f(i)
		if err != nil {
			return nil, fmt.Errorf("%s #%d: %w", name, i, err)
		}
		p.tr.probe(name, 1, start, end)
		out = append(out, end.Sub(start))
	}
	return out, nil
}

// p50 is the nearest-rank median of the durations.
func p50(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	sort.Float64s(v)
	return time.Duration(percentile(v, 50))
}

// probeWait bounds every wait on a probed layer.
const probeWait = 5 * time.Second

var errProbeTimeout = errors.New("timed out")

func waitFor[T any](ch <-chan T) (T, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(probeWait):
		var zero T
		return zero, errProbeTimeout
	}
}

// runProbes measures every layer and completes res.metrics with the
// layer numbers, the far-region ratios and the budget's remainder.
func runProbes(res *runResult, w workload, tr *tracer, outDir string) error {
	p := &prober{tr: tr, out: res.metrics}
	steps := []struct {
		name string
		run  func() error
	}{
		{"wire", p.wire},
		{"crypto", p.crypto},
		{"memnet", p.memnet},
		{"tcpnet", p.tcpnet},
		{"irmc.rc", func() error { return p.irmc("rc") }},
		{"irmc.sc", func() error { return p.irmc("sc") }},
		{"pbft", p.pbft},
		{"app", p.app},
		{"storage", func() error { return p.storage(outDir) }},
		{"core far region", p.farRegion},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	printBudget(res, w)
	return nil
}

// printBudget splits the workload's median write latency into what the
// layer probes explain and core.self_ms, the remainder.
func printBudget(res *runResult, w workload) {
	m := res.metrics
	channel, order := "irmc.rc", "pbft.order_excess_p50_ms"
	if w.channel == core.ChannelSC {
		channel = "irmc.sc"
	}
	if w.auth == pbft.AuthSignatures {
		order = "pbft.sig_order_excess_p50_ms"
	}
	wanOneWay := res.rttMS / 2
	clientHops := 2 * ms(lanOneWay)
	channels := 2 * (wanOneWay + m[channel+".deliver_excess_p50_ms"])
	ordering := 3*ms(lanOneWay) + m[order]
	execute := m["app.put_ns"] / 1e6
	writeP50 := m["write_excess_p50_ms"] + res.rttMS
	m["core.self_ms"] = writeP50 - clientHops - channels - ordering - execute

	fmt.Printf("budget %s: write p50 %.3f ms =\n", w.name, writeP50)
	fmt.Printf("   %8.3f  client <-> execution group, 2 LAN hops\n", clientHops)
	fmt.Printf("   %8.3f  request + commit channel: 2 x (%.1f one way + %s deliver excess %.3f)\n",
		channels, wanOneWay, channel, m[channel+".deliver_excess_p50_ms"])
	fmt.Printf("   %8.3f  pbft: 3 LAN hops + %s %.3f\n", ordering, order, m[order])
	fmt.Printf("   %8.3f  app execute\n", execute)
	fmt.Printf("   %8.3f  core.self_ms, what no probe explains\n", m["core.self_ms"])
}

func (p *prober) wire() error {
	req := core.ClientRequest{
		Kind:    core.KindWrite,
		Client:  10001,
		Counter: 42,
		Op:      app.EncodeOp(app.Op{Kind: app.OpPut, Key: "k00000000-0", Value: value(1, 0, 1)}),
		Sig:     make([]byte, crypto.SignatureSize(probeSuite)),
	}
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.out["wire.encode_ns"] = p.batch("wire.encode", n, func() { sink = wire.Encode(&req) })
	runtime.ReadMemStats(&after)
	p.out["wire.encode_allocs"] = float64(after.Mallocs-before.Mallocs) / n

	frame := wire.Encode(&req)
	var decodeErr error
	p.out["wire.decode_ns"] = p.batch("wire.decode", n, func() {
		var got core.ClientRequest
		if err := wire.Decode(frame, &got); err != nil {
			decodeErr = err
		}
	})
	return decodeErr
}

func (p *prober) crypto() error {
	members := []ids.NodeID{1, 2, 3, 4}
	suites := crypto.NewSuites(members, probeSuite)
	msg := make([]byte, probeFrame)
	p.out["crypto.ed25519_sign_us"] = p.batch("crypto.sign", 2000, func() {
		sink = suites[1].Sign(crypto.DomainPBFT, msg)
	}) / 1e3
	sig := suites[1].Sign(crypto.DomainPBFT, msg)
	var verifyErr error
	p.out["crypto.ed25519_verify_us"] = p.batch("crypto.verify", 2000, func() {
		if err := suites[2].Verify(1, crypto.DomainPBFT, msg, sig); err != nil {
			verifyErr = err
		}
	}) / 1e3
	p.out["crypto.mac_us"] = p.batch("crypto.mac", 20000, func() {
		sink = suites[1].MAC(2, crypto.DomainPBFT, msg)
	}) / 1e3
	p.out["crypto.mac_vector4_us"] = p.batch("crypto.mac_vector", 10000, func() {
		sinkVec = crypto.MACVector(suites[1], members, crypto.DomainPBFT, msg)
	}) / 1e3
	return verifyErr
}

// lanPlacement puts each node in its own availability zone of the
// agreement region, so every link is the calibrated 0.6 ms one way.
func lanPlacement(nodes ...ids.NodeID) *topo.Placement {
	pl := topo.NewPlacement(1.0)
	for i, n := range nodes {
		pl.Place(n, topo.Site{Region: agreementRegion, Zone: i})
	}
	return pl
}

func (p *prober) memnet() error {
	// Overshoot: how much later than scheduled a frame arrives. It is the
	// floor under every emulated hop; when it moves, the machine changed.
	net := memnet.New(memnet.Options{Placement: lanPlacement(1, 2)})
	arrived := make(chan time.Time, 1)
	net.Node(2).Handle(probeStream, func(ids.NodeID, []byte) { arrived <- time.Now() })
	frame := make([]byte, probeFrame)
	lat, err := p.each("memnet.deliver", 300, func(int) (time.Time, error) {
		net.Node(1).Send(2, probeStream, frame)
		return waitFor(arrived)
	})
	net.Close()
	if err != nil {
		return err
	}
	p.out["memnet.overshoot_p50_us"] = float64(p50(lat)-lanOneWay) / 1e3

	// Throughput with no emulated delay.
	const n = 200000
	net = memnet.New(memnet.Options{})
	defer net.Close()
	var got atomic.Int64
	done := make(chan time.Time, 1)
	net.Node(2).Handle(probeStream, func(ids.NodeID, []byte) {
		if got.Add(1) == n {
			done <- time.Now()
		}
	})
	start := time.Now()
	for i := 0; i < n; i++ {
		net.Node(1).Send(2, probeStream, frame)
	}
	end, err := waitFor(done)
	if err != nil {
		return err
	}
	p.tr.probe("memnet.blast", n, start, end)
	p.out["memnet.frames_per_s"] = n / end.Sub(start).Seconds()
	return nil
}

func (p *prober) tcpnet() error {
	peers := map[ids.NodeID]string{}
	a, err := tcpnet.Listen(tcpnet.Options{Self: 1, ListenAddr: "127.0.0.1:0", Peers: peers})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(tcpnet.Options{Self: 2, ListenAddr: "127.0.0.1:0", Peers: map[ids.NodeID]string{1: a.Addr()}})
	if err != nil {
		return err
	}
	defer b.Close()
	peers[2] = b.Addr() // before a's first Send reads the map

	frame := make([]byte, probeFrame)
	echo := transport.MakeStream(transport.KindBench, 2)
	back := make(chan time.Time, 1)
	b.Handle(echo, func(ids.NodeID, []byte) { b.Send(1, echo, frame) })
	a.Handle(echo, func(ids.NodeID, []byte) { back <- time.Now() })
	lat, err := p.each("tcpnet.roundtrip", 500, func(int) (time.Time, error) {
		a.Send(2, echo, frame)
		return waitFor(back)
	})
	if err != nil {
		return err
	}
	p.out["tcpnet.rtt_p50_us"] = float64(p50(lat)) / 1e3

	// One-way throughput. A full outbound queue drops its oldest frame,
	// so the sender keeps fewer frames in flight than the queue holds.
	const n, inFlight = 100000, 2048
	var got atomic.Int64
	done := make(chan time.Time, 1)
	b.Handle(probeStream, func(ids.NodeID, []byte) {
		if got.Add(1) == n {
			done <- time.Now()
		}
	})
	start := time.Now()
	for i := int64(0); i < n; i++ {
		for i-got.Load() >= inFlight {
			runtime.Gosched()
		}
		a.Send(2, probeStream, frame)
	}
	end, err := waitFor(done)
	if err != nil {
		return err
	}
	p.tr.probe("tcpnet.blast", n, start, end)
	p.out["tcpnet.frames_per_s"] = n / end.Sub(start).Seconds()
	return nil
}

// irmc measures one channel implementation: the delivery latency of a
// message every sender submits, over 0.6 ms links, and the saturated
// throughput figures of the repository's own channel benchmark.
func (p *prober) irmc(kind string) error {
	senders := ids.Group{ID: 1, Members: []ids.NodeID{1, 2, 3}, F: 1}
	receivers := ids.Group{ID: 2, Members: []ids.NodeID{11, 12, 13}, F: 1}
	all := append(append([]ids.NodeID{}, senders.Members...), receivers.Members...)
	suites := crypto.NewSuites(all, probeSuite)
	net := memnet.New(memnet.Options{Placement: lanPlacement(all...)})
	defer net.Close()

	const capacity = 64
	config := func(id ids.NodeID) irmc.Config {
		return irmc.Config{
			Senders:            senders,
			Receivers:          receivers,
			Capacity:           capacity,
			Suite:              suites[id],
			Node:               net.Node(id),
			Stream:             probeStream,
			ProgressIntervalMS: 50, // the deployment's channel tunables
			CollectorTimeoutMS: 1000,
		}
	}
	var (
		sendEps []irmc.Sender
		recvEps []irmc.Receiver
	)
	defer func() {
		for _, s := range sendEps {
			s.Close()
		}
		for _, r := range recvEps {
			r.Close()
		}
	}()
	newSender := func(c irmc.Config) (irmc.Sender, error) { return rc.NewSender(c) }
	newReceiver := func(c irmc.Config) (irmc.Receiver, error) { return rc.NewReceiver(c) }
	if kind == "sc" {
		newSender = func(c irmc.Config) (irmc.Sender, error) { return sc.NewSender(c) }
		newReceiver = func(c irmc.Config) (irmc.Receiver, error) { return sc.NewReceiver(c) }
	}
	for _, id := range senders.Members {
		s, err := newSender(config(id))
		if err != nil {
			return err
		}
		sendEps = append(sendEps, s)
	}
	for _, id := range receivers.Members {
		r, err := newReceiver(config(id))
		if err != nil {
			return err
		}
		recvEps = append(recvEps, r)
	}

	payload := make([]byte, probeFrame)
	lat, err := p.each("irmc."+kind+".deliver", 200, func(i int) (time.Time, error) {
		pos := ids.Position(i + 1)
		for _, s := range sendEps {
			if err := s.Send(0, pos, payload); err != nil {
				return time.Time{}, err
			}
		}
		if _, err := recvEps[0].Receive(0, pos); err != nil {
			return time.Time{}, err
		}
		end := time.Now()
		// Drain the other receivers and move the window as the
		// execution and agreement replicas do, outside the timed part.
		for _, r := range recvEps[1:] {
			if _, err := r.Receive(0, pos); err != nil {
				return time.Time{}, err
			}
		}
		if pos%(capacity/4) == 0 {
			for _, r := range recvEps {
				r.MoveWindow(0, pos+1)
			}
		}
		return end, nil
	})
	if err != nil {
		return err
	}
	p.out["irmc."+kind+".deliver_excess_p50_ms"] = ms(p50(lat) - lanOneWay)

	start := time.Now()
	row, err := harness.RunIRMCBench(harness.IRMCBenchOptions{
		Kind:     kind,
		Size:     probeFrame,
		Duration: time.Second,
		Scale:    0.02, // Virginia-Tokyo at 1.6 ms one way: CPU-bound, not window-bound
		Suite:    probeSuite,
	})
	if err != nil {
		return err
	}
	p.tr.probe("irmc."+kind+".saturate", int(row.Throughput), start, time.Now())
	p.out["irmc."+kind+".msgs_per_s"] = row.Throughput
	p.out["irmc."+kind+".sender_cpu"] = 100 * row.SenderCPU
	p.out["irmc."+kind+".wan_bytes_per_msg"] = 0
	if row.Throughput > 0 {
		p.out["irmc."+kind+".wan_bytes_per_msg"] = row.WANMBps * (1 << 20) / row.Throughput
	}
	return nil
}

// pbftGroup is a four-replica agreement group on its own network whose
// deliveries of non-empty batches arrive on delivered.
type pbftGroup struct {
	net       *memnet.Network
	members   []ids.NodeID
	replicas  []*pbft.Replica
	delivered chan delivery
}

type delivery struct {
	replica  int
	at       time.Time
	payloads int
}

func newPBFTGroup(pl *topo.Placement, auth pbft.AuthMode, batch int, timeout time.Duration) (*pbftGroup, error) {
	g := &pbftGroup{
		net:     memnet.New(memnet.Options{Placement: pl}),
		members: []ids.NodeID{1, 2, 3, 4},
		// Holds the whole saturation probe (512 batches from each of 4
		// replicas): nobody reads until its submitters are done.
		delivered: make(chan delivery, 4096),
	}
	group := ids.Group{ID: 1, Members: g.members, F: 1}
	suites := crypto.NewSuites(g.members, probeSuite)
	for i, id := range g.members {
		r, err := pbft.New(pbft.Config{
			Group:          group,
			Suite:          suites[id],
			Node:           g.net.Node(id),
			Stream:         probeStream,
			BatchSize:      batch,
			RequestTimeout: timeout,
			NormalCaseAuth: auth,
			Deliver: func(b consensus.Batch) {
				if len(b.Payloads) > 0 {
					g.delivered <- delivery{replica: i, at: time.Now(), payloads: len(b.Payloads)}
				}
			},
		})
		if err != nil {
			g.stop()
			return nil, err
		}
		g.replicas = append(g.replicas, r)
	}
	for _, r := range g.replicas {
		r.Start()
	}
	return g, nil
}

func (g *pbftGroup) stop() {
	for _, r := range g.replicas {
		r.Stop()
	}
	g.net.Close()
}

// orderOne submits payload at every replica in live, as the agreement
// replicas do with each request they receive, and returns when f+1 of
// them delivered it — the moment the commit channel can make progress.
// It then waits for the remaining live replicas so orders do not overlap.
func (g *pbftGroup) orderOne(payload []byte, live []int) (time.Time, error) {
	for _, i := range live {
		g.replicas[i].Order(payload)
	}
	var quorumAt time.Time
	for n := 1; n <= len(live); n++ {
		d, err := waitFor(g.delivered)
		if err != nil {
			return time.Time{}, err
		}
		if n == 2 {
			quorumAt = d.at
		}
	}
	return quorumAt, nil
}

func (p *prober) pbft() error {
	all := []int{0, 1, 2, 3}
	// Order latency, sequential, with the batch size the agreement
	// replicas configure and the default batch delay.
	for _, mode := range []struct {
		auth   pbft.AuthMode
		metric string
		span   string
	}{
		{pbft.AuthMACVector, "pbft.order_excess_p50_ms", "pbft.order"},
		{pbft.AuthSignatures, "pbft.sig_order_excess_p50_ms", "pbft.sig_order"},
	} {
		g, err := newPBFTGroup(lanPlacement(1, 2, 3, 4), mode.auth, 16, 2*time.Second)
		if err != nil {
			return err
		}
		before := g.net.Stats()
		const n = 200
		lat, err := p.each(mode.span, n, func(i int) (time.Time, error) {
			return g.orderOne(fmt.Appendf(make([]byte, 0, probeFrame), "order-%06d-%0240d", i, 0), all)
		})
		after := g.net.Stats()
		g.stop()
		if err != nil {
			return err
		}
		p.out[mode.metric] = ms(p50(lat) - 3*lanOneWay)
		if mode.auth == pbft.AuthMACVector {
			p.out["pbft.frames_per_order"] = float64(after.Frames[memnet.ClassLAN]-before.Frames[memnet.ClassLAN]) / n
			p.out["pbft.bytes_per_order"] = float64(after.BytesLAN()-before.BytesLAN()) / n
		}
	}

	// Saturation: 64 submitters, batches of 64, no emulated delay. No
	// end-to-end workload gets near it with two clients; it is the
	// capacity a later rate sweep would run into.
	{
		const flows, total = 64, 32768
		g, err := newPBFTGroup(nil, pbft.AuthMACVector, 64, time.Minute)
		if err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		for f := 0; f < flows; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := 0; i < total/flows; i++ {
					g.replicas[0].Order(fmt.Appendf(make([]byte, 0, 64), "flow-%04d-req-%08d", f, i))
				}
			}(f)
		}
		wg.Wait()
		end, err := func() (time.Time, error) {
			for got := 0; ; {
				d, err := waitFor(g.delivered)
				if err != nil {
					return time.Time{}, err
				}
				if d.replica == 0 {
					if got += d.payloads; got >= total {
						return d.at, nil
					}
				}
			}
		}()
		g.stop()
		if err != nil {
			return fmt.Errorf("saturation: %w", err)
		}
		p.tr.probe("pbft.saturate", total, start, end)
		p.out["pbft.sat_req_per_s"] = total / end.Sub(start).Seconds()
	}

	// View change: cut the leader off, submit at the three followers and
	// wait for them to deliver; what exceeds the request timeout is the
	// protocol's own recovery time. With the leader gone every follower is
	// needed for a quorum, and a round in which they fall out of step can
	// rotate views for seconds; such a round is reported and not sampled.
	const timeout, want, tries = 500 * time.Millisecond, 3, 6
	var vc []time.Duration
	for round := 0; round < tries && len(vc) < want; round++ {
		g, err := newPBFTGroup(lanPlacement(1, 2, 3, 4), pbft.AuthMACVector, 16, timeout)
		if err != nil {
			return err
		}
		if _, err := g.orderOne([]byte("before the fault"), all); err != nil {
			g.stop()
			return fmt.Errorf("view change warm-up: %w", err)
		}
		g.net.Isolate(g.members[0], true)
		start := time.Now()
		end, err := g.orderOne([]byte("after the fault"), all[1:])
		g.stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: pbft view-change probe round %d: %v\n", round, err)
			continue
		}
		p.tr.probe("pbft.view_change", 1, start, end)
		vc = append(vc, end.Sub(start))
	}
	if len(vc) == 0 {
		return fmt.Errorf("view change: no round of %d recovered", tries)
	}
	p.out["pbft.view_change_ms"] = ms(p50(vc) - timeout)
	return nil
}

func (p *prober) app() error {
	kv := app.NewKVStore()
	put := app.EncodeOp(app.Op{Kind: app.OpPut, Key: "k00000000-0", Value: value(1, 0, 1)})
	get := app.EncodeOp(app.Op{Kind: app.OpGet, Key: "k00000000-0"})
	p.out["app.put_ns"] = p.batch("app.execute", 100000, func() { sink = kv.Execute(put) })
	p.out["app.get_ns"] = p.batch("app.execute_read", 100000, func() { sink = kv.ExecuteRead(get) })

	// Snapshot is what a checkpoint costs; at the workloads' two keys it
	// is free, at a larger working set it would land on the write tail.
	for i := 0; i < 10000; i++ {
		kv.Execute(app.EncodeOp(app.Op{Kind: app.OpPut, Key: fmt.Sprintf("key-%06d", i), Value: value(1, 0, uint64(i))}))
	}
	lat, err := p.each("app.snapshot", 5, func(int) (time.Time, error) {
		sink = kv.Snapshot()
		return time.Now(), nil
	})
	p.out["app.snapshot_10k_ms"] = ms(p50(lat))
	return err
}

func (p *prober) storage(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir)
	if err != nil {
		return err
	}
	record := make([]byte, probeFrame)
	pos := uint64(0)
	st.SaveCheckpoint(pos, make([]byte, 64<<10))

	// Append is write-behind: this is what the replica's hot path pays.
	// Batches stay below the store's queue so no record is dropped.
	const records, syncs, perSync = 1000, 10, 64
	p.out["storage.append_us"] = p.batch("storage.append", records-syncs*perSync, func() {
		pos++
		st.Append(pos, record)
	}) / 1e3
	if err := st.Sync(); err != nil {
		st.Close()
		return err
	}
	lat, err := p.each("storage.sync", syncs, func(int) (time.Time, error) {
		for i := 0; i < perSync; i++ {
			pos++
			st.Append(pos, record)
		}
		err := st.Sync()
		return time.Now(), err
	})
	if err != nil {
		st.Close()
		return err
	}
	p.out["storage.sync_ms"] = ms(p50(lat))
	if err := st.Close(); err != nil {
		return err
	}
	if dropped := st.DroppedAppends(); dropped > 0 {
		return fmt.Errorf("store dropped %d appends", dropped)
	}

	// One checkpoint and 1000 records: what a restarting replica reads.
	lat, err = p.each("storage.load", 5, func(int) (time.Time, error) {
		img, err := storage.LoadDir(dir)
		if err == nil && (img == nil || len(img.Suffix) != int(pos)) {
			err = fmt.Errorf("loaded image does not hold the %d records written", pos)
		}
		return time.Now(), err
	})
	p.out["storage.load_ms"] = ms(p50(lat))
	return err
}

// farRegion reproduces the paper's headline from the far end of the
// map: a Tokyo client's median write latency in round trips to the
// agreement region, write-only and as read-modify-write (weak read,
// then write). Insecure suite, so the 5 s go to measuring rather than
// to key set-up; the ratio is WAN-dominated either way.
func (p *prober) farRegion() error {
	const region, window = topo.Tokyo, 5 * time.Second
	cluster, err := harness.Build(harness.BuildOptions{
		System:          harness.SystemSpider,
		F:               1,
		Regions:         geoRegions,
		AgreementRegion: agreementRegion,
		Scale:           1.0,
		SuiteKind:       crypto.SuiteInsecure,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()
	rtt, err := topo.RTT(region, agreementRegion)
	if err != nil {
		return err
	}
	clients := []*loadClient{
		{idx: 0, seed: 1, key: "far-write", cycle: "w", tr: p.tr},
		{idx: 1, seed: 1, key: "far-rmw", cycle: "rw", tr: p.tr},
	}
	for _, c := range clients {
		if c.kv, err = cluster.NewClient(region); err != nil {
			return err
		}
		if err := c.write(); err != nil {
			return err
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(wallClock{}, start, start.Add(window), 0)
		}(c)
	}
	wg.Wait()
	for i, name := range []string{"core.far_write_rtts", "core.far_rmw_write_rtts"} {
		var lat []time.Duration
		for _, s := range clients[i].samples {
			if s.kind == 'w' && !s.failed {
				lat = append(lat, s.latency())
			}
		}
		if len(lat) == 0 || len(clients[i].violations) > 0 {
			return fmt.Errorf("%s: %d writes, violations %v", name, len(lat), clients[i].violations)
		}
		p.out[name] = float64(p50(lat)) / float64(rtt)
	}
	return nil
}
