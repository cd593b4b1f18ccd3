package main

import (
	"time"

	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/topo"
)

// Fixed shape of every workload (see README.md): two sequential clients
// (one per vCPU of the reference container, fixed so runs on other
// machines stay comparable), 200-byte values as in the paper, the
// calibrated WAN with no jitter, agreement group in Virginia.
const (
	numClients      = 2
	valueSize       = 200
	warmup          = 2 * time.Second
	setupMin        = 3
	setupMax        = 15
	setupBudget     = 500 * time.Millisecond
	agreementRegion = topo.Virginia
)

// workload is one traffic mix on one deployment.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	regions      []topo.Region
	suite        crypto.SuiteKind
	auth         pbft.AuthMode
	channel      core.ChannelKind
	clientRegion topo.Region

	// cycle is the fixed op sequence each client walks: w write,
	// s strong read, r weak read.
	cycle string
	// interval > 0 makes the loop scheduled: op k of a client is due at
	// start + k*interval and its latency counts from the due time, so a
	// stall is charged to every request that was due during it. Zero is
	// a closed loop (next op when the previous one completed).
	interval time.Duration
	// crashAt > 0 crashes the agreement leader that share of the way
	// into the measured window.
	crashAt float64
}

var geoRegions = []topo.Region{topo.Virginia, topo.Ohio, topo.Oregon, topo.Tokyo}

var workloads = []workload{
	{
		name:         "geo_mix",
		why:          "Ohio clients, 4 regions, ed25519/MAC/IRMC-RC, cycle r-w-s: latency is WAN crossings and hops while the CPU idles; every write follows a weak read, the 2-RTT path",
		regions:      geoRegions,
		suite:        crypto.SuiteEd25519,
		clientRegion: topo.Ohio,
		cycle:        "rws",
	},
	{
		name:         "lan_mix",
		why:          "Virginia only, insecure suite, cycle w-w-w-w-s-r: no WAN or signature cost, so hop count, pbft, irmc.rc, wire and memnet queueing do the work; p50 bypasses write-after-read",
		regions:      []topo.Region{topo.Virginia},
		suite:        crypto.SuiteInsecure,
		clientRegion: topo.Virginia,
		cycle:        "wwwwsr",
	},
	{
		name:         "lan_sig",
		why:          "lan_mix with ed25519, signed PBFT and IRMC-SC: crypto does most of the work, and it is the other branch of the auth and channel knobs",
		regions:      []topo.Region{topo.Virginia},
		suite:        crypto.SuiteEd25519,
		auth:         pbft.AuthSignatures,
		channel:      core.ChannelSC,
		clientRegion: topo.Virginia,
		cycle:        "wwwwsr",
	},
	{
		name:         "leader_crash",
		why:          "lan_mix on a 30 ms schedule, clients half an interval apart, agreement leader crashed a quarter into the window: view change and timeouts do the work; requests due during the stall are counted",
		regions:      []topo.Region{topo.Virginia},
		suite:        crypto.SuiteInsecure,
		clientRegion: topo.Virginia,
		cycle:        "wwwwsr",
		interval:     30 * time.Millisecond,
		crashAt:      0.25,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change is rejected; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them, with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"write_excess_p50_ms", "ms", "lower", 0.20},
	{"write_excess_p90_ms", "ms", "lower", 0.25},
	{"sread_excess_p50_ms", "ms", "lower", 0.20},
	{"wread_p50_ms", "ms", "lower", 0.20},
}

// perLayer lists the traced run's numbers, one module per prefix. The
// README says which end-to-end metric each is expected to move.
var perLayer = []metricDef{
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.encode_allocs", "count", "lower", 0},

	{"crypto.ed25519_sign_us", "us", "lower", 0},
	{"crypto.ed25519_verify_us", "us", "lower", 0},
	{"crypto.mac_us", "us", "lower", 0},
	{"crypto.mac_vector4_us", "us", "lower", 0},

	{"memnet.overshoot_p50_us", "us", "lower", 0},
	{"memnet.frames_per_s", "1/s", "higher", 0},
	{"tcpnet.rtt_p50_us", "us", "lower", 0},
	{"tcpnet.frames_per_s", "1/s", "higher", 0},

	{"irmc.rc.deliver_excess_p50_ms", "ms", "lower", 0},
	{"irmc.rc.msgs_per_s", "1/s", "higher", 0},
	{"irmc.rc.sender_cpu", "%", "lower", 0},
	{"irmc.rc.wan_bytes_per_msg", "B", "lower", 0},
	{"irmc.sc.deliver_excess_p50_ms", "ms", "lower", 0},
	{"irmc.sc.msgs_per_s", "1/s", "higher", 0},
	{"irmc.sc.sender_cpu", "%", "lower", 0},
	{"irmc.sc.wan_bytes_per_msg", "B", "lower", 0},

	{"pbft.order_excess_p50_ms", "ms", "lower", 0},
	{"pbft.sig_order_excess_p50_ms", "ms", "lower", 0},
	{"pbft.frames_per_order", "count", "lower", 0},
	{"pbft.bytes_per_order", "B", "lower", 0},
	{"pbft.sat_req_per_s", "1/s", "higher", 0},
	{"pbft.view_change_ms", "ms", "lower", 0},

	{"app.put_ns", "ns", "lower", 0},
	{"app.get_ns", "ns", "lower", 0},
	{"app.snapshot_10k_ms", "ms", "lower", 0},

	{"storage.append_us", "us", "lower", 0},
	{"storage.sync_ms", "ms", "lower", 0},
	{"storage.load_ms", "ms", "lower", 0},

	{"core.lan_frames_per_op", "count", "lower", 0},
	{"core.wan_frames_per_op", "count", "lower", 0},
	{"core.lan_bytes_per_op", "B", "lower", 0},
	{"core.wan_bytes_per_op", "B", "lower", 0},
	{"core.batch_occupancy_mean", "count", "higher", 0},
	{"core.send_occupancy_mean", "count", "higher", 0},
	{"core.commit_bytes_per_req", "B", "lower", 0},
	{"core.view_changes", "count", "lower", 0},
	{"core.service_gap_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.far_write_rtts", "rtt", "lower", 0},
	{"core.far_rmw_write_rtts", "rtt", "lower", 0},

	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_kb_per_op", "kB", "lower", 0},
	{"proc.gc_count", "count", "lower", 0},
	{"proc.rss_peak_mb", "MB", "lower", 0},

	{"trace.overhead_frac", "frac", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.goroutines_left", "count", "lower", 0},
}

func lowerIsBetter(m metricDef) bool { return m.Better == "lower" }
