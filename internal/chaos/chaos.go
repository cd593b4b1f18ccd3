package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spider/internal/app"
	"spider/internal/core"
	"spider/internal/harness"
	"spider/internal/ids"
	"spider/internal/topo"
)

// EventKind names one fault action, as the failure artifact records
// it. Play runs the kinds an Event describes (partition, heal,
// kill-leader, surge); the Runner methods that perform the others record
// them too.
type EventKind string

// The fault actions.
const (
	EventCrash      EventKind = "crash"       // fail-stop a node (Runner.Crash)
	EventRestart    EventKind = "restart"     // bring it back from disk (Runner.Restart)
	EventPartition  EventKind = "partition"   // isolate Regions from the rest
	EventHeal       EventKind = "heal"        // remove the partition
	EventKillLeader EventKind = "kill-leader" // crash the current consensus leader
	EventSurge      EventKind = "surge"       // add Clients more load clients per region

	// Gray-failure actions: the node stays up and answers everything,
	// just slowly — the failure mode crash detectors miss.
	EventDegrade       EventKind = "degrade"        // slow a node's outbound frames (Runner.Degrade)
	EventDegradeLeader EventKind = "degrade-leader" // degrade the current consensus leader
	EventRestore       EventKind = "restore"        // lift a degrade (Runner.RestoreNode)
)

// Event is one step of a scenario timeline. At is the offset from the
// start of Play; events must be sorted by At.
type Event struct {
	At      time.Duration
	Kind    EventKind
	Regions []topo.Region // Partition
	Clients int           // Surge: extra clients per load region
}

// AppliedEvent records an executed event for the failure artifact.
type AppliedEvent struct {
	AtMS    int64         `json:"at_ms"`
	Kind    EventKind     `json:"kind"`
	Node    ids.NodeID    `json:"node,omitempty"`
	Regions []topo.Region `json:"regions,omitempty"`
	Note    string        `json:"note,omitempty"`
}

// Load parameterizes the background increment workload whose history
// feeds the linearizability check.
type Load struct {
	// Regions host the clients (default: the cluster's regions).
	Regions []topo.Region
	// Clients per region (default 1).
	Clients int
	// Keys are the shared counter keys (default: one key "chaos-0").
	Keys []string
	// Interval is the per-client think time between operations
	// (default 20ms; 0 means closed-loop).
	Interval time.Duration
}

func (l *Load) applyDefaults(c *harness.Cluster) {
	if len(l.Regions) == 0 {
		l.Regions = append([]topo.Region{}, c.Opts.Regions...)
	}
	if l.Clients <= 0 {
		l.Clients = 1
	}
	if len(l.Keys) == 0 {
		l.Keys = []string{"chaos-0"}
	}
	if l.Interval == 0 {
		l.Interval = 20 * time.Millisecond
	}
}

// Options configures a Runner.
type Options struct {
	// Name labels the scenario in artifacts.
	Name string
	// Seed is recorded in the artifact so a failing run can be
	// replayed (pass it to harness.BuildOptions.Seed).
	Seed int64
	// ArtifactDir receives a JSON failure artifact when the run ends
	// with violations (default "chaos-artifacts").
	ArtifactDir string
	// StallGrace is how long committed execution may fail to advance
	// while the network is healthy and load is running before the run
	// is declared stalled (default 15s).
	StallGrace time.Duration
	// ProbeInterval is the invariant-monitor sampling period
	// (default 100ms).
	ProbeInterval time.Duration
}

// ViewRate is one consensus view's delivery throughput, recorded for
// the failure artifact.
type ViewRate struct {
	View   uint64  `json:"view"`
	PerSec float64 `json:"per_sec"`
}

// Report is the outcome of a scenario run.
type Report struct {
	Name       string              `json:"name"`
	Seed       int64               `json:"seed"`
	Events     []AppliedEvent      `json:"events"`
	Violations []string            `json:"violations"`
	Ops        int                 `json:"ops"`
	Probes     []harness.ExecProbe `json:"probes"`
	// Gray-failure defense counters of the agreement group: total
	// view changes entered, how many suspicions the failure detector's
	// slowness rule sent (with their reasons), and per-view commit
	// throughput.
	ViewChanges     uint64     `json:"view_changes"`
	Rotations       uint64     `json:"rotations"`
	RotationReasons []string   `json:"rotation_reasons,omitempty"`
	ViewRates       []ViewRate `json:"view_rates,omitempty"`
	Artifact        string     `json:"-"`
}

// Runner drives one scenario against a cluster. Methods are safe to
// call from the test goroutine while the monitor and load clients run
// in the background.
type Runner struct {
	c     *harness.Cluster
	opts  Options
	hist  *History
	start time.Time

	mu         sync.Mutex
	events     []AppliedEvent
	violations []string
	crashed    map[ids.NodeID]bool
	loadOn     bool
	nextClient int

	loadStop chan struct{}
	loadWG   sync.WaitGroup

	monStop chan struct{}
	monWG   sync.WaitGroup
}

// NewRunner attaches a runner to a running cluster and starts the
// invariant monitor.
func NewRunner(c *harness.Cluster, opts Options) *Runner {
	if opts.StallGrace <= 0 {
		opts.StallGrace = 15 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 100 * time.Millisecond
	}
	if opts.ArtifactDir == "" {
		opts.ArtifactDir = "chaos-artifacts"
	}
	r := &Runner{
		c:        c,
		opts:     opts,
		hist:     &History{},
		start:    time.Now(),
		crashed:  make(map[ids.NodeID]bool),
		loadStop: make(chan struct{}),
		monStop:  make(chan struct{}),
	}
	r.monWG.Add(1)
	go r.monitor()
	return r
}

// History exposes the recorded client observations.
func (r *Runner) History() *History { return r.hist }

func (r *Runner) note(ev AppliedEvent) {
	ev.AtMS = time.Since(r.start).Milliseconds()
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *Runner) violate(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// --- fault actions ------------------------------------------------------------

// Crash fail-stops the node.
func (r *Runner) Crash(id ids.NodeID) error {
	if err := r.c.CrashNode(id); err != nil {
		return err
	}
	r.mu.Lock()
	r.crashed[id] = true
	r.mu.Unlock()
	r.note(AppliedEvent{Kind: EventCrash, Node: id})
	return nil
}

// Restart brings a crashed node back; with a StateDir its replicas
// rehydrate from disk.
func (r *Runner) Restart(id ids.NodeID) error {
	if err := r.c.RestartNode(id); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.crashed, id)
	r.mu.Unlock()
	r.note(AppliedEvent{Kind: EventRestart, Node: id})
	return nil
}

// Partition isolates the regions from the rest of the WAN.
func (r *Runner) Partition(regions ...topo.Region) {
	r.c.Net.Partition(regions...)
	r.note(AppliedEvent{Kind: EventPartition, Regions: regions})
}

// Heal removes the partition.
func (r *Runner) Heal() {
	r.c.Net.Heal()
	r.note(AppliedEvent{Kind: EventHeal})
}

// KillLeader crashes the node the agreement group currently follows.
func (r *Runner) KillLeader() (ids.NodeID, error) {
	id, ok := r.c.AgreementLeader()
	if !ok {
		return 0, fmt.Errorf("chaos: no agreement leader visible")
	}
	if err := r.c.CrashNode(id); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.crashed[id] = true
	r.mu.Unlock()
	r.note(AppliedEvent{Kind: EventKillLeader, Node: id, Note: fmt.Sprintf("leader was node %d", id)})
	return id, nil
}

// Degrade turns the node into a gray performer: outbound frames are
// delayed by roughly delay (± jitter fraction), nothing is dropped,
// and the node keeps participating in the protocol.
func (r *Runner) Degrade(id ids.NodeID, delay time.Duration, jitter float64) {
	r.c.Net.Degrade(id, delay, jitter)
	r.note(AppliedEvent{Kind: EventDegrade, Node: id,
		Note: fmt.Sprintf("+%v outbound delay", delay)})
}

// DegradeLeader degrades the node the agreement group currently
// follows — the scenario the failure detector's slowness rule exists
// for.
func (r *Runner) DegradeLeader(delay time.Duration, jitter float64) (ids.NodeID, error) {
	id, ok := r.c.AgreementLeader()
	if !ok {
		return 0, fmt.Errorf("chaos: no agreement leader visible")
	}
	r.c.Net.Degrade(id, delay, jitter)
	r.note(AppliedEvent{Kind: EventDegradeLeader, Node: id,
		Note: fmt.Sprintf("leader was node %d, +%v outbound delay", id, delay)})
	return id, nil
}

// RestoreNode lifts a degrade.
func (r *Runner) RestoreNode(id ids.NodeID) {
	r.c.Net.Restore(id)
	r.note(AppliedEvent{Kind: EventRestore, Node: id})
}

// Play executes a sorted timeline, sleeping between event offsets.
func (r *Runner) Play(events []Event, load Load) error {
	for _, ev := range events {
		if wait := ev.At - time.Since(r.start); wait > 0 {
			time.Sleep(wait)
		}
		var err error
		switch ev.Kind {
		case EventPartition:
			r.Partition(ev.Regions...)
		case EventHeal:
			r.Heal()
		case EventKillLeader:
			_, err = r.KillLeader()
		case EventSurge:
			surge := load
			surge.Clients = ev.Clients
			err = r.StartLoad(surge)
			r.note(AppliedEvent{Kind: EventSurge, Note: fmt.Sprintf("%d clients per region", ev.Clients)})
		default:
			err = fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- load ---------------------------------------------------------------------

// StartLoad launches increment clients; callable repeatedly (surges
// add clients). Every operation's result is recorded in the history.
func (r *Runner) StartLoad(l Load) error {
	l.applyDefaults(r.c)
	r.mu.Lock()
	if !r.loadOn {
		// A fresh stop signal: the previous one was closed by StopLoad,
		// and clients started now must not see that stale close.
		r.loadStop = make(chan struct{})
	}
	r.loadOn = true
	stop := r.loadStop
	r.mu.Unlock()
	for _, region := range l.Regions {
		for i := 0; i < l.Clients; i++ {
			client, err := r.c.NewClient(region)
			if err != nil {
				return err
			}
			r.mu.Lock()
			ci := r.nextClient
			r.nextClient++
			r.mu.Unlock()
			r.loadWG.Add(1)
			go r.runClient(ci, client, l, stop)
		}
	}
	return nil
}

// runClient drives one load client until its stop channel closes. The
// channel is passed in rather than read off the Runner because
// StartLoad after StopLoad replaces the field — a client must honor
// the signal of the load generation that started it.
func (r *Runner) runClient(ci int, client *core.Client, l Load, stop <-chan struct{}) {
	defer r.loadWG.Done()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		key := l.Keys[(ci+i)%len(l.Keys)]
		res, err := client.Write(app.EncodeOp(app.Op{Kind: app.OpInc, Key: key, Delta: 1}))
		if err != nil {
			// A failed increment may or may not have executed; its
			// counter value would be unaccounted for, so any later
			// dense-set check would be meaningless. Flag it.
			r.violate("load client %d: inc %q failed: %v", ci, key, err)
			return
		}
		dec, err := app.DecodeResult(res)
		if err != nil || !dec.OK {
			r.violate("load client %d: bad inc result for %q: %v", ci, key, err)
			return
		}
		r.hist.Record(ci, key, dec.Counter)
		if l.Interval > 0 {
			select {
			case <-stop:
				return
			case <-time.After(l.Interval):
			}
		}
	}
}

// StopLoad signals every load client to finish its in-flight operation
// and exit, then waits for them.
func (r *Runner) StopLoad() {
	r.mu.Lock()
	on := r.loadOn
	r.loadOn = false
	r.mu.Unlock()
	if on {
		close(r.loadStop)
	}
	r.loadWG.Wait()
}

// --- invariant monitor --------------------------------------------------------

// monitor continuously samples execution probes, checking that (a) no
// two replicas of a group diverge — equal sequence number must mean
// equal state digest (deterministic SMR, so this holds regardless of
// sampling skew) — and (b) committed execution keeps advancing while
// the network is healthy and load is running: the commit subchannel
// feeding the executors must not stall.
func (r *Runner) monitor() {
	defer r.monWG.Done()
	ticker := time.NewTicker(r.opts.ProbeInterval)
	defer ticker.Stop()
	var (
		maxSeq      = make(map[string]ids.SeqNr) // "g<id>" -> high-water seq
		lastAdvance = time.Now()
		divergence  = make(map[string]bool) // reported divergences, deduped
		stalled     bool
	)
	for {
		select {
		case <-r.monStop:
			return
		case <-ticker.C:
		}
		probes := r.c.ExecProbes()
		type gs struct {
			digest string
			node   ids.NodeID
		}
		atSeq := make(map[string]gs)
		advanced := false
		for _, p := range probes {
			key := fmt.Sprintf("g%d", p.Group)
			seqKey := fmt.Sprintf("%s@%d", key, p.Seq)
			dig := fmt.Sprintf("%x", p.Digest)
			if prev, ok := atSeq[seqKey]; ok && prev.digest != dig && !divergence[seqKey] {
				divergence[seqKey] = true
				r.violate("divergence: group %d at seq %d: node %d digest %s != node %d digest %s",
					p.Group, p.Seq, prev.node, prev.digest[:8], p.Node, dig[:8])
			}
			atSeq[seqKey] = gs{digest: dig, node: p.Node}
			if p.Seq > maxSeq[key] {
				maxSeq[key] = p.Seq
				advanced = true
			}
		}
		r.mu.Lock()
		healthy := !r.c.Net.Partitioned() && len(r.crashed) == 0
		loadOn := r.loadOn
		r.mu.Unlock()
		if advanced || !healthy || !loadOn {
			lastAdvance = time.Now()
			stalled = false
			continue
		}
		if !stalled && time.Since(lastAdvance) > r.opts.StallGrace {
			stalled = true
			r.violate("stall: no committed execution progress for %v while healthy under load", r.opts.StallGrace)
		}
	}
}

// --- finish -------------------------------------------------------------------

// Finish stops the load and the monitor, waits for every execution
// group to converge (per group: all running replicas at the same
// sequence number with the same digest), verifies each counter
// key's final value through an ordered read, checks the history for
// per-key linearizability, and writes a JSON failure artifact when any
// invariant was violated. readRegion hosts the verification client.
func (r *Runner) Finish(readRegion topo.Region, convergeTimeout time.Duration) *Report {
	r.StopLoad()
	// Convergence: all running replicas of a group reach the
	// same (seq, digest). Load has stopped, so retransmits drain.
	deadline := time.Now().Add(convergeTimeout)
	var probes []harness.ExecProbe
	for {
		probes = r.c.ExecProbes()
		byGroup := make(map[string]map[string]bool)
		for _, p := range probes {
			key := fmt.Sprintf("g%d", p.Group)
			if byGroup[key] == nil {
				byGroup[key] = make(map[string]bool)
			}
			byGroup[key][fmt.Sprintf("%d/%x", p.Seq, p.Digest)] = true
		}
		converged := true
		for _, states := range byGroup {
			if len(states) > 1 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			r.violate("convergence: replicas still split after %v: %+v", convergeTimeout, summarize(probes))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(r.monStop)
	r.monWG.Wait()

	// Final counter values, read through the ordered write path so the
	// reads linearize after every recorded increment.
	if totals := r.hist.PerKeyTotals(); len(totals) > 0 {
		if client, err := r.c.NewClient(readRegion); err != nil {
			r.violate("finish: verification client: %v", err)
		} else {
			for key, want := range totals {
				res, err := client.Write(app.EncodeOp(app.Op{Kind: app.OpGet, Key: key}))
				if err != nil {
					r.violate("finish: ordered read of %q: %v", key, err)
					continue
				}
				dec, err := app.DecodeResult(res)
				if err != nil || !dec.Found || dec.Counter != want {
					r.violate("finish: key %q final counter = %d, want %d (err=%v)",
						key, dec.Counter, want, err)
				}
			}
		}
	}

	for _, v := range CheckLinearizable(r.hist.Snapshot()) {
		r.violate("linearizability: %s", v)
	}

	gray := r.c.GrayFailureStats()
	r.mu.Lock()
	rep := &Report{
		Name:            r.opts.Name,
		Seed:            r.opts.Seed,
		Events:          append([]AppliedEvent{}, r.events...),
		Violations:      append([]string{}, r.violations...),
		Ops:             r.hist.Len(),
		Probes:          probes,
		ViewChanges:     gray.ViewChanges,
		Rotations:       gray.Rotations,
		RotationReasons: gray.Reasons,
	}
	for _, vr := range gray.ViewRates {
		rep.ViewRates = append(rep.ViewRates, ViewRate{View: vr.View, PerSec: vr.PerSec})
	}
	r.mu.Unlock()
	if len(rep.Violations) > 0 {
		rep.Artifact = r.writeArtifact(rep)
	}
	return rep
}

func summarize(probes []harness.ExecProbe) []string {
	out := make([]string, 0, len(probes))
	for _, p := range probes {
		out = append(out, fmt.Sprintf("n%d g%d seq=%d dig=%x", p.Node, p.Group, p.Seq, p.Digest[:4]))
	}
	return out
}

// writeArtifact dumps the report (seed, timeline, violations, final
// probes) so a CI failure can be replayed locally.
func (r *Runner) writeArtifact(rep *Report) string {
	if err := os.MkdirAll(r.opts.ArtifactDir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(r.opts.ArtifactDir, fmt.Sprintf("%s-seed%d.json", rep.Name, rep.Seed))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return ""
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}
