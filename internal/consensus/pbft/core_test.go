package pbft

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/wire"
)

// replicaFiles are the files that may hold locks, goroutines and the
// clock; every other product file of the package is core.
var replicaFiles = map[string]bool{"replica.go": true, "config.go": true}

// TestCorePurity: outside replicaFiles nothing imports sync or the
// transport, starts a goroutine, or reads or waits on the clock — time
// only arrives with events.
func TestCorePurity(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"sync": true, "sync/atomic": true, "spider/internal/transport": true}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || replicaFiles[name] {
			continue
		}
		checked++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timeName := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if banned[path] {
				t.Errorf("%s imports %s", name, path)
			}
			if path == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName && clock[n.Sel.Name] {
					t.Errorf("%s: time.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
	if checked < 4 {
		t.Fatalf("checked only %d files", checked)
	}
}

// nopNode satisfies Config.Node for replicas the simulation drives; the
// simulation carries their traffic, so it is never called.
type nopNode struct{ transport.Node }

// simFrame is one envelope on the simulated wire.
type simFrame struct {
	from, to ids.NodeID
	env      []byte
	at       time.Time // when it arrives
}

// sim wires the cores of one group through an in-test router on a
// synthetic clock: one goroutine, no transport, no sleep. Each member is
// a Replica that is never started. The router plays Replica's part: it runs
// every frame through the replica's own check, steps the core, and
// carries out the actions itself.
// Frames arrive delay after they are sent (at once by default), plus
// the lag of either end, in the order they are due and, when due
// together, in the order sent; the clock moves only when no frame is
// due.
type sim struct {
	t   *testing.T
	now time.Time
	// tick is how far the clock moves when no frame is due; every live
	// replica is ticked then. Zero moves it to the next frame arrival or
	// replica wake-up instead, and ticks only the replicas due, as
	// Replica's one timer does.
	tick  time.Duration
	delay time.Duration
	// lag slows a replica down: every frame it sends or receives takes
	// that much longer.
	lag     map[ids.NodeID]time.Duration
	members []ids.NodeID
	suites  map[ids.NodeID]crypto.Suite
	reps    map[ids.NodeID]*Replica
	queue   []simFrame
	sent    []simFrame // every frame put on the wire
	down    map[ids.NodeID]bool
	// drop, when set, loses the frames it matches.
	drop func(simFrame) bool
	// intercept, when set, sees every frame about to arrive and reports
	// whether it took care of it (held it back or delivered it itself).
	intercept func(simFrame) bool
	delivered map[ids.NodeID][]consensus.Batch
	// held replicas do not take committed batches: their Deliver blocks.
	held map[ids.NodeID]bool
	// firstVC is when each replica first entered a view change; ticks
	// counts the ticks each replica was given.
	firstVC map[ids.NodeID]time.Time
	ticks   map[ids.NodeID]int
}

func newSim(t *testing.T, mutate func(cfg *Config)) *sim {
	t.Helper()
	s := &sim{
		t:         t,
		now:       time.Unix(1000, 0),
		tick:      5 * time.Millisecond,
		members:   []ids.NodeID{1, 2, 3, 4},
		reps:      make(map[ids.NodeID]*Replica),
		down:      make(map[ids.NodeID]bool),
		lag:       make(map[ids.NodeID]time.Duration),
		delivered: make(map[ids.NodeID][]consensus.Batch),
		held:      make(map[ids.NodeID]bool),
		firstVC:   make(map[ids.NodeID]time.Time),
		ticks:     make(map[ids.NodeID]int),
	}
	group := ids.Group{ID: 1, Members: s.members, F: 1}
	s.suites = crypto.NewSuites(s.members, crypto.EnvSuiteKind(crypto.SuiteInsecure))
	for _, id := range s.members {
		cfg := Config{
			Group:              group,
			Suite:              s.suites[id],
			Node:               nopNode{},
			Stream:             testStream,
			Deliver:            func(consensus.Batch) {},
			BatchSize:          4,
			BatchDelay:         2 * time.Millisecond,
			Window:             32,
			CheckpointInterval: 8,
			RequestTimeout:     300 * time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.core = newCore(&r.cfg, s.now) // on the synthetic clock
		s.reps[id] = r
	}
	return s
}

func (s *sim) post(from, to ids.NodeID, env []byte) {
	f := simFrame{from: from, to: to, env: env, at: s.now.Add(s.delay + s.lag[from] + s.lag[to])}
	s.sent = append(s.sent, f)
	if s.down[from] || s.down[to] || (s.drop != nil && s.drop(f)) {
		return
	}
	i := len(s.queue)
	for i > 0 && s.queue[i-1].at.After(f.at) {
		i--
	}
	s.queue = slices.Insert(s.queue, i, f)
}

// step feeds one event to a core at the current time and carries out
// its actions; a batch that becomes deliverable is taken at once.
func (s *sim) step(id ids.NodeID, ev event) {
	ev.now = s.now
	r := s.reps[id]
	for _, a := range r.core.Step(ev) {
		switch a.kind {
		case actSend:
			s.post(id, a.to, a.env)
		case actMulticast:
			for _, m := range s.members {
				s.post(id, m, a.env)
			}
		case actAuthMulticast:
			auth := r.normalAuth
			if a.signed {
				auth = r.sigAuth
			}
			frame := registry.EncodeFrame(a.tag, a.msg)
			sig, vec := auth.Authenticate(frame)
			env := wire.Encode(&signedRaw{From: id, Frame: frame, Sig: sig, MACVec: vec})
			for _, m := range s.members {
				s.post(id, m, env)
			}
		case actDeliver:
			s.delivered[id] = append(s.delivered[id], a.batch)
		}
	}
	if r.core.vcCount > 0 && s.firstVC[id].IsZero() {
		s.firstVC[id] = s.now
	}
	if ev.kind == evTick {
		s.ticks[id]++
	}
	for ev.kind != evTake && !s.held[id] && r.core.deliverable() {
		s.step(id, event{kind: evTake})
	}
}

// release unblocks a held replica's Deliver: it takes what committed.
func (s *sim) release(id ids.NodeID) {
	s.held[id] = false
	for s.reps[id].core.deliverable() {
		s.step(id, event{kind: evTake})
	}
}

// arrive hands one frame to its receiver the way Replica.onFrames does.
func (s *sim) arrive(f simFrame) {
	var raw signedRaw
	if err := wire.Decode(f.env, &raw); err != nil || raw.From != f.from {
		return
	}
	in := &inbound{from: f.from, raw: raw, env: f.env}
	if err := s.reps[f.to].check(in); err != nil && in.fallback == nil {
		return
	}
	s.step(f.to, event{kind: evFrame, in: in})
}

// order submits a payload at the given replicas.
func (s *sim) order(payload []byte, at ...ids.NodeID) {
	for _, id := range at {
		s.step(id, event{kind: evOrder, payload: payload, digest: crypto.Hash(payload)})
	}
}

// run delivers the frames that are due, then advances the clock (see
// sim.tick) and ticks the replicas, until done holds. It fails the test
// if that takes more than limit of synthetic time.
func (s *sim) run(what string, limit time.Duration, done func() bool) {
	s.t.Helper()
	end := s.now.Add(limit)
	for !done() {
		if len(s.queue) > 0 && !s.queue[0].at.After(s.now) {
			f := s.queue[0]
			s.queue = s.queue[1:]
			if !s.down[f.to] && (s.intercept == nil || !s.intercept(f)) {
				s.arrive(f)
			}
			continue
		}
		if s.now.After(end) {
			s.t.Fatalf("%s: not within %v of synthetic time", what, limit)
		}
		next := s.now.Add(s.tick)
		if s.tick == 0 {
			next = time.Time{}
			for _, id := range s.live() {
				if w := s.reps[id].core.wake(); next.IsZero() || w.Before(next) {
					next = w
				}
			}
		}
		if len(s.queue) > 0 && s.queue[0].at.Before(next) {
			next = s.queue[0].at
		}
		if next.After(s.now) {
			s.now = next
		}
		for _, id := range s.live() {
			if s.tick > 0 || !s.reps[id].core.wake().After(s.now) {
				s.step(id, event{kind: evTick})
			}
		}
	}
}

// payloads flattens what a replica delivered.
func (s *sim) payloads(id ids.NodeID) [][]byte {
	var out [][]byte
	for _, b := range s.delivered[id] {
		out = append(out, b.Payloads...)
	}
	return out
}

// live lists the members not marked down.
func (s *sim) live() []ids.NodeID {
	var out []ids.NodeID
	for _, id := range s.members {
		if !s.down[id] {
			out = append(out, id)
		}
	}
	return out
}

// allDelivered reports whether every live replica delivered n payloads.
func (s *sim) allDelivered(n int) func() bool {
	return func() bool {
		for _, id := range s.live() {
			if len(s.payloads(id)) < n {
				return false
			}
		}
		return true
	}
}

// sameOrder asserts that every live replica delivered the same batches
// at the same sequence numbers.
func (s *sim) sameOrder() {
	s.t.Helper()
	live := s.live()
	ref := s.delivered[live[0]]
	for _, id := range live[1:] {
		got := s.delivered[id]
		if len(got) != len(ref) {
			s.t.Fatalf("replica %v delivered %d batches, replica %v %d", id, len(got), live[0], len(ref))
		}
		for i := range got {
			if got[i].Seq != ref[i].Seq || got[i].Start != ref[i].Start || len(got[i].Payloads) != len(ref[i].Payloads) {
				s.t.Fatalf("replica %v batch %d = (%d, %d), replica %v (%d, %d)", id, i, got[i].Seq, got[i].Start, live[0], ref[i].Seq, ref[i].Start)
			}
			for j := range got[i].Payloads {
				if !bytes.Equal(got[i].Payloads[j], ref[i].Payloads[j]) {
					s.t.Fatalf("replica %v diverges in batch %d", id, got[i].Seq)
				}
			}
		}
	}
}

// multicasts decodes the messages of one type a replica multicast (each
// counted once, as its copy to itself).
func (s *sim) multicasts(from ids.NodeID, tag wire.TypeTag) []wire.Message {
	var out []wire.Message
	for _, f := range s.sent {
		if f.from != from || f.to != from {
			continue
		}
		var raw signedRaw
		if err := wire.Decode(f.env, &raw); err != nil {
			s.t.Fatal(err)
		}
		if got, msg, err := registry.DecodeFrame(raw.Frame); err == nil && got == tag {
			out = append(out, msg)
		}
	}
	return out
}

// sentViewChanges decodes the view-change messages a replica multicast.
func (s *sim) sentViewChanges(from ids.NodeID) []*viewChange {
	var out []*viewChange
	for _, m := range s.multicasts(from, tagViewChange) {
		out = append(out, m.(*viewChange))
	}
	return out
}

// TestCoreSteps takes four cores through the protocol's three paths in
// one goroutine on a synthetic clock.
func TestCoreSteps(t *testing.T) {
	for _, tc := range []struct {
		name string
		auth AuthMode
		run  func(t *testing.T, s *sim)
	}{
		{"ordering", AuthMACVector, coreOrdering},
		{"view-change-carries-prepared/mac", AuthMACVector, coreViewChangeCarriesPrepared},
		{"view-change-carries-prepared/signed", AuthSignatures, coreViewChangeCarriesPrepared},
		{"checkpoint-collects-log", AuthMACVector, coreCheckpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSim(t, func(cfg *Config) {
				cfg.NormalCaseAuth = tc.auth
				if tc.name == "checkpoint-collects-log" {
					cfg.BatchSize, cfg.CheckpointInterval, cfg.Window = 1, 4, 8
				}
			})
			tc.run(t, s)
		})
	}
}

// coreOrdering: payloads ordered at every replica are delivered by all of
// them, densely and identically.
func coreOrdering(t *testing.T, s *sim) {
	const total = 12
	for i := 0; i < total; i++ {
		s.order(payloadN(i), s.members...)
	}
	s.run("ordering", time.Second, s.allDelivered(total))
	s.sameOrder()
	for i, b := range s.delivered[1] {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has sequence number %d", i, b.Seq)
		}
	}
	if got := s.payloads(1); len(got) != total {
		t.Fatalf("delivered %d payloads, want %d", len(got), total)
	}
}

// coreViewChangeCarriesPrepared: a batch prepares everywhere but no
// commit gets through, then its leader fails. The request timeout moves
// the others to view 1, whose view-change messages carry the batch's
// signed prepared proof — under MACs after the proof-upgrade round —
// and whose leader re-proposes it at the same sequence number.
func coreViewChangeCarriesPrepared(t *testing.T, s *sim) {
	x := []byte("prepared, never committed")
	s.drop = func(f simFrame) bool {
		tag, _ := peekFrame(f.env)
		return tag == tagCommit
	}
	s.order(x, s.members...)
	s.run("prepared everywhere", time.Second, func() bool {
		for _, id := range s.members {
			e, ok := s.reps[id].core.log[1]
			if !ok || !e.prepared {
				return false
			}
		}
		return true
	})
	for _, id := range s.members {
		if e := s.reps[id].core.log[1]; e.committed {
			t.Fatalf("replica %v committed without commits", id)
		}
	}
	s.drop = nil
	s.down[1] = true

	s.run("view 1 delivers the prepared batch", 5*time.Second, s.allDelivered(1))
	s.sameOrder()
	for _, id := range s.live() {
		if v := s.reps[id].core.view; v != 1 {
			t.Errorf("replica %v in view %d, want 1", id, v)
		}
		if b := s.delivered[id][0]; b.Seq != 1 || !bytes.Equal(b.Payloads[0], x) {
			t.Errorf("replica %v delivered %q at %d, want the prepared batch at 1", id, b.Payloads, b.Seq)
		}
		vcs := s.sentViewChanges(id)
		if len(vcs) == 0 {
			t.Fatalf("replica %v sent no view change", id)
		}
		for _, vc := range vcs {
			if len(vc.Prepared) != 1 {
				t.Fatalf("replica %v's view change carries %d prepared proofs, want 1", id, len(vc.Prepared))
			}
			p := &vc.Prepared[0]
			if pp := decodePrePrepare(&p.PrePrepare); pp == nil || pp.Seq != 1 || !p.PrePrepare.transferable() {
				t.Fatalf("replica %v's prepared proof is not the signed pre-prepare of batch 1", id)
			}
			for i := range p.Prepares {
				if !p.Prepares[i].transferable() {
					t.Fatalf("replica %v's prepared proof carries a MAC vote", id)
				}
			}
		}
	}
}

// coreCheckpoint: a checkpoint every four batches becomes stable at
// every replica and takes the log entries at and below it.
func coreCheckpoint(t *testing.T, s *sim) {
	const total = 10
	for i := 0; i < total; i++ {
		s.order(payloadN(i), s.members...)
	}
	s.run("deliveries and the second checkpoint", time.Second, func() bool {
		if !s.allDelivered(total)() {
			return false
		}
		for _, id := range s.members {
			if s.reps[id].core.lowWM < 8 {
				return false
			}
		}
		return true
	})
	s.sameOrder()
	for _, id := range s.members {
		c := s.reps[id].core
		if c.lowWM != 8 || len(c.stableProof) < 3 {
			t.Fatalf("replica %v: low watermark %d with %d checkpoint signatures, want 8 with a quorum", id, c.lowWM, len(c.stableProof))
		}
		for seq := range c.log {
			if seq <= c.lowWM {
				t.Errorf("replica %v kept log entry %d below its stable checkpoint", id, seq)
			}
		}
		if len(c.log) != total-8 {
			t.Errorf("replica %v holds %d log entries, want %d", id, len(c.log), total-8)
		}
		for seq := range c.checkpoints.All() {
			if seq <= c.lowWM {
				t.Errorf("replica %v kept checkpoint votes for %d", id, seq)
			}
		}
	}
}

// TestOutOfWindowVotesNotRecorded: prepares and checkpoints above the
// window leave nothing behind — no log entry, no vote — however many a
// faulty replica sends, as pre-prepares and commits there never did; and
// the group still orders.
func TestOutOfWindowVotesNotRecorded(t *testing.T) {
	s := newSim(t, nil)
	faulty, victim := ids.NodeID(2), ids.NodeID(1)
	r := s.reps[faulty]
	for i := range uint64(1000) {
		seq := 1_000_000 + i
		for _, m := range []struct {
			tag  wire.TypeTag
			msg  wire.Marshaler
			auth crypto.GroupAuthenticator
		}{
			{tagPrepare, &prepare{View: 0, Seq: seq, Digest: crypto.Hash([]byte("bogus"))}, r.macAuth},
			{tagCheckpoint, &checkpointMsg{BatchSeq: seq, GlobalSeq: seq}, r.sigAuth},
		} {
			frame := registry.EncodeFrame(m.tag, m.msg)
			sig, vec := m.auth.Authenticate(frame)
			s.post(faulty, victim, wire.Encode(&signedRaw{From: faulty, Frame: frame, Sig: sig, MACVec: vec}))
		}
	}
	s.run("the flood", time.Second, func() bool { return len(s.queue) == 0 })
	c := s.reps[victim].core
	above := func(seq uint64) bool { return seq > c.window() }
	for seq := range c.log {
		if above(seq) {
			t.Fatalf("log entry %d recorded above the window %d", seq, c.window())
		}
	}
	for seq := range c.prepares.All() {
		if above(seq) {
			t.Fatalf("prepare for %d recorded above the window %d", seq, c.window())
		}
	}
	for seq := range c.checkpoints.All() {
		if above(seq) {
			t.Fatalf("checkpoint vote for %d recorded above the window %d", seq, c.window())
		}
	}

	const total = 12
	for i := range total {
		s.order(payloadN(i), s.members...)
	}
	s.run("ordering after the flood", time.Second, s.allDelivered(total))
	s.sameOrder()
}
