// Package deploy describes a Spider deployment — replica groups placed
// in the availability zones of regions, the crypto suite, the protocol
// settings and state directories — and launches its replicas. The
// description is the JSON file of the multi-process tooling
// (cmd/spider-node, cmd/spider-client); the in-process harness compiles
// its options into the same Config, and both start replicas through
// Launch.
package deploy

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"spider/internal/app"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/stats"
	"spider/internal/storage"
	"spider/internal/topo"
	"spider/internal/transport"
)

// GroupSpec describes one replica group.
type GroupSpec struct {
	ID      ids.GroupID  `json:"id"`
	F       int          `json:"f"`
	Members []ids.NodeID `json:"members"`
	Region  string       `json:"region,omitempty"`
	// Sites places the members, one site per member in order. Without
	// it member i sits in zone i of Region.
	Sites []topo.Site `json:"sites,omitempty"`
}

// Group converts the spec to the runtime type.
func (g GroupSpec) Group() ids.Group {
	return ids.Group{ID: g.ID, Members: slices.Clone(g.Members), F: g.F}
}

// Config is the deployment description.
type Config struct {
	// Crypto selects the signature suite: "insecure" (shared-secret
	// test crypto), "rsa" (RSA-1024 as in the paper), or "ed25519".
	// Key-file suites load their keys from KeyDir, see GenerateKeys.
	Crypto string `json:"crypto"`
	// KeyDir holds <id>.key (private) and <id>.pub files plus a
	// `suite` manifest naming the suite the keys belong to.
	KeyDir string `json:"key_dir,omitempty"`
	// Agreement is the agreement group; its Region hosts it.
	Agreement GroupSpec `json:"agreement"`
	// ExecGroups are the execution groups with their regions.
	ExecGroups []GroupSpec `json:"exec_groups"`
	// AdminClients may reconfigure the system.
	AdminClients []ids.ClientID `json:"admin_clients,omitempty"`
	// Addresses maps node ids to "host:port" listen/dial addresses.
	Addresses map[string]string `json:"addresses"`
	// Channel selects the IRMC implementation: "irmc-rc" (the
	// default) or "irmc-sc".
	Channel core.ChannelKind `json:"channel,omitempty"`
	// SlackGroups is Spider's z: how many trailing execution groups
	// the agreement group does not wait for.
	SlackGroups int `json:"slack_groups,omitempty"`
	// ConsensusAuth selects PBFT's normal-case authentication:
	// "mac-vector" (the default) or "signatures".
	ConsensusAuth pbft.AuthMode `json:"consensus_auth,omitempty"`
	// StateDir, when set, gives every replica a write-behind persistent
	// store under <StateDir>/n<node>-<kind>, from which a restarted
	// replica rehydrates instead of fetching the full state.
	StateDir string `json:"state_dir,omitempty"`
}

// Load reads and validates a config file. Unknown fields are errors,
// so a misspelled setting cannot silently deploy its default, and the
// crypto suite must be named: the insecure suite is for development
// only and is never picked by omission.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("deploy: parse %s: %w", path, err)
	}
	if len(cfg.Agreement.Members) == 0 {
		return nil, fmt.Errorf("deploy: agreement group required")
	}
	if cfg.Crypto == "" {
		return nil, fmt.Errorf(`deploy: "crypto" required ("rsa", "ed25519" or, for development only, "insecure")`)
	}
	for _, g := range cfg.groups() {
		if len(g.Sites) > 0 && len(g.Sites) != len(g.Members) {
			return nil, fmt.Errorf("deploy: group %d has %d sites for %d members", g.ID, len(g.Sites), len(g.Members))
		}
	}
	return &cfg, nil
}

// Address returns the configured address of a node.
func (c *Config) Address(id ids.NodeID) (string, bool) {
	addr, ok := c.Addresses[fmt.Sprint(int32(id))]
	return addr, ok
}

// Peers builds the dial map for one node (everyone but itself).
func (c *Config) Peers(self ids.NodeID) map[ids.NodeID]string {
	peers := make(map[ids.NodeID]string, len(c.Addresses))
	for key, addr := range c.Addresses {
		var raw int32
		if _, err := fmt.Sscan(key, &raw); err != nil {
			continue
		}
		if ids.NodeID(raw) != self {
			peers[ids.NodeID(raw)] = addr
		}
	}
	return peers
}

// AllNodes lists every node id in the config (replicas and clients
// with addresses).
func (c *Config) AllNodes() []ids.NodeID {
	seen := make(map[ids.NodeID]bool)
	var out []ids.NodeID
	add := func(id ids.NodeID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, g := range c.groups() {
		for _, m := range g.Members {
			add(m)
		}
	}
	for id := range c.Peers(0) { // 0 is no node: every addressed one
		add(id)
	}
	return out
}

// groups lists the agreement group, then the execution groups.
func (c *Config) groups() []GroupSpec {
	return append([]GroupSpec{c.Agreement}, c.ExecGroups...)
}

// Entries converts the exec groups to registry entries.
func (c *Config) Entries() []core.GroupEntry {
	out := make([]core.GroupEntry, 0, len(c.ExecGroups))
	for _, g := range c.ExecGroups {
		out = append(out, core.GroupEntry{Group: g.Group(), Region: g.Region})
	}
	return out
}

// Place records the site of every replica in p: its entry in Sites,
// or for member i zone i of the group's region.
func (c *Config) Place(p *topo.Placement) {
	for _, g := range c.groups() {
		for i, m := range g.Members {
			site := topo.Site{Region: topo.Region(g.Region), Zone: i}
			if len(g.Sites) > 0 {
				site = g.Sites[i]
			}
			p.Place(m, site)
		}
	}
}

// Host is what the process running a replica gives it: its transport
// endpoint and its crypto identity, and optionally meters an agreement
// replica reports into (they may be shared by several replicas).
type Host struct {
	Node           transport.Node
	Suite          crypto.Suite
	CommitStats    *core.CommitStats
	BatchOccupancy *stats.Occupancy
	SendOccupancy  *stats.Occupancy
}

// Replica is a replica started by Launch: exactly one of its fields
// is set. The zero Replica is none.
type Replica struct {
	Agreement *core.AgreementReplica
	Execution *core.ExecutionReplica
}

// Stop shuts the replica down, flushing and closing its store.
func (r Replica) Stop() {
	if r.Agreement != nil {
		r.Agreement.Stop()
	}
	if r.Execution != nil {
		r.Execution.Stop()
	}
}

// Launch builds and starts the replica the config assigns to self: an
// agreement replica if self is in the agreement group, otherwise an
// execution replica of the group that holds it, with the other
// execution groups as checkpoint-fetch peers. With StateDir set the
// replica opens its store first and rehydrates from it.
func (c *Config) Launch(self ids.NodeID, h Host) (Replica, error) {
	kind, own := "agree", c.Agreement.Group()
	var peers []ids.Group
	for _, g := range c.ExecGroups {
		if grp := g.Group(); grp.Contains(self) {
			kind, own = "exec", grp
		} else {
			peers = append(peers, grp)
		}
	}
	if !own.Contains(self) {
		return Replica{}, fmt.Errorf("deploy: node %v is in no configured group", self)
	}
	var st storage.Store
	if c.StateDir != "" {
		ds, err := storage.Open(filepath.Join(c.StateDir, fmt.Sprintf("n%d-%s", self, kind)))
		if err != nil {
			return Replica{}, fmt.Errorf("deploy: open store for node %d: %w", self, err)
		}
		st = ds
	}
	var r Replica
	var err error
	if kind == "agree" {
		r.Agreement, err = core.NewAgreementReplica(core.AgreementConfig{
			Group:          own,
			ExecGroups:     c.Entries(),
			AdminClients:   c.AdminClients,
			Suite:          h.Suite,
			Node:           h.Node,
			Channel:        c.Channel,
			SlackGroups:    c.SlackGroups,
			ConsensusAuth:  c.ConsensusAuth,
			CommitStats:    h.CommitStats,
			BatchOccupancy: h.BatchOccupancy,
			SendOccupancy:  h.SendOccupancy,
			Store:          st,
		})
		if err == nil {
			r.Agreement.Start()
		}
	} else {
		r.Execution, err = core.NewExecutionReplica(core.ExecutionConfig{
			Group:          own,
			AgreementGroup: c.Agreement.Group(),
			PeerGroups:     peers,
			Suite:          h.Suite,
			Node:           h.Node,
			App:            app.NewKVStore(),
			Channel:        c.Channel,
			Store:          st,
		})
		if err == nil {
			r.Execution.Start()
		}
	}
	if err != nil && st != nil {
		_ = st.Close()
	}
	return r, err
}

// masterSecret is shared by all insecure-suite deployments; pairwise
// MAC keys derive from it (development only).
var masterSecret = []byte("spider-deployment-master-secret")

// groupSecretFile is the deployment group key written next to the key
// material. Pairwise MAC keys — including the MAC vectors of the PBFT
// fast path and every IRMC envelope — derive from it, so it stands in
// for the key exchange a production deployment would run and must be
// distributed to replicas only, never to clients of an untrusted
// domain.
const groupSecretFile = "group.secret"

// groupSecret loads the deployment's group key. A missing file is an
// error like any other: falling back to the publicly known development
// secret would let anyone forge the MACs that authenticate PBFT votes
// and IRMC traffic.
func (c *Config) groupSecret() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(c.KeyDir, groupSecretFile))
	switch {
	case err != nil:
		return nil, fmt.Errorf("deploy: group secret: %w", err)
	case len(data) == 0:
		return nil, fmt.Errorf("deploy: group secret %s is empty", groupSecretFile)
	}
	return data, nil
}

// suiteManifestFile is the self-describing suite manifest written into
// every generated key directory: one line naming the suite the keys
// belong to. A directory without one is rejected.
const suiteManifestFile = "suite"

// SuiteKind parses the config's crypto field into a registered suite.
func (c *Config) SuiteKind() (crypto.SuiteKind, error) {
	kind, err := crypto.ParseSuiteKind(c.Crypto)
	if err != nil {
		return 0, fmt.Errorf("deploy: unknown crypto %q", c.Crypto)
	}
	return kind, nil
}

// keyDirSuite reads the key directory's suite manifest.
func (c *Config) keyDirSuite() (crypto.SuiteKind, error) {
	path := filepath.Join(c.KeyDir, suiteManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("deploy: suite manifest: %w (regenerate the key dir with -genkeys)", err)
	}
	kind, err := crypto.ParseSuiteKind(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, fmt.Errorf("deploy: suite manifest %s: %w", path, err)
	}
	return kind, nil
}

// Suite builds the crypto suite for one node per the config. For
// key-file suites the key directory's manifest must agree with the
// configured suite: failing loudly here turns what would otherwise be
// a confusing PEM parse error (or worse, a deployment where half the
// nodes reject the other half's signatures) into an immediate,
// explicit mismatch report.
func (c *Config) Suite(self ids.NodeID) (crypto.Suite, error) {
	kind, err := c.SuiteKind()
	if err != nil {
		return nil, err
	}
	if !crypto.HasKeyFiles(kind) {
		return crypto.SuiteFromKeys(kind, self, nil, nil, masterSecret)
	}
	dirKind, err := c.keyDirSuite()
	if err != nil {
		return nil, err
	}
	if dirKind != kind {
		return nil, fmt.Errorf("deploy: config selects crypto %q but key dir %s holds %q keys (regenerate with -genkeys or fix the config)",
			kind, c.KeyDir, dirKind)
	}
	priv, err := os.ReadFile(filepath.Join(c.KeyDir, fmt.Sprintf("%d.key", int32(self))))
	if err != nil {
		return nil, fmt.Errorf("deploy: private key: %w", err)
	}
	pubs := make(map[ids.NodeID][]byte)
	for _, id := range c.AllNodes() {
		data, err := os.ReadFile(filepath.Join(c.KeyDir, fmt.Sprintf("%d.pub", int32(id))))
		if err != nil {
			return nil, fmt.Errorf("deploy: public key of %v: %w", id, err)
		}
		pubs[id] = data
	}
	secret, err := c.groupSecret()
	if err != nil {
		return nil, err
	}
	s, err := crypto.SuiteFromKeys(kind, self, priv, pubs, secret)
	if err != nil {
		// Key files of earlier builds (PKCS#1 RSA) land here too.
		return nil, fmt.Errorf("deploy: key dir %s: %w (regenerate it with -genkeys)", c.KeyDir, err)
	}
	return s, nil
}

// GenerateKeys writes a key pair of the configured suite for every node
// into dir, plus a suite manifest naming that suite and a fresh random
// group secret from which the deployment's pairwise MAC keys derive.
// A suite without key files (insecure) has nothing to generate and is
// an error.
func (c *Config) GenerateKeys(dir string) error {
	kind, err := c.SuiteKind()
	if err != nil {
		return err
	}
	if !crypto.HasKeyFiles(kind) {
		return fmt.Errorf("deploy: crypto %q has no key files to generate", kind)
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return fmt.Errorf("deploy: group secret: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, groupSecretFile), secret, 0o600); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, suiteManifestFile), []byte(kind.String()+"\n"), 0o644); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	for _, id := range c.AllNodes() {
		priv, pub, err := crypto.GenerateSuiteKeyPEM(kind)
		if err != nil {
			return err
		}
		base := filepath.Join(dir, fmt.Sprint(int32(id)))
		if err := os.WriteFile(base+".key", priv, 0o600); err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
		if err := os.WriteFile(base+".pub", pub, 0o644); err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
	}
	return nil
}
