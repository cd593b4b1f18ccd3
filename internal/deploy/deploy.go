// Package deploy loads the JSON deployment descriptions used by the
// multi-process tooling (cmd/spider-node, cmd/spider-client): group
// membership, node addresses, and key material.
package deploy

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
)

// GroupSpec describes one replica group in the config file.
type GroupSpec struct {
	ID      int32   `json:"id"`
	F       int     `json:"f"`
	Members []int32 `json:"members"`
	Region  string  `json:"region,omitempty"`
}

// Group converts the spec to the runtime type.
func (g GroupSpec) Group() ids.Group {
	members := make([]ids.NodeID, len(g.Members))
	for i, m := range g.Members {
		members[i] = ids.NodeID(m)
	}
	return ids.Group{ID: ids.GroupID(g.ID), Members: members, F: g.F}
}

// Config is the on-disk deployment description.
type Config struct {
	// Crypto selects the signature suite: "insecure" (shared-secret
	// test crypto), "rsa" (RSA-1024 as in the paper), or "ed25519".
	// Key-file suites load their keys from KeyDir, see GenerateKeys.
	Crypto string `json:"crypto"`
	// KeyDir holds <id>.key (private) and <id>.pub files plus a
	// `suite` manifest naming the suite the keys belong to.
	KeyDir string `json:"key_dir,omitempty"`
	// Agreement is the agreement group.
	Agreement GroupSpec `json:"agreement"`
	// ExecGroups are the execution groups with their regions.
	ExecGroups []GroupSpec `json:"exec_groups"`
	// AdminClients may reconfigure the system.
	AdminClients []int32 `json:"admin_clients,omitempty"`
	// Addresses maps node ids to "host:port" listen/dial addresses.
	Addresses map[string]string `json:"addresses"`
}

// Load reads and validates a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("deploy: parse %s: %w", path, err)
	}
	if len(cfg.Agreement.Members) == 0 {
		return nil, fmt.Errorf("deploy: agreement group required")
	}
	if cfg.Crypto == "" {
		cfg.Crypto = "insecure"
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
	for _, m := range c.Agreement.Group().Members {
		add(m)
	}
	for _, g := range c.ExecGroups {
		for _, m := range g.Group().Members {
			add(m)
		}
	}
	for key := range c.Addresses {
		var raw int32
		if _, err := fmt.Sscan(key, &raw); err == nil {
			add(ids.NodeID(raw))
		}
	}
	return out
}

// Entries converts the exec groups to registry entries.
func (c *Config) Entries() []core.GroupEntry {
	out := make([]core.GroupEntry, 0, len(c.ExecGroups))
	for _, g := range c.ExecGroups {
		out = append(out, core.GroupEntry{Group: g.Group(), Region: g.Region})
	}
	return out
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
