package deploy

import (
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/topo"
)

const sampleConfig = `{
  "crypto": "insecure",
  "agreement": {"id": 1, "f": 1, "members": [1, 2, 3, 4]},
  "exec_groups": [
    {"id": 10, "f": 1, "members": [11, 12, 13], "region": "virginia"},
    {"id": 20, "f": 1, "members": [21, 22, 23], "region": "tokyo"}
  ],
  "admin_clients": [100],
  "addresses": {
    "1": "127.0.0.1:7001", "2": "127.0.0.1:7002",
    "11": "127.0.0.1:7011", "100": "127.0.0.1:7100"
  }
}`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(path, []byte(sampleConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Agreement.Group(); got.Size() != 4 || got.F != 1 {
		t.Errorf("agreement group = %+v", got)
	}
	if len(cfg.ExecGroups) != 2 {
		t.Errorf("exec groups = %d", len(cfg.ExecGroups))
	}
	addr, ok := cfg.Address(11)
	if !ok || addr != "127.0.0.1:7011" {
		t.Errorf("address = %q %v", addr, ok)
	}
	peers := cfg.Peers(1)
	if _, self := peers[1]; self {
		t.Error("peers includes self")
	}
	if peers[2] != "127.0.0.1:7002" {
		t.Errorf("peers = %v", peers)
	}
	if entries := cfg.Entries(); len(entries) != 2 || entries[0].Region != "virginia" {
		t.Errorf("entries = %+v", entries)
	}
	// 4 agreement + 6 exec + client 100 = 11 distinct nodes.
	if got := len(cfg.AllNodes()); got != 11 {
		t.Errorf("AllNodes = %d", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("corrupt json accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	os.WriteFile(empty, []byte("{}"), 0o644)
	if _, err := Load(empty); err == nil {
		t.Error("config without agreement group accepted")
	}
}

// loadString writes a config file holding body and loads it.
func loadString(t *testing.T, body string) (*Config, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return Load(path)
}

// TestLoadRejectsUnknownField: a misspelled setting is an error naming
// it, not a deployment running the default.
func TestLoadRejectsUnknownField(t *testing.T) {
	typo := strings.Replace(sampleConfig, `"admin_clients"`, `"admin_client"`, 1)
	_, err := loadString(t, typo)
	if err == nil || !strings.Contains(err.Error(), "admin_client") {
		t.Fatalf("misspelled field: err = %v", err)
	}
}

// TestLoadRequiresCrypto: a config that names no suite is an error.
// The insecure suite's MAC keys derive from a public secret, so it is
// used only when named, as the sample config does.
func TestLoadRequiresCrypto(t *testing.T) {
	_, err := loadString(t, strings.Replace(sampleConfig, `"crypto": "insecure",`, "", 1))
	if err == nil || !strings.Contains(err.Error(), "crypto") {
		t.Fatalf("config without crypto: err = %v", err)
	}
	cfg, err := loadString(t, sampleConfig)
	if err != nil || cfg.Crypto != "insecure" {
		t.Fatalf("explicit insecure: crypto %q, err %v", cfg.Crypto, err)
	}
}

// TestLoadSettings: the protocol settings and the placement are read
// by name, and bad values are errors.
func TestLoadSettings(t *testing.T) {
	body := strings.Replace(sampleConfig, `"admin_clients": [100],`, `"admin_clients": [100],
  "channel": "irmc-sc", "consensus_auth": "signatures", "slack_groups": 1, "state_dir": "/var/spider",`, 1)
	body = strings.Replace(body, `"members": [21, 22, 23], "region": "tokyo"`,
		`"members": [21, 22, 23], "region": "tokyo", "sites": [{"region": "tokyo", "zone": 2}, {"region": "seoul", "zone": 0}, {"region": "seoul", "zone": 1}]`, 1)
	cfg, err := loadString(t, body)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channel != core.ChannelSC || cfg.ConsensusAuth != pbft.AuthSignatures || cfg.SlackGroups != 1 || cfg.StateDir != "/var/spider" {
		t.Errorf("settings = %v %v %d %q", cfg.Channel, cfg.ConsensusAuth, cfg.SlackGroups, cfg.StateDir)
	}
	p := topo.NewPlacement(1)
	cfg.Place(p)
	if site, _ := p.Site(22); site != (topo.Site{Region: topo.Seoul, Zone: 0}) {
		t.Errorf("node 22 placed at %v", site)
	}
	if site, _ := p.Site(12); site != (topo.Site{Region: "virginia", Zone: 1}) {
		t.Errorf("node 12 placed at %v, want the default zone", site)
	}
	for name, bad := range map[string]string{
		"channel": strings.Replace(body, `"irmc-sc"`, `"irmc-xx"`, 1),
		"auth":    strings.Replace(body, `"signatures"`, `"none"`, 1),
		"sites":   strings.Replace(body, `, {"region": "seoul", "zone": 1}`, "", 1),
	} {
		if _, err := loadString(t, bad); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

func TestInsecureSuite(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := cfg.Suite(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cfg.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	sig := s1.Sign(crypto.DomainPBFT, []byte("m"))
	if err := s2.Verify(1, crypto.DomainPBFT, []byte("m"), sig); err != nil {
		t.Errorf("cross-suite verify: %v", err)
	}
}

func TestGenerateAndLoadRSAKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation")
	}
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = "rsa"
	dir := t.TempDir()
	if err := cfg.GenerateKeys(dir); err != nil {
		t.Fatal(err)
	}
	cfg.KeyDir = dir
	s1, err := cfg.Suite(1)
	if err != nil {
		t.Fatal(err)
	}
	s11, err := cfg.Suite(11)
	if err != nil {
		t.Fatal(err)
	}
	sig := s1.Sign(crypto.DomainPBFT, []byte("m"))
	if err := s11.Verify(1, crypto.DomainPBFT, []byte("m"), sig); err != nil {
		t.Errorf("rsa cross verify: %v", err)
	}
	if err := s11.Verify(2, crypto.DomainPBFT, []byte("m"), sig); err == nil {
		t.Error("wrong signer accepted")
	}
}

func TestUnknownCrypto(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = "quantum"
	if _, err := cfg.Suite(1); err == nil {
		t.Error("unknown crypto accepted")
	}
}

func TestGenerateAndLoadEd25519Keys(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = "ed25519"
	dir := t.TempDir()
	if err := cfg.GenerateKeys(dir); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, suiteManifestFile))
	if err != nil {
		t.Fatalf("suite manifest not written: %v", err)
	}
	if got := string(manifest); got != "ed25519\n" {
		t.Errorf("manifest = %q, want %q", got, "ed25519\n")
	}
	cfg.KeyDir = dir
	s1, err := cfg.Suite(1)
	if err != nil {
		t.Fatal(err)
	}
	s11, err := cfg.Suite(11)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	sig := s1.Sign(crypto.DomainPBFT, msg)
	if len(sig) != crypto.Ed25519SignatureSize {
		t.Errorf("signature size = %d, want %d", len(sig), crypto.Ed25519SignatureSize)
	}
	if err := s11.Verify(1, crypto.DomainPBFT, msg, sig); err != nil {
		t.Errorf("ed25519 cross verify: %v", err)
	}
	if err := s11.Verify(2, crypto.DomainPBFT, msg, sig); err == nil {
		t.Error("wrong signer accepted")
	}
	if err := s11.VerifyMAC(1, crypto.DomainReply, msg, s1.MAC(11, crypto.DomainReply, msg)); err != nil {
		t.Errorf("MAC between generated suites: %v", err)
	}
}

// TestSuiteManifestMismatch pins the loud-failure contract: pointing a
// config at a key dir generated for a different suite must fail with an
// explicit mismatch error naming both suites, not a PEM parse error.
func TestSuiteManifestMismatch(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = "ed25519"
	dir := t.TempDir()
	if err := cfg.GenerateKeys(dir); err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = "rsa"
	cfg.KeyDir = dir
	_, err = cfg.Suite(1)
	if err == nil {
		t.Fatal("suite/key-dir mismatch accepted")
	}
	if !strings.Contains(err.Error(), "rsa") || !strings.Contains(err.Error(), "ed25519") {
		t.Errorf("mismatch error does not name both suites: %v", err)
	}
	// A corrupt manifest is also a loud error, not a fallback.
	if err := os.WriteFile(filepath.Join(dir, suiteManifestFile), []byte("quantum\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Suite(1); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

// generateKeyDir writes a key directory for the sample config under
// the given suite and points the config at it.
func generateKeyDir(t *testing.T, suite string) *Config {
	t.Helper()
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crypto = suite
	cfg.KeyDir = t.TempDir()
	if err := cfg.GenerateKeys(cfg.KeyDir); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Suite(1); err != nil {
		t.Fatalf("freshly generated key dir rejected: %v", err)
	}
	return cfg
}

// TestKeyDirWithoutManifestRejected: a key directory must name its
// suite. One without a manifest is an error, not RSA.
func TestKeyDirWithoutManifestRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation")
	}
	cfg := generateKeyDir(t, "rsa")
	if err := os.Remove(filepath.Join(cfg.KeyDir, suiteManifestFile)); err != nil {
		t.Fatal(err)
	}
	_, err := cfg.Suite(1)
	if err == nil {
		t.Fatal("manifest-less key dir accepted")
	}
	if !strings.Contains(err.Error(), "-genkeys") {
		t.Errorf("error does not say to regenerate: %v", err)
	}
}

// TestMissingGroupSecretRejected: the pairwise MAC keys derive from
// group.secret, so a key directory without it is an error rather than
// a deployment keyed by the public development secret.
func TestMissingGroupSecretRejected(t *testing.T) {
	cfg := generateKeyDir(t, "ed25519")
	if err := os.Remove(filepath.Join(cfg.KeyDir, groupSecretFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Suite(1); err == nil {
		t.Fatal("key dir without group secret accepted")
	}
}

// TestPKCS1KeyDirRejected: RSA key files of earlier builds (PKCS#1)
// fail to load with an error that says to regenerate them.
func TestPKCS1KeyDirRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation")
	}
	cfg := generateKeyDir(t, "rsa")
	path := filepath.Join(cfg.KeyDir, "1.key")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := pem.Decode(data)
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	pkcs1 := pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: x509.MarshalPKCS1PrivateKey(key.(*rsa.PrivateKey))})
	if err := os.WriteFile(path, pkcs1, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = cfg.Suite(1)
	if err == nil {
		t.Fatal("PKCS#1 key file accepted")
	}
	if !strings.Contains(err.Error(), "-genkeys") {
		t.Errorf("error does not say to regenerate: %v", err)
	}
}

// TestGenerateKeysWithoutKeyFiles: a suite without key files has
// nothing to generate; GenerateKeys says so instead of writing keys of
// another suite.
func TestGenerateKeysWithoutKeyFiles(t *testing.T) {
	cfg, err := Load(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "keys")
	if err := cfg.GenerateKeys(dir); err == nil {
		t.Fatal("insecure config generated keys")
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("key dir created for a suite without key files")
	}
}
