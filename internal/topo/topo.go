// Package topo models the geographic layout of a deployment: cloud
// regions, availability zones within a region, and the network latency
// between any two sites. The inter-region round-trip times are
// calibrated to published measurements between the Amazon EC2 regions
// used in the paper's evaluation (Virginia, Oregon, Ireland, Tokyo,
// São Paulo, plus the nearby regions used for the f=2 experiment).
//
// The model deals only in *base* latency; jitter and delivery are the
// transport emulator's concern (internal/transport/memnet). A global
// scale factor lets benchmarks shrink all latencies proportionally
// without changing protocol behaviour.
package topo

import (
	"fmt"
	"sync"
	"time"

	"spider/internal/ids"
)

// Region names a cloud region.
type Region string

// The regions used in the paper's evaluation.
const (
	Virginia   Region = "virginia"   // us-east-1; hosts Spider's agreement group
	Oregon     Region = "oregon"     // us-west-2
	Ireland    Region = "ireland"    // eu-west-1
	Tokyo      Region = "tokyo"      // ap-northeast-1
	SaoPaulo   Region = "sao-paulo"  // sa-east-1; joins in the adaptability experiment
	Ohio       Region = "ohio"       // us-east-2; extra fault domain for f=2
	California Region = "california" // us-west-1; extra fault domain for f=2
	London     Region = "london"     // eu-west-2; extra fault domain for f=2
	Seoul      Region = "seoul"      // ap-northeast-2; extra fault domain for f=2
)

// EvalRegions are the four client regions of the main experiments, in
// the paper's presentation order.
var EvalRegions = []Region{Virginia, Oregon, Ireland, Tokyo}

// interRegionRTTms holds approximate round-trip times in milliseconds
// between region pairs (symmetric; only one direction is listed).
var interRegionRTTms = map[[2]Region]float64{
	{Virginia, Oregon}:     72,
	{Virginia, Ireland}:    76,
	{Virginia, Tokyo}:      162,
	{Virginia, SaoPaulo}:   118,
	{Virginia, Ohio}:       12,
	{Virginia, California}: 62,
	{Virginia, London}:     76,
	{Virginia, Seoul}:      178,

	{Oregon, Ireland}:    124,
	{Oregon, Tokyo}:      98,
	{Oregon, SaoPaulo}:   176,
	{Oregon, Ohio}:       50,
	{Oregon, California}: 22,
	{Oregon, London}:     130,
	{Oregon, Seoul}:      126,

	{Ireland, Tokyo}:      212,
	{Ireland, SaoPaulo}:   184,
	{Ireland, Ohio}:       86,
	{Ireland, California}: 138,
	{Ireland, London}:     12,
	{Ireland, Seoul}:      232,

	{Tokyo, SaoPaulo}:   256,
	{Tokyo, Ohio}:       152,
	{Tokyo, California}: 108,
	{Tokyo, London}:     222,
	{Tokyo, Seoul}:      34,

	{SaoPaulo, Ohio}:       126,
	{SaoPaulo, California}: 172,
	{SaoPaulo, London}:     196,
	{SaoPaulo, Seoul}:      294,

	{Ohio, California}: 50,
	{Ohio, London}:     86,
	{Ohio, Seoul}:      162,

	{California, London}: 142,
	{California, Seoul}:  134,

	{London, Seoul}: 240,
}

// Intra-region round-trip times: availability zones are tens of
// kilometres apart ("interZone"); two nodes in the same zone see only
// the data-center network ("sameZone").
const (
	interZoneRTTms = 1.2
	sameZoneRTTms  = 0.3
)

// RTT returns the base round-trip time between two regions.
func RTT(a, b Region) (time.Duration, error) {
	if a == b {
		return msToDuration(interZoneRTTms), nil
	}
	if ms, ok := interRegionRTTms[[2]Region{a, b}]; ok {
		return msToDuration(ms), nil
	}
	if ms, ok := interRegionRTTms[[2]Region{b, a}]; ok {
		return msToDuration(ms), nil
	}
	return 0, fmt.Errorf("topo: no RTT entry for %s-%s", a, b)
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Site is one placement target: an availability zone of a region.
type Site struct {
	Region Region `json:"region"`
	Zone   int    `json:"zone"` // availability-zone index within the region
}

// String returns e.g. "virginia/2".
func (s Site) String() string { return fmt.Sprintf("%s/%d", s.Region, s.Zone) }

// Placement records where every node of a deployment lives and turns
// the static RTT matrix into per-link one-way latencies. It is safe for
// concurrent use; Place may be called while the system runs (nodes are
// added when execution groups join at runtime).
type Placement struct {
	// Scale multiplies every latency; 1.0 reproduces the calibrated
	// WAN, smaller values accelerate benchmarks. Set before use.
	Scale float64

	mu    sync.RWMutex
	sites map[ids.NodeID]Site
}

// NewPlacement returns an empty placement with the given latency scale.
func NewPlacement(scale float64) *Placement {
	if scale <= 0 {
		scale = 1.0
	}
	return &Placement{Scale: scale, sites: make(map[ids.NodeID]Site)}
}

// Place assigns a node to a site, replacing any previous assignment.
func (p *Placement) Place(id ids.NodeID, site Site) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sites[id] = site
}

// Site returns the node's site. Unplaced nodes report a zero Site and
// false.
func (p *Placement) Site(id ids.NodeID) (Site, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.sites[id]
	return s, ok
}

// OneWay returns the base one-way latency between two nodes (half the
// RTT of their sites, scaled). Links with at least one unplaced node
// and unknown region pairs fall back to the same-zone latency so that
// misconfiguration shows up as implausibly fast links in experiments
// rather than as a crash mid-run.
func (p *Placement) OneWay(a, b ids.NodeID) time.Duration {
	p.mu.RLock()
	sa, oka := p.sites[a]
	sb, okb := p.sites[b]
	p.mu.RUnlock()
	if !oka || !okb {
		return p.scaled(sameZoneRTTms / 2)
	}
	return p.scaled(p.rttMS(sa, sb) / 2)
}

// SameRegion reports whether both nodes are placed in the same region;
// used by the transport to classify traffic as LAN vs WAN.
func (p *Placement) SameRegion(a, b ids.NodeID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	sa, oka := p.sites[a]
	sb, okb := p.sites[b]
	return oka && okb && sa.Region == sb.Region
}

func (p *Placement) rttMS(a, b Site) float64 {
	if a.Region == b.Region {
		if a.Zone == b.Zone {
			return sameZoneRTTms
		}
		return interZoneRTTms
	}
	if ms, ok := interRegionRTTms[[2]Region{a.Region, b.Region}]; ok {
		return ms
	}
	if ms, ok := interRegionRTTms[[2]Region{b.Region, a.Region}]; ok {
		return ms
	}
	return sameZoneRTTms
}

func (p *Placement) scaled(ms float64) time.Duration {
	scale := p.Scale
	if scale <= 0 {
		scale = 1.0
	}
	return time.Duration(ms * scale * float64(time.Millisecond))
}
