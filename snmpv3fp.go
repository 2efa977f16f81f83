// Package snmpv3fp is a library for SNMPv3-based device fingerprinting and
// alias resolution, reproducing Albakour, Gasser, Beverly and Smaragdakis,
// "Third Time's Not a Charm: Exploiting SNMPv3 for Router Fingerprinting"
// (ACM IMC 2021).
//
// A single unauthenticated SNMPv3 discovery packet makes any reachable
// SNMPv3 agent disclose its engine ID (a persistent, usually MAC-derived
// device identifier), its engine boots counter, and its engine time. This
// package exposes that measurement primitive and the analyses built on it:
//
//   - ProbeContext / ScanContext: single-target and campaign-scale
//     discovery probing,
//   - Validate: the ten-step response filtering pipeline (paper §4.4),
//   - ResolveAliases: grouping IPs into devices via (engine ID, boots,
//     binned last-reboot time) (paper §5), including dual-stack joins,
//   - Fingerprint: vendor inference from OUI / enterprise numbers (§6).
//
// The heavy lifting lives in internal packages; this façade re-exports the
// stable surface. The map from façade to internal package:
//
//	ProbeContext / ScanContext      internal/core, internal/scanner
//	RegisterModule / ScanProtocols  internal/probe
//	Fuse / FusionReport             internal/fusion
//	Validate                        internal/filter
//	ResolveAliases                  internal/alias
//	FingerprintEngineID             internal/core, internal/engineid
//	OpenStore / Store / View        internal/store
//	NewServer / Server              internal/serve
//	NewRegistry / Registry          internal/obs
//	Track / SummarizeTimelines      internal/tracker
//	CrackUSMPassword                internal/usm
//
// Beyond SNMPv3, fingerprinting is pluggable: a ProbeModule encodes one
// stateless probe and parses its responses into alias evidence. Built-in
// modules cover SNMPv3 discovery ("snmpv3"), ICMP timestamp clock offsets
// ("icmp-ts") and NTP mode-6 clock identities ("ntp"); ScanProtocols runs
// several in one sweep and Fuse merges their alias claims with weighted
// voting, reporting each protocol's marginal gain.
//
// Long-running entry points take a context.Context; cancelling it drains
// scan workers and aborts store ingest cleanly.
//
// See examples/ for runnable end-to-end programs and cmd/reproduce for the
// full paper evaluation against a simulated Internet.
package snmpv3fp

import (
	"context"
	"net/netip"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/fusion"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/probe"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/snmp"
	"snmpv3fp/internal/store"
	"snmpv3fp/internal/tracker"
	"snmpv3fp/internal/usm"
	"snmpv3fp/internal/vclock"
)

// Re-exported core types.
type (
	// Observation is one IP's discovery response metadata.
	Observation = core.Observation
	// Campaign is the per-IP view of one scan.
	Campaign = core.Campaign
	// Fingerprint is a vendor inference.
	Fingerprint = core.Fingerprint
	// Merged is one IP observed consistently across both campaigns.
	Merged = filter.Merged
	// FilterReport carries the per-step accounting of the validation
	// pipeline.
	FilterReport = filter.Report
	// AliasSet groups IPs belonging to one device.
	AliasSet = alias.Set
	// AliasVariant selects the matching rule.
	AliasVariant = alias.Variant
	// Transport carries probes and responses; implemented by UDPTransport
	// and by the netsim package's in-memory transport.
	Transport = scanner.Transport
	// TargetSpace enumerates scan targets in permuted order.
	TargetSpace = scanner.TargetSpace
	// ScanConfig tunes a campaign.
	ScanConfig = scanner.Config
	// ScanResult is a campaign's raw outcome.
	ScanResult = scanner.Result
	// ScanSnapshot is a live progress report from the sharded scan engine,
	// delivered through ScanConfig.Progress.
	ScanSnapshot = scanner.Snapshot
	// Clock abstracts time for pacing (vclock.Real or vclock.Virtual).
	Clock = vclock.Clock
	// EngineID is a classified RFC 3411 engine ID.
	EngineID = engineid.Parsed
	// Timeline is one IP's longitudinal monitoring record.
	Timeline = tracker.Timeline
	// MonitorSummary aggregates a monitored population.
	MonitorSummary = tracker.Summary
	// AuthProtocol selects HMAC-MD5-96 or HMAC-SHA-96 (USM).
	AuthProtocol = usm.AuthProtocol
	// Store is the longitudinal fingerprint store (memtable + segments).
	Store = store.Store
	// StoreOptions tunes a store (flush threshold, compaction, metrics).
	StoreOptions = store.Options
	// View is an immutable store snapshot; all reads are served from one.
	View = store.View
	// Replica is a read-only store fed by a primary's replication stream.
	Replica = store.Replica
	// ReplicaOptions tunes a replica (directory, caches, verify-on-open).
	ReplicaOptions = store.ReplicaOptions
	// ServeSource is anything a Server can serve snapshots from: a *Store
	// or a *Replica.
	ServeSource = serve.Source
	// Server exposes a store over the versioned HTTP JSON API.
	Server = serve.Server
	// ServerOption configures a Server (e.g. WithObs).
	ServerOption = serve.Option
	// Registry collects counters, gauges and histograms; /v1/metrics serves
	// its Prometheus text exposition.
	Registry = obs.Registry
	// ProbeModule is one pluggable fingerprinting protocol: probe encoding,
	// response parsing and alias-key extraction.
	ProbeModule = probe.Module
	// ProbeEvidence is one parsed response from any probe module.
	ProbeEvidence = probe.Evidence
	// ProtocolCampaign is the per-IP fold of one module's campaign.
	ProtocolCampaign = probe.Campaign
	// ProtocolSighting is one address's folded sightings within a
	// ProtocolCampaign.
	ProtocolSighting = probe.Sighting
	// ProtocolEvidence is one protocol's alias groups, input to Fuse.
	ProtocolEvidence = fusion.ProtocolEvidence
	// FusionReport is the cross-protocol fusion result.
	FusionReport = fusion.Report
	// FusedSet is one fused device in a FusionReport.
	FusedSet = fusion.FusedSet
	// FusionProtocolReport carries one protocol's fusion accounting,
	// including its marginal alias gain.
	FusionProtocolReport = fusion.ProtocolReport
)

// USM authentication protocols.
const (
	AuthMD5  = usm.AuthMD5
	AuthSHA1 = usm.AuthSHA1
)

// SNMPPort is the standard SNMP UDP port.
const SNMPPort = 161

// NewUDPTransport opens a UDP socket transport probing the given port
// (use SNMPPort for real scans).
func NewUDPTransport(port uint16) (*scanner.UDPTransport, error) {
	return scanner.NewUDPTransport(port)
}

// NewPrefixTargets builds a permuted target space over prefixes.
func NewPrefixTargets(prefixes []netip.Prefix, seed int64) (TargetSpace, error) {
	return scanner.NewPrefixSpace(prefixes, seed)
}

// NewListTargets builds a permuted target space over an explicit address
// list (e.g. an IPv6 hitlist).
func NewListTargets(addrs []netip.Addr, seed int64) (TargetSpace, error) {
	return scanner.NewListSpace(addrs, seed)
}

// ProbeContext sends one unauthenticated SNMPv3 discovery packet to addr
// and returns the disclosed identifiers. Cancelling ctx abandons the wait.
func ProbeContext(ctx context.Context, tr Transport, addr netip.Addr, msgID int64, timeout time.Duration) (*Observation, error) {
	return core.ProbeContext(ctx, tr, addr, msgID, timeout)
}

// ScanContext runs one campaign over the target space and folds the raw
// responses into per-IP observations. Cancelling ctx drains every scan
// worker at its next loop iteration and returns ctx's error.
func ScanContext(ctx context.Context, tr Transport, targets TargetSpace, cfg ScanConfig) (*Campaign, error) {
	res, err := scanner.ScanContext(ctx, tr, targets, cfg)
	if err != nil {
		return nil, err
	}
	return core.Collect(res), nil
}

// RegisterModule adds a probe module to the registry ScanProtocols and the
// ScanConfig.Protocols selector resolve names against. The built-in modules
// ("snmpv3", "icmp-ts", "ntp") register themselves; call this for external
// modules before scanning. Duplicate or empty names error.
func RegisterModule(m ProbeModule) error {
	return probe.Register(m)
}

// Modules lists the registered probe-module names, sorted.
func Modules() []string {
	return probe.Modules()
}

// GetModule resolves a registered probe module by name.
func GetModule(name string) (ProbeModule, error) {
	return probe.Get(name)
}

// ScanProtocols runs one campaign per protocol in cfg.Protocols (default
// ["snmpv3"]) over the same target space and folds each protocol's raw
// responses into a per-IP campaign. newTransport opens a fresh transport per
// protocol — with virtual-time transports it should also reset the clock so
// every protocol's campaign is deterministic in isolation.
func ScanProtocols(ctx context.Context, newTransport func(protocol string) (Transport, error), targets TargetSpace, cfg ScanConfig) (map[string]*ProtocolCampaign, error) {
	results, err := probe.ScanProtocols(ctx, newTransport, targets, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*ProtocolCampaign, len(results))
	for name, res := range results {
		m, err := probe.Get(name)
		if err != nil {
			return nil, err
		}
		out[name] = probe.Collect(m, res)
	}
	return out, nil
}

// Fuse combines per-protocol alias evidence into fused device sets with
// weighted cross-protocol voting, reporting each protocol's marginal gain
// (the accepted pairs only it proposed). Build ProtocolEvidence from
// ProtocolCampaign.Groups, or from a store View's FusionEvidence.
func Fuse(evidence []ProtocolEvidence) *FusionReport {
	return fusion.Fuse(evidence)
}

// OpenStore opens a longitudinal fingerprint store. Ingest campaigns with
// Store.Ingest and query through Store.Snapshot or NewServer. With
// StoreOptions.Dir set the store is durable: acknowledged samples survive
// crashes, and OpenStore recovers them (which is when it can fail).
func OpenStore(opt StoreOptions) (*Store, error) {
	return store.Open(opt)
}

// NewServer builds the HTTP query API over a store; mount it on any
// http.Server. Pass WithObs to serve a shared metrics registry at
// /v1/metrics.
func NewServer(st ServeSource, opts ...ServerOption) *Server {
	return serve.New(st, opts...)
}

// OpenReplica opens a read replica directory; feed it with
// (*Replica).SyncLoop against a primary serving (*Store).ServeReplication,
// and serve it with NewServer.
func OpenReplica(opt ReplicaOptions) (*Replica, error) {
	return store.OpenReplica(opt)
}

// WithObs attaches a metrics registry to a Server (see serve.WithObs).
func WithObs(reg *Registry) ServerOption {
	return serve.WithObs(reg)
}

// NewRegistry builds an empty metrics registry. Hand the same registry to
// ScanConfig.Obs, StoreOptions.Obs and NewServer(..., WithObs(reg)) to get
// one unified /v1/metrics exposition.
func NewRegistry() *Registry {
	return obs.NewRegistry()
}

// Validate applies the paper's ten-step filtering pipeline to two
// campaigns of the same address family, yielding the IPs with valid engine
// ID and engine time.
func Validate(scan1, scan2 *Campaign) *FilterReport {
	return filter.Run(scan1, scan2)
}

// DefaultAliasVariant is the matching rule the paper adopts (20-second
// last-reboot bins over both campaigns).
var DefaultAliasVariant = alias.Default

// ResolveAliases groups validated observations into alias sets. Passing
// the union of IPv4 and IPv6 observations performs the dual-stack join.
func ResolveAliases(valid []*Merged, v AliasVariant) []*AliasSet {
	return alias.Resolve(valid, v)
}

// FingerprintEngineID infers a device vendor from its engine ID.
func FingerprintEngineID(id []byte) Fingerprint {
	return core.FingerprintEngineID(id)
}

// ClassifyEngineID parses an engine ID into its RFC 3411 components.
func ClassifyEngineID(id []byte) EngineID {
	return engineid.Classify(id)
}

// DiscoveryProbe returns the wire bytes of one unauthenticated discovery
// request, for callers driving their own sockets.
func DiscoveryProbe(msgID, requestID int64) ([]byte, error) {
	return snmp.EncodeDiscoveryRequest(msgID, requestID)
}

// ParseDiscoveryResponse extracts the engine identifiers from a response
// datagram.
func ParseDiscoveryResponse(payload []byte) (*snmp.DiscoveryResponse, error) {
	return snmp.ParseDiscoveryResponse(payload)
}

// Track builds longitudinal per-IP timelines from an ordered sequence of
// campaigns (the Section 6.3 monitoring workflow).
func Track(campaigns []*Campaign) map[netip.Addr]*Timeline {
	return tracker.Build(campaigns)
}

// SummarizeTimelines aggregates monitored timelines into restart, churn and
// availability statistics.
func SummarizeTimelines(timelines map[netip.Addr]*Timeline) MonitorSummary {
	return tracker.Summarize(timelines)
}

// CrackUSMPassword mounts the paper's Section 8 offline dictionary attack
// against a captured authenticated SNMPv3 message: because USM keys are
// localized with the engine ID — which the message itself (and any
// discovery probe) discloses — a single capture suffices.
func CrackUSMPassword(captured []byte, proto AuthProtocol, wordlist []string) (password string, tried int, ok bool) {
	return usm.Crack(captured, proto, wordlist)
}
