// Command benchjson runs the continuous benchmark suite
// (internal/benchsuite) through testing.Benchmark and writes the
// machine-readable baselines BENCH_scan.json, BENCH_store.json and
// BENCH_serve.json at the repository root (or under -dir).
//
// Each file records ns/op, B/op and allocs/op per benchmark next to the
// pre-optimization baseline captured before the zero-allocation hot-path
// work, with the byte- and allocation-reduction factors computed in place.
// The scan suite additionally carries the ScanScaling (workers, batch) grid —
// the probes-per-second curve behind the batch transport tuning.
// CI runs the cheap `make bench-smoke` pass instead; refresh these files
// manually with `make bench-json` on a quiet machine.
//
// With -gate FACTOR the command regresses instead of refreshing: it re-runs
// the gated benchmarks — ScanCampaign, ScanCampaignObs, IcmpTsCampaign,
// StoreDurableIngest and the serve latency arms — and exits nonzero when
// any measured ns/op or p99_ns exceeds its checked-in BENCH_*.json entry by
// more than FACTOR times the gate's per-suite noise headroom (CI uses 1.15
// via `make bench-gate`). Two read-tier SLOs ride along: warm cached /v1/ip
// p99 must stay under the fixed pre-cache ServeIP average, and cold
// negative /v1/ip lookups must read ≥5x fewer segment bytes with bloom
// filters than without.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"snmpv3fp/internal/benchsuite"
)

// Baseline is the pre-optimization measurement a current run is compared
// against: the same benchmark body, run before the zero-allocation probe
// encode / response parse paths, pooled receive buffers and batched store
// ingest landed.
type Baseline struct {
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Entry is one benchmark's current numbers plus its baseline comparison.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// PrePR is the baseline block; reduction factors are baseline/current
	// (2.0 means the run allocates half the bytes the baseline did).
	PrePR           *Baseline `json:"baseline_pre_pr,omitempty"`
	BytesReduction  float64   `json:"bytes_reduction,omitempty"`
	AllocsReduction float64   `json:"allocs_reduction,omitempty"`
}

// File is the schema of each BENCH_*.json.
type File struct {
	Suite      string  `json:"suite"`
	Go         string  `json:"go"`
	Benchmarks []Entry `json:"benchmarks"`
}

type benchDef struct {
	name string
	fn   func(*testing.B)
	pre  *Baseline
}

// Pre-PR baselines, measured on this suite with the allocating codec paths
// (snmp.EncodeDiscoveryRequest / snmp.ParseDiscoveryResponse), per-datagram
// receive copies and per-sample store locking.
var suites = map[string][]benchDef{
	"scan": append([]benchDef{
		{"ScanCampaign", benchsuite.ScanCampaign, &Baseline{27399152, 208874}},
		// Registry-attached arm, as the daemons run the scanner: no pre-PR
		// baseline; the interesting comparison is against ScanCampaign.
		{"ScanCampaignObs", benchsuite.ScanCampaignObs, nil},
		// Multi-protocol arm: no pre-PR baseline — the module seam did not
		// exist before; the interesting comparison is against ScanCampaign.
		{"IcmpTsCampaign", benchsuite.IcmpTsCampaign, nil},
		{"CollectResponses", benchsuite.CollectResponses, &Baseline{13895504, 191260}},
		{"EncodeProbe", benchsuite.EncodeProbe, &Baseline{576, 6}},
		{"ParseResponse", benchsuite.ParseResponse, &Baseline{883, 14}},
	}, scalingDefs()...),
	"store": {
		{"StoreIngest", benchsuite.StoreIngest, &Baseline{15002628, 76294}},
		// Durable arm: same campaign bodies with the WAL and on-disk
		// segments enabled. No pre-PR baseline — durability did not exist
		// before this suite entry; the interesting comparison is against
		// StoreIngest in the same file.
		{"StoreDurableIngest", benchsuite.StoreDurableIngest, nil},
		{"StoreCompact", benchsuite.StoreCompact, &Baseline{2763208, 9610}},
	},
	"serve": {
		{"ServeIP", benchsuite.ServeIP, &Baseline{10030, 54}},
		// Read-tier arms: no pre-PR baseline — the result cache and the
		// bloom-filtered segment read path did not exist before; the
		// interesting comparisons are warm-vs-cold within this file and
		// MissBloom-vs-MissNoBloom (the bytes-read reduction the bench gate
		// enforces at ≥5x).
		{"ServeIPWarm", benchsuite.ServeIPWarm, nil},
		{"ServeIPMissBloom", benchsuite.ServeIPMissBloom, nil},
		{"ServeIPMissNoBloom", benchsuite.ServeIPMissNoBloom, nil},
		{"ServeVendors", benchsuite.ServeVendors, &Baseline{6208, 20}},
		{"ServeStats", benchsuite.ServeStats, &Baseline{7300, 38}},
	},
}

// scalingDefs expands the ScanScaling (workers, batch) grid into suite
// entries; no pre-PR baseline — the batched transport did not exist before
// the grid, and the interesting comparison is across the grid itself.
func scalingDefs() []benchDef {
	var defs []benchDef
	for _, workers := range benchsuite.ScanScalingGrid.Workers {
		for _, batch := range benchsuite.ScanScalingGrid.Batches {
			defs = append(defs, benchDef{
				name: fmt.Sprintf("ScanScaling/workers=%d/batch=%d", workers, batch),
				fn:   benchsuite.ScanScaling(workers, batch),
			})
		}
	}
	return defs
}

func ratio(base, cur int64) float64 {
	if base <= 0 || cur <= 0 {
		return 0
	}
	return float64(base) / float64(cur)
}

func runSuite(name string, defs []benchDef) File {
	f := File{Suite: name, Go: runtime.Version()}
	for _, d := range defs {
		r := testing.Benchmark(d.fn)
		e := Entry{
			Name:        d.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			PrePR:       d.pre,
		}
		if len(r.Extra) > 0 {
			e.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Metrics[k] = v
			}
		}
		if d.pre != nil {
			e.BytesReduction = ratio(d.pre.BytesPerOp, e.BytesPerOp)
			e.AllocsReduction = ratio(d.pre.AllocsPerOp, e.AllocsPerOp)
		}
		fmt.Printf("  %-18s %12d ns/op %12d B/op %9d allocs/op\n",
			d.name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		f.Benchmarks = append(f.Benchmarks, e)
	}
	return f
}

// gateDef is one CI regression gate: a benchmark re-measured against its
// checked-in BENCH_<suite>.json entry (or a fixed SLO). headroom scales the
// global gate factor per suite — the scan campaign is long and stable so it
// gets none, the durable-store arm jitters with fsync latency, and the
// serve microbenchmarks run in microseconds where scheduler noise
// dominates. metric selects a ReportMetric value instead of ns/op (the p99
// latency gates); absLimit pins the metric to a fixed ceiling instead of a
// relative baseline — the warm-read p99 SLO is absolute by design: warm
// cache hits must beat the pre-cache ServeIP average no matter what the
// baseline file says.
type gateDef struct {
	suite    string
	bench    string
	fn       func(*testing.B)
	headroom float64
	metric   string  // "" gates ns/op; otherwise this ReportMetric key
	absLimit float64 // > 0: fixed limit for the value, no baseline lookup
}

var gates = []gateDef{
	{suite: "scan", bench: "ScanCampaign", fn: benchsuite.ScanCampaign, headroom: 1.0},
	{suite: "scan", bench: "ScanCampaignObs", fn: benchsuite.ScanCampaignObs, headroom: 1.0},
	{suite: "scan", bench: "IcmpTsCampaign", fn: benchsuite.IcmpTsCampaign, headroom: 1.15},
	{suite: "store", bench: "StoreDurableIngest", fn: benchsuite.StoreDurableIngest, headroom: 1.2},
	{suite: "serve", bench: "ServeIP", fn: benchsuite.ServeIP, headroom: 1.5},
	{suite: "serve", bench: "ServeVendors", fn: benchsuite.ServeVendors, headroom: 1.5, metric: "p99_ns"},
	// The warm-read SLO: cached /v1/ip p99 must beat the pre-cache ServeIP
	// ns/op (18474 ns, BENCH_serve.json before the read-tier work).
	{suite: "serve", bench: "ServeIPWarm", fn: benchsuite.ServeIPWarm, metric: "p99_ns", absLimit: 18474},
}

// bloomBytesGateRatio is the cold-negative-lookup contract: misses against
// bloom-filtered segments must read at least this many times fewer segment
// bytes than the unfiltered path.
const bloomBytesGateRatio = 5.0

// baselineValue reads one benchmark's recorded ns/op (metric == "") or
// extra metric from the checked-in BENCH_<suite>.json.
func baselineValue(dir, suite, bench, metric string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+suite+".json"))
	if err != nil {
		return 0, fmt.Errorf("reading baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, fmt.Errorf("parsing baseline: %w", err)
	}
	for _, e := range f.Benchmarks {
		if e.Name != bench {
			continue
		}
		if metric == "" {
			if e.NsPerOp > 0 {
				return float64(e.NsPerOp), nil
			}
			break
		}
		if v, ok := e.Metrics[metric]; ok && v > 0 {
			return v, nil
		}
		break
	}
	if metric == "" {
		metric = "ns/op"
	}
	return 0, fmt.Errorf("no usable %s %s entry in BENCH_%s.json", bench, metric, suite)
}

// gateAll is the CI regression gate: every gated benchmark is re-measured
// and compared against its checked-in baseline (or fixed SLO), then the
// bloom bytes-read ratio is checked. All gates run even after a failure so
// one CI pass reports every regression at once.
func gateAll(dir string, factor float64) error {
	var failures []string
	for _, g := range gates {
		r := testing.Benchmark(g.fn)
		label, got := "ns/op", float64(r.NsPerOp())
		if g.metric != "" {
			label = g.metric
			var ok bool
			if got, ok = r.Extra[g.metric]; !ok {
				failures = append(failures, fmt.Sprintf("%s reported no %s", g.bench, g.metric))
				continue
			}
		}
		var limit float64
		if g.absLimit > 0 {
			limit = g.absLimit
			fmt.Printf("gate: %-18s %12.0f %s, SLO limit %.0f %s\n", g.bench, got, label, limit, label)
		} else {
			base, err := baselineValue(dir, g.suite, g.bench, g.metric)
			if err != nil {
				return err
			}
			limit = base * factor * g.headroom
			fmt.Printf("gate: %-18s %12.0f %s, baseline %12.0f %s, limit %.2fx = %.0f %s\n",
				g.bench, got, label, base, label, factor*g.headroom, limit, label)
		}
		if got > limit {
			failures = append(failures,
				fmt.Sprintf("%s regressed: %.0f %s > %.0f %s", g.bench, got, label, limit, label))
		}
	}
	if msg := gateBloomBytes(); msg != "" {
		failures = append(failures, msg)
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// gateBloomBytes re-measures the cold negative-lookup arms and fails when
// the filtered path reads less than bloomBytesGateRatio times fewer segment
// bytes per miss than the unfiltered one. The filtered arm typically reads
// zero bytes, so it is clamped to 1 before dividing.
func gateBloomBytes() string {
	bloom := testing.Benchmark(benchsuite.ServeIPMissBloom).Extra["seg_bytes/op"]
	noBloom := testing.Benchmark(benchsuite.ServeIPMissNoBloom).Extra["seg_bytes/op"]
	denom := bloom
	if denom < 1 {
		denom = 1
	}
	ratio := noBloom / denom
	fmt.Printf("gate: ServeIPMiss bloom %.1f seg_bytes/op vs no-bloom %.1f seg_bytes/op, ratio %.1fx (need ≥%.0fx)\n",
		bloom, noBloom, ratio, bloomBytesGateRatio)
	if ratio < bloomBytesGateRatio {
		return fmt.Sprintf("bloom bytes-read reduction %.1fx < %.0fx (bloom %.1f, no-bloom %.1f seg_bytes/op)",
			ratio, bloomBytesGateRatio, bloom, noBloom)
	}
	return ""
}

func main() {
	dir := flag.String("dir", ".", "directory to write the BENCH_*.json files into")
	only := flag.String("suite", "", "run a single suite (scan, store or serve) instead of all three")
	gate := flag.Float64("gate", 0, "regression-gate mode: re-run the gated benchmarks (scan campaign, durable store ingest, serve latency) and fail if any exceeds its checked-in baseline by this factor times its per-suite headroom (CI uses 1.15); 0 refreshes the baselines instead")
	flag.Parse()
	if *gate > 0 {
		if err := gateAll(*dir, *gate); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	for _, suite := range []string{"scan", "store", "serve"} {
		if *only != "" && suite != *only {
			continue
		}
		fmt.Printf("suite %s:\n", suite)
		f := runSuite(suite, suites[suite])
		out, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		path := filepath.Join(*dir, "BENCH_"+suite+".json")
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
