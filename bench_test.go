// Benchmark harness: one benchmark per table and figure of the paper,
// regenerating the artifact from the shared full-scale simulated campaigns,
// plus ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each benchmark measures the analysis cost over the default-scale world
// (campaigns are run once and shared, exactly as the paper cuts all
// analyses from a single measurement). Custom metrics attach the headline
// numbers of each artifact so `go test -bench` output doubles as a results
// table.
package snmpv3fp_test

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/analysis"
	"snmpv3fp/internal/experiments"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/snmp"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// sharedEnv builds the full-scale environment once per process. The build
// cost (world generation + four campaigns) is excluded from whichever
// benchmark happens to trigger it.
func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.Shared(1)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	b.ResetTimer()
	return benchEnv
}

func BenchmarkTable1_ScanCampaigns(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(e)
	}
	b.ReportMetric(float64(r.IPs[0]), "v4scan1_ips")
	b.ReportMetric(float64(r.ValidEngineIDTime[0]), "v4_valid_ips")
	b.ReportMetric(float64(r.ValidEngineIDTime[1]), "v6_valid_ips")
}

func BenchmarkTable2_RouterDatasets(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(e)
	}
	b.ReportMetric(float64(r.Union4), "router_ipv4_addrs")
	b.ReportMetric(float64(r.Union4Resp), "responsive")
}

func BenchmarkTable3_AliasVariants(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(e)
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(float64(last.Stats.Sets), "div20both_sets")
	b.ReportMetric(last.Stats.IPsPerNonSingleton(), "ips_per_nonsingleton")
}

func BenchmarkFigure2_3_Dissection(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figures23(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4_IPsPerEngineID(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure4(e)
	}
	b.ReportMetric(r.SingleIPShareV4*100, "v4_single_ip_pct")
	b.ReportMetric(r.V4.Max(), "max_ips_per_id")
}

func BenchmarkFigure5_EngineIDFormats(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure5(e)
	}
	b.ReportMetric(r.V4["MAC"]*100, "v4_mac_pct")
}

func BenchmarkFigure6_HammingWeight(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure6(e)
	}
	b.ReportMetric(r.OctetsMean, "octets_mean_hw")
	b.ReportMetric(r.NonConformingSkew, "noncon_skew")
}

func BenchmarkFigure7_TopEngineIDReboots(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure7(e)
	}
	b.ReportMetric(float64(r.V4[0].IPs), "top_v4_id_ips")
	b.ReportMetric(r.V4[0].SpreadDays, "top_v4_spread_days")
}

func BenchmarkFigure8_RebootDelta(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure8(e)
	}
	b.ReportMetric(r.WithinThresholdRouter4*100, "router_within_10s_pct")
}

func BenchmarkFigure9_AliasSetSizes(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure9(e)
	}
	b.ReportMetric(r.V4Stats.IPsPerNonSingleton(), "v4_ips_per_ns_set")
	b.ReportMetric(r.Precision, "precision")
	b.ReportMetric(r.Recall, "recall")
}

func BenchmarkFigure10_ASCoverage(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure10(e)
	}
	b.ReportMetric(r.OverallCoverage*100, "overall_coverage_pct")
}

func BenchmarkFigure11_VendorPopularity(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure11(e)
	}
	b.ReportMetric(float64(r.TotalDevices), "devices")
	b.ReportMetric(r.Top10Share*100, "top10_pct")
}

func BenchmarkFigure12_RouterVendors(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure12(e)
	}
	b.ReportMetric(float64(r.TotalRouters), "routers")
	b.ReportMetric(r.Top4Share*100, "top4_pct")
}

func BenchmarkFigure13_RouterUptime(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure13(e)
	}
	b.ReportMetric(r.WithinYearOfScan*100, "rebooted_within_year_pct")
}

func BenchmarkFigure14_VendorsPerAS(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure14(e)
	}
	b.ReportMetric(r.SingleVendorShare5*100, "single_vendor_pct")
}

func BenchmarkFigure15_RegionVendors(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure15(e)
	}
	for _, row := range r.Rows {
		if row.Region == netsim.RegionNA {
			b.ReportMetric(row.Share["Huawei"], "na_huawei_pct")
		}
		if row.Region == netsim.RegionAS {
			b.ReportMetric(row.Share["Huawei"], "as_huawei_pct")
		}
	}
}

func BenchmarkFigure16_Top10Networks(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure16Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure16(e)
	}
	b.ReportMetric(float64(r.Rows[0].Routers), "largest_as_routers")
}

func BenchmarkFigure17_VendorDominance(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure17Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure17(e)
	}
	b.ReportMetric(r.HighDominanceShare*100, "dominance_ge_07_pct")
}

func BenchmarkFigure18_RegionalDominance(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		experiments.Figure18(e)
	}
}

func BenchmarkFigure19_TupleUniqueness(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure19Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure19(e)
	}
	b.ReportMetric(r.UniqueShareV4*100, "v4_unique_tuple_pct")
	b.ReportMetric(r.UniqueShareV6*100, "v6_unique_tuple_pct")
}

func BenchmarkFigure20_RoutersPerAS(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Figure20Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure20(e)
	}
	b.ReportMetric(r.All.Max(), "largest_as_routers")
}

func BenchmarkSection52_RouterNames(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section52Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section52(e)
	}
	b.ReportMetric(float64(r.NameSets), "name_sets")
	b.ReportMetric(float64(r.SNMPNonSingleton), "snmp_sets")
}

func BenchmarkSection53_MIDARSpeedtrap(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section53Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section53(e)
	}
	b.ReportMetric(float64(r.MIDARStats.NonSingleton), "midar_ns_sets")
	b.ReportMetric(float64(r.SNMP4NonSingleton), "snmp_v4_ns_sets")
}

func BenchmarkSection54_CombinedCoverage(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section54Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section54(e)
	}
	b.ReportMetric(r.MIDAROnly*100, "midar_pct")
	b.ReportMetric(r.SNMPOnly*100, "snmp_pct")
	b.ReportMetric(r.Union*100, "combined_pct")
}

func BenchmarkSection622_OperatorSurvey(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section622Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section622(e)
	}
	b.ReportMetric(float64(r.SetsShared), "sets_shared")
	b.ReportMetric(100*float64(r.SetsConfirmed)/float64(maxI(r.SetsShared, 1)), "confirmed_pct")
	b.ReportMetric(r.MissedInterfaceShare*100, "acl_missed_pct")
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkSection621_LabTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Section621(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection623_Nmap(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section623Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section623(e)
	}
	b.ReportMetric(100*float64(r.NoResult)/float64(r.Sampled), "no_result_pct")
	b.ReportMetric(100*float64(r.Match)/float64(r.Sampled), "match_pct")
}

func BenchmarkSection73_Siblings(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section73Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section73(e)
	}
	b.ReportMetric(float64(r.DualStackSNMP), "snmp_dualstack_sets")
	b.ReportMetric(float64(r.Skew.Siblings), "skew_confirmed")
	b.ReportMetric(float64(r.Skew.NoData), "skew_unmeasurable")
}

func BenchmarkSection8_Vulnerabilities(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Section8(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MultiResponders), "multi_responders")
	b.ReportMetric(float64(r.MaxResponses), "max_responses")
	b.ReportMetric(r.BAF, "baf")
}

func BenchmarkSection9_NATInference(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Section9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section9(e)
	}
	b.ReportMetric(float64(r.Survey.Candidates), "candidates")
	b.ReportMetric(float64(r.TruePositives), "lbs_found")
	b.ReportMetric(float64(r.FalsePositives), "false_positives")
}

func BenchmarkMonitorExtension(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.MonitorResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Monitor(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Summary.Tracked), "tracked_ips")
	b.ReportMetric(float64(r.Summary.RebootEvents), "restart_events")
	b.ReportMetric(r.RebootRatePerWeek, "restarts_per_ip_week")
}

// --- Ablation benchmarks (design choices from DESIGN.md §5) ---

// BenchmarkAblationSingleScan quantifies what the second campaign buys.
// Within one snapshot, single-scan alias sets are still internally
// consistent — the cost of skipping the second scan is *staleness*: IPs
// accepted as valid whose identity has already churned, drifted or rebooted
// by the time anyone uses the data. We measure the share of single-scan
// "valid" IPs whose second-campaign observation contradicts the first.
func BenchmarkAblationSingleScan(b *testing.B) {
	e := sharedEnv(b)
	var staleShare float64
	var singleValid, bothValid int
	for i := 0; i < b.N; i++ {
		// Single-scan pipeline: merge scan 1 with itself so every
		// cross-scan consistency check trivially passes.
		single := filter.Run(e.V4Scan1, e.V4Scan1)
		singleValid = len(single.Valid)
		bothValid = len(e.V4Filter.Valid)
		stale := 0
		for _, m := range single.Valid {
			o2, ok := e.V4Scan2.ByIP[m.IP]
			if !ok {
				stale++
				continue
			}
			if string(o2.EngineID) != string(m.EngineID) || o2.EngineBoots != m.Boots[0] {
				stale++
				continue
			}
			d := m.LastReboot[0].Sub(o2.LastReboot())
			if d < 0 {
				d = -d
			}
			if d > filter.RebootThreshold {
				stale++
			}
		}
		staleShare = float64(stale) / float64(singleValid)
	}
	b.ReportMetric(float64(singleValid), "single_scan_valid_ips")
	b.ReportMetric(float64(bothValid), "two_scan_valid_ips")
	b.ReportMetric(staleShare*100, "single_scan_stale_pct")
}

// BenchmarkAblationBinWidth sweeps the last-reboot bin width and reports
// pair precision/recall per width, locating the paper's 10s/20s knee.
func BenchmarkAblationBinWidth(b *testing.B) {
	e := sharedEnv(b)
	truth := map[netip.Addr]int{}
	for _, d := range e.World.Devices {
		for _, a := range d.AllAddrs() {
			truth[a] = d.ID
		}
	}
	for _, bin := range []alias.Binning{alias.BinExact, alias.BinRound, alias.BinDiv20} {
		b.Run(bin.String(), func(b *testing.B) {
			var p, r float64
			for i := 0; i < b.N; i++ {
				sets := alias.Resolve(e.V4Filter.Valid, alias.Variant{Bin: bin, BothScans: true})
				inferred := make([]analysis.AddrSet, 0, len(sets))
				for _, s := range sets {
					as := make(analysis.AddrSet, 0, len(s.Members))
					for _, m := range s.Members {
						as = append(as, m.IP)
					}
					inferred = append(inferred, as)
				}
				p, r = analysis.PrecisionRecall(inferred, truth)
			}
			b.ReportMetric(p, "precision")
			b.ReportMetric(r, "recall")
		})
	}
}

// BenchmarkAblationTupleKey contrasts alias resolution keyed on the engine
// ID alone with the full (engine ID, boots, last reboot) key: the former
// merges the cloned-firmware populations into giant false sets.
func BenchmarkAblationTupleKey(b *testing.B) {
	e := sharedEnv(b)
	var idOnlyLargest, fullLargest, falseMerges int
	for i := 0; i < b.N; i++ {
		// Engine-ID-only grouping: one pass building size and ground-truth
		// device counts per group.
		sizes := map[string]int{}
		devs := map[string]map[int]bool{}
		for _, m := range e.V4Filter.Valid {
			k := m.EngineIDKey()
			sizes[k]++
			if d := e.World.DeviceAt(m.IP); d != nil {
				if devs[k] == nil {
					devs[k] = map[int]bool{}
				}
				devs[k][d.ID] = true
			}
		}
		idOnlyLargest, falseMerges = 0, 0
		for k, n := range sizes {
			if n > idOnlyLargest {
				idOnlyLargest = n
			}
			if len(devs[k]) > 1 {
				falseMerges++
			}
		}
		fullLargest = 0
		for _, s := range e.V4Sets {
			if s.Size() > fullLargest {
				fullLargest = s.Size()
			}
		}
	}
	b.ReportMetric(float64(idOnlyLargest), "largest_idonly_set")
	b.ReportMetric(float64(fullLargest), "largest_full_key_set")
	b.ReportMetric(float64(falseMerges), "idonly_false_merged_groups")
}

// BenchmarkAblationScanOrder compares permuted against linear target order:
// the permutation spreads probes so no /16 sees a burst.
func BenchmarkAblationScanOrder(b *testing.B) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/12")}
	window := 4096
	burst := func(next func() (netip.Addr, bool)) int {
		counts := map[uint32]int{}
		maxBurst := 0
		for i := 0; i < window; i++ {
			a, ok := next()
			if !ok {
				break
			}
			k := iputilV4ToUint(a) >> 16
			counts[k]++
			if counts[k] > maxBurst {
				maxBurst = counts[k]
			}
		}
		return maxBurst
	}
	var permBurst, linBurst int
	for i := 0; i < b.N; i++ {
		space, err := scanner.NewPrefixSpace(prefixes, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		permBurst = burst(space.Next)
		lin := uint32(0)
		linBurst = burst(func() (netip.Addr, bool) {
			a := netip.AddrFrom4([4]byte{10, byte(lin >> 16), byte(lin >> 8), byte(lin)})
			lin++
			return a, true
		})
	}
	b.ReportMetric(float64(permBurst), "perm_max_per_16")
	b.ReportMetric(float64(linBurst), "linear_max_per_16")
}

func iputilV4ToUint(a netip.Addr) uint32 {
	b4 := a.As4()
	return uint32(b4[0])<<24 | uint32(b4[1])<<16 | uint32(b4[2])<<8 | uint32(b4[3])
}

// --- Micro-benchmarks of the measurement primitive ---

func BenchmarkDiscoveryProbeEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := snmp.EncodeDiscoveryRequest(int64(i), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoveryResponseParse(b *testing.B) {
	rep := snmp.NewDiscoveryReport(snmp.NewDiscoveryRequest(1, 1),
		[]byte{0x80, 0x00, 0x07, 0xc7, 0x03, 0x74, 0x8e, 0xf8, 0x31, 0xdb, 0x80},
		148, 10043812, 1)
	wire, err := rep.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snmp.ParseDiscoveryResponse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCampaign measures one complete simulated IPv4 campaign
// (world reuse, scan + collect) — the end-to-end cost of a "scan the
// Internet" run at default scale. Sub-benchmarks vary the engine's worker
// count: workers=1 is the seed's single-threaded loop, the others show the
// sharded engine's speedup. Results are identical for every worker count;
// probes/s is the wall-clock throughput figure of merit.
func BenchmarkFullCampaign(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := netsim.Generate(netsim.DefaultConfig(99))
			prefixes := w.ScanPrefixes4()
			b.ResetTimer()
			var probes float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				w.Clock.Set(w.Cfg.StartTime.Add(time.Duration(15+i) * 24 * time.Hour))
				w.BeginScan()
				targets, err := scanner.NewPrefixSpace(prefixes, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
					Rate: 5000, Batch: 256, Clock: w.Clock, Seed: int64(i), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				probes += float64(res.Sent)
				b.ReportMetric(float64(res.Sent), "probes")
				b.ReportMetric(float64(len(res.Responses)), "responses")
			}
			b.ReportMetric(probes/time.Since(start).Seconds(), "probes/s")
		})
	}
}
