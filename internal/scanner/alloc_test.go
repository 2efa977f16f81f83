package scanner_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
)

// TestCampaignAllocationBudget is the allocation regression for the scanner
// send/recv loop: a full simulated campaign must stay within a per-probe and
// per-response allocation budget. Before the zero-allocation work the loop
// cost ~0.5 allocations per probe (probe re-encode, per-datagram receive
// copies, per-response header garbage); the budget below fails if even a
// fraction of that creeps back while leaving room for the campaign's fixed
// overhead (target space, shard state, response slice growth, arena chunks,
// canonical sort).
func TestCampaignAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a full campaign")
	}
	campaign := func() (probes, responses uint64) { return allocCampaign(t, nil) }

	campaign() // warm path-wide lazy initialization out of the measurement

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	probes, responses := campaign()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	if probes == 0 || responses == 0 {
		t.Fatalf("degenerate campaign: %d probes, %d responses", probes, responses)
	}
	// World generation dominates the fixed term (~45k objects for the tiny
	// world); the send/recv loop itself must contribute (well) under 1
	// allocation per 16 probes. The pre-optimization loop cost ~0.5 allocs
	// per probe (~205k extra objects here) and fails this budget outright.
	budget := 100_000 + probes/16 + 2*responses
	if allocs > budget {
		t.Fatalf("campaign allocated %d objects over %d probes / %d responses (budget %d): the send/recv hot path regressed",
			allocs, probes, responses, budget)
	}
	t.Logf("campaign: %d allocs, %d probes, %d responses (budget %d)", allocs, probes, responses, budget)
}

// TestCampaignByteBudgetWithRegistry is the byte-volume regression for
// instrumented campaigns, which is how the daemons run the scanner: with a
// registry attached, a campaign may allocate at most 48 bytes per probe more
// than the same campaign without one. Probe RTT accounting logs every probe
// of a pass, so a fat or pointer-laden send record, a log that regrows by
// copying, or a lookup built over every probe all land here. The object
// counts of the two campaigns barely differ; their bytes are what diverge.
func TestCampaignByteBudgetWithRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("byte budget needs full campaigns")
	}
	measure := func(reg *obs.Registry) (bytesPerProbe float64) {
		allocCampaign(t, reg) // warm lazy initialization out of the measurement
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		probes, _ := allocCampaign(t, reg)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(probes)
	}
	bare := measure(nil)
	withReg := measure(obs.NewRegistry())
	const perProbe = 48
	if withReg > bare+perProbe {
		t.Fatalf("registry-attached campaign allocated %.1f B/probe against %.1f B/probe without a registry (budget +%d B/probe)",
			withReg, bare, perProbe)
	}
	t.Logf("campaign: %.1f B/probe with a registry, %.1f B/probe without (budget +%d B/probe)", withReg, bare, perProbe)
}

// allocCampaign runs one full single-pass campaign over a freshly generated
// tiny world, the workload both allocation budgets measure, and returns its
// probe and response counts.
func allocCampaign(t *testing.T, reg *obs.Registry) (probes, responses uint64) {
	t.Helper()
	w := netsim.Generate(netsim.TinyConfig(7))
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Batch: 256, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: 4, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Sent, uint64(len(res.Responses))
}
