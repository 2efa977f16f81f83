// Package bench runs the continuous benchmark suite (internal/benchsuite)
// under `go test -bench` and pins the codec hot paths at zero allocations.
// `make bench-smoke` runs a short pass of this package in CI; `make
// bench-json` (cmd/benchjson) runs the same bodies and writes the root
// BENCH_*.json baselines.
package bench

import (
	"fmt"
	"testing"

	"snmpv3fp/internal/benchsuite"
)

func BenchmarkScanCampaign(b *testing.B)    { benchScanCampaign(b) }
func BenchmarkScanCampaignObs(b *testing.B) { benchScanCampaignObs(b) }
func BenchmarkIcmpTsCampaign(b *testing.B)  { benchIcmpTsCampaign(b) }

// BenchmarkScanScaling sweeps the campaign over the (workers, batch) grid,
// reporting probes/s per point: the pps-vs-configuration curve behind the
// batch transport tuning (DESIGN.md §13).
func BenchmarkScanScaling(b *testing.B) {
	for _, workers := range benchsuite.ScanScalingGrid.Workers {
		for _, batch := range benchsuite.ScanScalingGrid.Batches {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch),
				benchsuite.ScanScaling(workers, batch))
		}
	}
}
func BenchmarkCollectResponses(b *testing.B)   { benchCollectResponses(b) }
func BenchmarkEncodeProbe(b *testing.B)        { benchEncodeProbe(b) }
func BenchmarkParseResponse(b *testing.B)      { benchParseResponse(b) }
func BenchmarkStoreIngest(b *testing.B)        { benchStoreIngest(b) }
func BenchmarkStoreDurableIngest(b *testing.B) { benchStoreDurableIngest(b) }
func BenchmarkStoreCompact(b *testing.B)       { benchStoreCompact(b) }
func BenchmarkServeIP(b *testing.B)            { benchServeIP(b) }
func BenchmarkServeIPWarm(b *testing.B)        { benchServeIPWarm(b) }
func BenchmarkServeIPMissBloom(b *testing.B)   { benchServeIPMissBloom(b) }
func BenchmarkServeIPMissNoBloom(b *testing.B) { benchServeIPMissNoBloom(b) }
func BenchmarkServeVendors(b *testing.B)       { benchServeVendors(b) }
func BenchmarkServeStats(b *testing.B)         { benchServeStats(b) }
