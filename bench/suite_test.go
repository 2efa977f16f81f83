package bench

import (
	"testing"

	"snmpv3fp/internal/benchsuite"
)

// Thin aliases so bench_test.go reads as the benchmark index.
var (
	benchScanCampaign       = benchsuite.ScanCampaign
	benchScanCampaignObs    = benchsuite.ScanCampaignObs
	benchIcmpTsCampaign     = benchsuite.IcmpTsCampaign
	benchCollectResponses   = benchsuite.CollectResponses
	benchEncodeProbe        = benchsuite.EncodeProbe
	benchParseResponse      = benchsuite.ParseResponse
	benchStoreIngest        = benchsuite.StoreIngest
	benchStoreDurableIngest = benchsuite.StoreDurableIngest
	benchStoreCompact       = benchsuite.StoreCompact
	benchServeIP            = benchsuite.ServeIP
	benchServeIPWarm        = benchsuite.ServeIPWarm
	benchServeIPMissBloom   = benchsuite.ServeIPMissBloom
	benchServeIPMissNoBloom = benchsuite.ServeIPMissNoBloom
	benchServeVendors       = benchsuite.ServeVendors
	benchServeStats         = benchsuite.ServeStats
)

var _ = testing.Verbose
