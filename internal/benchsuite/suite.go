// Package benchsuite defines the repo's continuous performance benchmarks
// as plain functions over *testing.B, so the same bodies run both as
// `go test -bench` benchmarks (bench/bench_test.go) and programmatically
// through testing.Benchmark in cmd/benchjson, which writes the root
// BENCH_scan.json / BENCH_store.json / BENCH_serve.json baselines.
//
// Every benchmark reports allocations; the codec benchmarks are the ones
// the zero-allocation regression tests (internal/ber, internal/snmp,
// internal/scanner, bench/) pin at 0 allocs/op.
package benchsuite

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/probe"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/snmp"
	"snmpv3fp/internal/store"
)

// world caching: generation is expensive and identical across iterations,
// so every benchmark shares one world per seed and re-arms it per campaign
// with BeginScan (exactly how the experiment harness reuses its world).
var (
	worldOnce sync.Once
	world     *netsim.World
)

func sharedWorld() *netsim.World {
	worldOnce.Do(func() {
		world = netsim.Generate(netsim.TinyConfig(7))
	})
	return world
}

// runCampaign runs one deterministic virtual-time campaign over the shared
// world and returns its result. batch is the engine's send-batch size — the
// number of probes per transport operation; reg, when non-nil, is attached
// as the campaign's metrics registry.
func runCampaign(w *netsim.World, workers, batch int, reg *obs.Registry) (*scanner.Result, error) {
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		return nil, err
	}
	return scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Batch: batch, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: workers, Obs: reg,
	})
}

// ScanCampaign is the end-to-end scan benchmark: one full simulated
// campaign (probe encode, transport, agent codec, capture, canonical sort)
// per iteration. Its B/op is the headline number the zero-allocation work
// is measured against.
func ScanCampaign(b *testing.B) { scanCampaign(b, false) }

// ScanCampaignObs is ScanCampaign with a fresh metrics registry attached to
// every campaign, as snmpfpd and snmpscan run the scanner: it adds the
// per-probe RTT send log, the pass-end RTT join and the metric updates.
func ScanCampaignObs(b *testing.B) { scanCampaign(b, true) }

func scanCampaign(b *testing.B, withObs bool) {
	w := sharedWorld()
	b.ReportAllocs()
	b.ResetTimer()
	var probes, responses uint64
	for i := 0; i < b.N; i++ {
		var reg *obs.Registry
		if withObs {
			reg = obs.NewRegistry()
		}
		res, err := runCampaign(w, 4, 256, reg)
		if err != nil {
			b.Fatal(err)
		}
		probes = res.Sent
		responses = uint64(len(res.Responses))
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(responses), "responses/op")
}

// runModuleCampaign is runCampaign through a probe module: the same
// deterministic virtual-time campaign, but with the module's probe bytes on
// the wire instead of the inline SNMPv3 discovery request.
func runModuleCampaign(w *netsim.World, m probe.Module, workers, batch int) (*scanner.Result, error) {
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		return nil, err
	}
	cfg := scanner.Config{
		Rate: 5000, Batch: batch, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: workers,
	}
	return scanner.ScanProbe(context.Background(), w.NewTransport(), targets, cfg, scanner.ProbeSpec{
		Payload: m.AppendProbe(nil, cfg.Seed), Ident: m.Ident(cfg.Seed),
	})
}

// IcmpTsCampaign is ScanCampaign through the icmp-ts probe module: one full
// simulated ICMP-timestamp campaign per iteration, pinning the module seam's
// hot path (AppendProbe into the engine's buffer, the agents' timestamp
// responders) to the same performance envelope as the SNMPv3 campaign.
func IcmpTsCampaign(b *testing.B) {
	w := sharedWorld()
	m, err := probe.Get("icmp-ts")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var probes, responses uint64
	for i := 0; i < b.N; i++ {
		res, err := runModuleCampaign(w, m, 4, 256)
		if err != nil {
			b.Fatal(err)
		}
		probes = res.Sent
		responses = uint64(len(res.Responses))
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(responses), "responses/op")
}

// ScanScalingGrid is the (workers, batch) grid the pps-vs-configuration
// curve is measured over: worker counts spanning single-threaded to
// oversubscribed, batch sizes from the scalar-equivalent 1 to past the
// sendmmsg chunk size.
var ScanScalingGrid = struct {
	Workers []int
	Batches []int
}{
	Workers: []int{1, 4, 16},
	Batches: []int{1, 8, 64, 256},
}

// ScanScaling returns the campaign benchmark for one (workers, batch) point
// of the scaling grid. Alongside ns/op it reports probes/s — the
// hardware-speed packets-per-second figure the batch transport work is
// measured by (virtual campaign time never enters it).
func ScanScaling(workers, batch int) func(*testing.B) {
	return func(b *testing.B) {
		w := sharedWorld()
		b.ReportAllocs()
		b.ResetTimer()
		var probes uint64
		for i := 0; i < b.N; i++ {
			res, err := runCampaign(w, workers, batch, nil)
			if err != nil {
				b.Fatal(err)
			}
			probes = res.Sent
		}
		b.StopTimer()
		b.ReportMetric(float64(probes), "probes/op")
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(probes)*float64(b.N)/elapsed, "probes/s")
		}
	}
}

// CollectResponses benchmarks the response-parsing fold (core.Collect) over
// one campaign's captured datagrams.
func CollectResponses(b *testing.B) {
	w := sharedWorld()
	res, err := runCampaign(w, 4, 256, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ips int
	for i := 0; i < b.N; i++ {
		c := core.Collect(res)
		ips = len(c.ByIP)
	}
	b.ReportMetric(float64(ips), "ips/op")
	b.ReportMetric(float64(len(res.Responses)), "datagrams/op")
}

// EncodeProbe benchmarks the campaign probe encoder.
func EncodeProbe(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		out, err := encodeProbe(buf, int64(i)&0x7FFFFFFF, int64(i*7)&0x7FFFFFFF)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// ParseResponse benchmarks the discovery-response parser over a
// representative report datagram.
func ParseResponse(b *testing.B) {
	rep, err := snmp.NewDiscoveryReport(snmp.NewDiscoveryRequest(7, 7),
		[]byte{0x80, 0x00, 0x1F, 0x88, 0x04, 1, 2, 3, 4, 5}, 3, 123456, 9).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := parseResponse(rep); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObservations builds n synthetic observations for store benchmarks.
func benchObservations(n int) []*core.Observation {
	at := time.Date(2021, 4, 16, 0, 0, 0, 0, time.UTC)
	out := make([]*core.Observation, n)
	for i := range out {
		ip := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		out[i] = &core.Observation{
			IP:          ip,
			EngineID:    []byte{0x80, 0x00, 0x00, 0x09, 0x03, 0x00, byte(i >> 16), byte(i >> 8), byte(i), 0xAB, 0xCD},
			EngineBoots: int64(i%7 + 1),
			EngineTime:  int64(i%100000 + 1),
			ReceivedAt:  at.Add(time.Duration(i) * time.Millisecond),
			Packets:     1,
		}
	}
	return out
}

// StoreIngest benchmarks campaign ingest into the log-structured store:
// one full campaign of synthetic observations per iteration.
func StoreIngest(b *testing.B) {
	const n = 5000
	obs := benchObservations(n)
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, n)}
	for _, o := range obs {
		c.ByIP[o.IP] = o
	}
	st, err := store.Open(store.Options{DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Ingest(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "samples/op")
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed, "samples/s")
	}
}

// StoreDurableIngest is StoreIngest with the write-ahead log and on-disk
// segments enabled: the same campaign per iteration, but every batch is
// logged and fsynced before acknowledgment. The spread between the two is
// the price of durability.
func StoreDurableIngest(b *testing.B) {
	const n = 5000
	obs := benchObservations(n)
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, n)}
	for _, o := range obs {
		c.ByIP[o.IP] = o
	}
	// os.MkdirTemp rather than b.TempDir: these bodies also run through
	// testing.Benchmark in cmd/benchjson, where no test cleanup runs.
	dir, err := os.MkdirTemp("", "snmpfp-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Ingest(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "samples/op")
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed, "samples/s")
	}
}

// StoreCompact benchmarks a full-merge compaction over a store holding
// several flushed campaigns.
func StoreCompact(b *testing.B) {
	const n = 2000
	obs := benchObservations(n)
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, n)}
	for _, o := range obs {
		c.ByIP[o.IP] = o
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(store.Options{DisableCompaction: true, FlushThreshold: 512})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := st.Ingest(context.Background(), c); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		st.Compact()
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// newBenchServer builds a store+server pair preloaded with a few synthetic
// campaigns, for the query-path benchmarks.
func newBenchServer(b *testing.B) (*serve.Server, []*core.Observation) {
	const n = 2000
	obs := benchObservations(n)
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, n)}
	for _, o := range obs {
		c.ByIP[o.IP] = o
	}
	st, err := store.Open(store.Options{DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for i := 0; i < 3; i++ {
		if _, err := st.Ingest(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	return serve.New(st), obs
}

// reportP99 sorts the per-iteration latencies and reports the 99th
// percentile in nanoseconds — the number the bench-gate SLO pins.
func reportP99(b *testing.B, durs []time.Duration) {
	if len(durs) == 0 {
		return
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	b.ReportMetric(float64(durs[len(durs)*99/100].Nanoseconds()), "p99_ns")
}

// ServeIP benchmarks GET /v1/ip/{addr} straight through the handler (no
// socket), measuring store snapshot + JSON encode cost (with the default
// result cache, so the steady state mixes cold encodes and warm hits).
// Alongside ns/op it reports the per-request p99 latency.
func ServeIP(b *testing.B) {
	srv, obs := newBenchServer(b)
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i%len(obs)]
		req := httptest.NewRequest("GET", "/v1/ip/"+o.IP.String(), nil)
		w := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(w, req)
		durs = append(durs, time.Since(start))
		if w.Code != http.StatusOK {
			b.Fatalf("GET /v1/ip: %d", w.Code)
		}
	}
	b.StopTimer()
	reportP99(b, durs)
}

// benchRecorder is a reusable allocation-free ResponseWriter for the
// latency-SLO arms: the httptest recorder allocates a body buffer and
// header map per request, and that garbage-collection churn — not the
// serve path — ends up dominating the measured tail.
type benchRecorder struct {
	h    http.Header
	code int
	n    int
}

func (r *benchRecorder) Header() http.Header  { return r.h }
func (r *benchRecorder) WriteHeader(code int) { r.code = code }
func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.n += len(p)
	return len(p), nil
}

func (r *benchRecorder) reset() {
	for k := range r.h {
		delete(r.h, k)
	}
	r.code, r.n = 0, 0
}

// ServeIPWarm is the warm-cache arm of ServeIP: 64 hot IPs hammered in
// rotation, so after the first lap every response comes from the result
// cache. Its p99_ns is the warm-read SLO the bench gate enforces; requests
// are preallocated and the recorder reused, so the timed section is the
// serve path alone.
func ServeIPWarm(b *testing.B) {
	srv, obs := newBenchServer(b)
	hot := obs
	if len(hot) > 64 {
		hot = hot[:64]
	}
	reqs := make([]*http.Request, len(hot))
	for i, o := range hot {
		reqs[i] = httptest.NewRequest("GET", "/v1/ip/"+o.IP.String(), nil)
	}
	w := &benchRecorder{h: make(http.Header)}
	// Prime the cache so iteration 0 is already warm.
	for _, req := range reqs {
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("GET /v1/ip prime: %d", w.code)
		}
		w.reset()
	}
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		start := time.Now()
		srv.ServeHTTP(w, req)
		durs = append(durs, time.Since(start))
		if w.code != http.StatusOK {
			b.Fatalf("GET /v1/ip: %d", w.code)
		}
		w.reset()
	}
	b.StopTimer()
	reportP99(b, durs)
}

// newMissBenchServer builds a durable store whose whole state lives in
// sealed v3 segments, for the cold negative-lookup arms. disableBloom
// controls whether the segments carry their split-block filters.
func newMissBenchServer(b *testing.B, disableBloom bool) (*serve.Server, *store.Store) {
	const n = 2000
	obs := benchObservations(n)
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, n)}
	for _, o := range obs {
		c.ByIP[o.IP] = o
	}
	// os.MkdirTemp rather than b.TempDir: these bodies also run through
	// testing.Benchmark in cmd/benchjson, where no test cleanup runs.
	dir, err := os.MkdirTemp("", "snmpfp-bench-miss")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	st, err := store.Open(store.Options{Dir: dir, DisableCompaction: true, DisableBloom: disableBloom})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for i := 0; i < 3; i++ {
		if _, err := st.Ingest(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	return serve.New(st), st
}

// serveIPMiss drives GET /v1/ip for addresses the store has never seen and
// reports seg_bytes/op — segment bytes physically consulted per miss. With
// bloom filters every segment rejects the probe before its index is
// touched; without them each miss pays a binary search per segment.
func serveIPMiss(b *testing.B, disableBloom bool) {
	srv, st := newMissBenchServer(b, disableBloom)
	before := st.SegBytesRead()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 203.0.113.0/24 and friends never appear in benchObservations.
		addr := netip.AddrFrom4([4]byte{203, byte(i >> 16), byte(i >> 8), byte(i)})
		req := httptest.NewRequest("GET", "/v1/ip/"+addr.String(), nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusNotFound {
			b.Fatalf("GET /v1/ip miss: %d", w.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.SegBytesRead()-before)/float64(b.N), "seg_bytes/op")
}

// ServeIPMissBloom is the cold negative lookup with per-segment bloom
// filters consulted first.
func ServeIPMissBloom(b *testing.B) { serveIPMiss(b, false) }

// ServeIPMissNoBloom is the same workload with filters disabled — the
// pre-PR read path, kept as the comparison arm for the ≥5x bytes-read
// reduction gate.
func ServeIPMissNoBloom(b *testing.B) { serveIPMiss(b, true) }

// ServeVendors benchmarks GET /v1/vendors, reporting p99_ns alongside
// ns/op.
func ServeVendors(b *testing.B) {
	srv, _ := newBenchServer(b)
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/v1/vendors", nil)
		w := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(w, req)
		durs = append(durs, time.Since(start))
		if w.Code != http.StatusOK {
			b.Fatalf("GET /v1/vendors: %d", w.Code)
		}
	}
	b.StopTimer()
	reportP99(b, durs)
}

// ServeStats benchmarks GET /v1/stats.
func ServeStats(b *testing.B) {
	srv, _ := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/v1/stats", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("GET /v1/stats: %d", w.Code)
		}
	}
}
