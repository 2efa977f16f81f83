package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/serve"
)

// scaledConfig is netsim.DefaultConfig with its AS, CPE, server, IoT, IPv6
// CPE, hitlist-filler, load-balancer and bug-device counts divided by div.
// Router density per AS and the shared/promiscuous engine-ID groups stay
// as calibrated, so the pipeline sees every population the paper does.
func scaledConfig(div int) netsim.Config {
	c := netsim.DefaultConfig(worldSeed)
	for _, n := range []*int{
		&c.TransitASes, &c.EyeballASes, &c.HostingASes, &c.CPEDevices, &c.Servers,
		&c.IoTDevices, &c.V6CPE, &c.HitlistFiller, &c.LoadBalancers, &c.BugDevices,
	} {
		*n /= div
	}
	return c
}

// worldSeed fixes the simulated Internet every workload scans; it is
// snmpfpd's default -sim-seed. A workload's cost depends on which world it
// scans (fusion's proposed pairs range from 0.35M to 0.57M across tiny
// worlds), so --seed varies the campaigns (target permutations, probe IDs,
// loss draws) and the query sequences instead, and the spread between seeds
// measures the program rather than world generation.
const worldSeed = 7

// campaignSeed derives the seed of a workload's campaign i from --seed.
func campaignSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// generateWorld generates the workload's world inside a netsim.generate
// span and records its time.
func generateWorld(p *pass, cfg netsim.Config) *netsim.World {
	var w *netsim.World
	d := p.timed("netsim.generate", func() { w = netsim.Generate(cfg) })
	p.set("netsim.generate_s", d.Seconds())
	return w
}

// workers is the scan engine's worker count: one per processor, so load
// comes from one process with no more workers than the machine has.
func workers() int { return runtime.NumCPU() }

// familySum totals every series of a counter family.
func familySum(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, pt := range reg.Snapshot() {
		if pt.Name == name {
			sum += pt.Value
		}
	}
	return sum
}

// spanSeconds is the total time the program's own tracer recorded for one
// span name (the sum of its duration histogram series).
func spanSeconds(reg *obs.Registry, name string) float64 {
	labels := `span="` + name + `"`
	for _, pt := range reg.Snapshot() {
		if pt.Name == obs.SpanFamily && pt.Labels == labels {
			return pt.Sum
		}
	}
	return 0
}

// histSum is the sum of an unlabelled histogram's observations.
func histSum(reg *obs.Registry, name string) float64 {
	for _, pt := range reg.Snapshot() {
		if pt.Name == name && pt.Labels == "" {
			return pt.Sum
		}
	}
	return 0
}

// storeFigures records the durable store's write-path counters from its
// registry: WAL fsyncs and their time, flushes, and compactions and their
// time (the compactor runs in the background, so compact_s overlaps the
// pass rather than adding to it).
func storeFigures(p *pass, reg *obs.Registry) {
	p.set("store.wal_fsyncs", reg.Value("snmpfp_store_wal_fsyncs_total"))
	p.set("store.fsync_s", histSum(reg, "snmpfp_store_fsync_seconds"))
	p.set("store.flushes", reg.Value("snmpfp_store_flushes_total"))
	p.set("store.compactions", reg.Value("snmpfp_store_compactions_total"))
	p.set("store.compact_s", spanSeconds(reg, "store.compact"))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirBytes sums the sizes of the regular files in dir whose names end in
// suffix ("" for all).
func dirBytes(dir, suffix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// handlerTimer wraps a serve.Server so every request it handles is a
// serve.http span under the current pass, labelled with its endpoint.
type handlerTimer struct {
	srv *serve.Server
	cur atomic.Pointer[pass]
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := h.cur.Load()
	if p == nil || !p.traced {
		h.srv.ServeHTTP(w, r)
		return
	}
	p.timedLabel("serve.http", endpointLabel(r.URL.Path), func() { h.srv.ServeHTTP(w, r) })
}

// endpointLabel maps /v1/<endpoint>/... to <endpoint>.
func endpointLabel(path string) string {
	rest := strings.TrimPrefix(path, "/v1/")
	ep, _, _ := strings.Cut(rest, "/")
	return ep
}

// httpServer is a loopback HTTP server in front of a handler.
type httpServer struct {
	hs   *http.Server
	base string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// get issues one in-process request and returns status and body.
func get(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// addrSample picks up to n addresses from ips, spread evenly.
func addrSample(ips []netip.Addr, n int) []netip.Addr {
	if len(ips) <= n {
		return ips
	}
	out := make([]netip.Addr, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ips[i*len(ips)/n])
	}
	return out
}
