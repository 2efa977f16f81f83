package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"os"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/store"
)

// ingestCampaigns is how many consecutive campaigns the ingest_query
// workload pre-generates and ingests per pass.
const ingestCampaigns = 6

// ingestDiv scales the ingest_query world to an eighth of DefaultConfig:
// six quarter-world campaigns take 13-22 s to ingest, one pass per run,
// and that pass's time spread by 24% across seeds; at an eighth a pass
// takes about 5 s and a run holds several.
const ingestDiv = 8

// queryRate is the open loop's offered rate, in requests per second. Each
// query after an ingest batch rebuilds the store's view under its lock, so
// queries slow ingest: at 200/s the backlog grows without bound, at 50/s
// ingest takes twice as long as alone and varies by 20% from run to run,
// and at 10/s it takes about 10% longer and stays steady.
const queryRate = 10

// maxPassQueries bounds the pre-generated request sequence: two minutes at
// the offered rate, far beyond any pass.
const maxPassQueries = queryRate * 120

// queryLateLimit is the latency past which a query counts as failed.
const queryLateLimit = time.Second

// ingestQuery durably ingests pre-generated campaigns into a fresh store
// while one keep-alive client queries it in an open loop.
type ingestQuery struct {
	camps   []*core.Campaign
	queries []query
	// hits are the addresses of the first campaign, checked after reopen.
	hits []netip.Addr

	// Components of the current pass, replaced by reset.
	dir   string
	reg   *obs.Registry
	st    *store.Store
	timer *handlerTimer
	http  *httpServer
}

func setupIngestQuery(b *bench, p *pass) (pipeline, error) {
	b.scale = fmt.Sprintf("netsim.DefaultConfig(%d)/%d", worldSeed, ingestDiv)
	b.queryRate = queryRate
	w := generateWorld(p, scaledConfig(ingestDiv))
	q := &ingestQuery{}
	// Campaign i runs on day 15 + 6·i, the snmpfpd -sim cadence. These
	// scans generate the workload's input, so they are neither traced nor
	// wired to a registry.
	for i := 0; i < ingestCampaigns; i++ {
		w.Clock.Set(w.Cfg.StartTime.Add(time.Duration(15+6*i) * 24 * time.Hour))
		w.BeginScan()
		seed := campaignSeed(b.seed, i)
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
		if err != nil {
			return nil, err
		}
		res, err := scanner.ScanContext(b.ctx, w.NewTransport(), targets, scanner.Config{
			Rate: 50000, Batch: 256, Clock: w.Clock, Seed: seed, Workers: workers(),
		})
		if err != nil {
			return nil, err
		}
		q.camps = append(q.camps, core.Collect(res))
	}

	seen := map[netip.Addr]bool{}
	for _, c := range q.camps {
		for ip := range c.ByIP {
			seen[ip] = true
		}
	}
	q.hits = q.camps[0].SortedIPs()
	var keys []hotKey
	for _, ip := range q.hits {
		if o := q.camps[0].ByIP[ip]; len(o.EngineID) > 0 {
			keys = append(keys, hotKey{ip: ip, engineID: o.EngineID})
		}
	}
	// Popularity rank is a seeded shuffle, not address order, so the hot
	// set is spread over every segment.
	rand.New(rand.NewSource(b.seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	q.queries = genQueries(b.seed, maxPassQueries, keys, func(a netip.Addr) bool { return seen[a] })
	return q, q.open(b)
}

// open creates the pass's store, server and registry: one registry shared
// by store and server, as snmpfpd wires them.
func (q *ingestQuery) open(b *bench) error {
	dir, err := b.scratchDir("store")
	if err != nil {
		return err
	}
	q.dir, q.reg = dir, obs.NewRegistry()
	if q.st, err = store.Open(store.Options{Dir: dir, Obs: q.reg}); err != nil {
		return err
	}
	q.timer = &handlerTimer{srv: serve.New(q.st, serve.WithObs(q.reg))}
	q.http, err = startHTTP(q.timer)
	return err
}

func (q *ingestQuery) reset(b *bench) error {
	if err := q.close(); err != nil {
		return err
	}
	return q.open(b)
}

func (q *ingestQuery) close() error {
	var err error
	if q.http != nil {
		err = q.http.close()
		q.http = nil
	}
	if q.st != nil {
		if cerr := q.st.Close(); err == nil {
			err = cerr
		}
		q.st = nil
	}
	if q.dir != "" {
		if rerr := os.RemoveAll(q.dir); err == nil {
			err = rerr
		}
		q.dir = ""
	}
	return err
}

func (q *ingestQuery) pass(p *pass) error {
	b := p.bench
	q.timer.cur.Store(p)
	defer q.timer.cur.Store(nil)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()

	var acked uint64
	var ingestErr error
	var ingestS float64
	var lr loopResult
	stop := make(chan struct{})
	loopDone := make(chan loopResult, 1)
	started := false
	start := time.Now()
	allocB := p.allocated(func() {
		for i, c := range q.camps {
			d := p.timed("store.ingest", func() { _, ingestErr = q.st.Ingest(b.ctx, c) })
			if ingestErr != nil {
				return
			}
			ingestS += d.Seconds()
			acked += uint64(len(c.ByIP))
			// Queries start once the first campaign is acknowledged, so
			// every hit names an address the store has taken.
			if i == 0 {
				started = true
				go func() {
					loopDone <- runOpenLoop(time.Now(), time.Second/queryRate, len(q.queries), stop, func(i int) error {
						return q.do(client, q.queries[i])
					})
				}()
			}
		}
	})
	p.finish(start)
	close(stop)
	if started {
		lr = <-loopDone
	}
	if ingestErr != nil {
		return ingestErr
	}

	late := 0
	for _, l := range lr.lat {
		if l > queryLateLimit {
			late++
		}
	}
	b.ops(len(lr.lat), lr.failed+late)
	for _, err := range lr.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: query failed: %v\n", b.workload, err)
	}
	p.queryLatUs = micros(lr.lat)
	q.passFigures(p, lr, acked, ingestS, allocB)

	issued := float64(len(lr.lat))
	b.check(float64(acked) == q.reg.Value("snmpfp_store_ingested_total"),
		"samples acknowledged %d, registry says %v", acked, q.reg.Value("snmpfp_store_ingested_total"))
	b.check(issued == familySum(q.reg, "snmpfp_http_requests_total"),
		"requests issued %v, registry says %v", issued, familySum(q.reg, "snmpfp_http_requests_total"))

	segBytes, err := dirBytes(q.dir, ".seg")
	if err != nil {
		return err
	}
	walBytes, err := dirBytes(q.dir, ".wal")
	if err != nil {
		return err
	}
	p.set("store.segment_bytes", float64(segBytes))
	p.set("store.wal_bytes", float64(walBytes))
	if err := q.http.close(); err != nil {
		return err
	}
	q.http = nil
	var cerr error
	d := p.timed("store.close", func() { cerr = q.st.Close() })
	q.st = nil
	if cerr != nil {
		return cerr
	}
	p.set("store.close_s", d.Seconds())
	disk, err := dirBytes(q.dir, "")
	if err != nil {
		return err
	}
	p.figures["disk_bytes_per_sample"] = float64(disk) / float64(acked)
	return q.recover(p, acked)
}

// do sends one query and checks its answer.
func (q *ingestQuery) do(client *http.Client, qu query) error {
	resp, err := client.Get(q.http.base + qu.path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if qu.kind == qMiss {
		if resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("GET %s: status %d, want 404", qu.path, resp.StatusCode)
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte(qu.want)) {
		return fmt.Errorf("GET %s: status %d, body %.80q", qu.path, resp.StatusCode, body)
	}
	return nil
}

// passFigures records the pass's ingest, cache and generator figures.
func (q *ingestQuery) passFigures(p *pass, lr loopResult, acked uint64, ingestS float64, allocB uint64) {
	p.figures["ingest_samples_per_s"] = float64(acked) / p.wall.Seconds()
	p.set("bench.generator_lag_p99_us", percentile(sortedCopy(micros(lr.lag)), 99))

	reg := q.reg
	p.set("store.ingest_s", ingestS)
	p.set("store.alloc_bytes_per_sample", ratio(float64(allocB), float64(acked)))
	storeFigures(p, reg)
	p.set("store.wal_bytes_per_sample", ratio(reg.Value("snmpfp_store_wal_bytes_total"), float64(acked)))
	p.set("store.seg_query_bytes_per_query", ratio(reg.Value("snmpfp_store_seg_query_bytes_total"), float64(len(lr.lat))))
	hits, misses := reg.Value("snmpfp_store_block_cache_hits_total"), reg.Value("snmpfp_store_block_cache_misses_total")
	p.set("store.block_cache_hit_ratio", ratio(hits, hits+misses))
	hits, misses = reg.Value("snmpfp_serve_result_cache_hits_total"), reg.Value("snmpfp_serve_result_cache_misses_total")
	p.set("serve.result_cache_hit_ratio", ratio(hits, hits+misses))
	if p.traced {
		handlerFigures(p)
	}
}

// handlerFigures turns the pass's serve.http spans into per-endpoint
// handler latency percentiles.
func handlerFigures(p *pass) {
	byEndpoint := map[string][]time.Duration{}
	for _, s := range p.bench.tr.passSpans(p.n) {
		if s.Name == "serve.http" {
			byEndpoint[s.Label] = append(byEndpoint[s.Label], s.dur())
		}
	}
	for ep, ds := range byEndpoint {
		us := sortedCopy(micros(ds))
		p.set("serve.handler_p50_us."+ep, percentile(us, 50))
		p.set("serve.handler_p99_us."+ep, percentile(us, 99))
	}
}

// recover reopens the closed store and times it until the first correct
// /v1/ip answer, then checks that every acknowledged sample is readable.
func (q *ingestQuery) recover(p *pass, acked uint64) error {
	b := p.bench
	reg := obs.NewRegistry()
	probe := q.hits[len(q.hits)/2]
	want := []byte(`{"ip":"` + probe.String() + `"`)
	start := time.Now()
	var st *store.Store
	var err error
	d := p.timed("store.open", func() { st, err = store.Open(store.Options{Dir: q.dir, Obs: reg}) })
	if err != nil {
		return err
	}
	defer st.Close()
	p.set("store.open_s", d.Seconds())
	srv := serve.New(st, serve.WithObs(reg))
	var code int
	var body []byte
	p.timedLabel("serve.http", "ip", func() { code, body = get(srv, "/v1/ip/"+probe.String()) })
	p.figures["recover_s"] = time.Since(start).Seconds()
	b.check(code == http.StatusOK && bytes.HasPrefix(body, want), "first /v1/ip after reopen: status %d", code)
	b.check(reg.Value("snmpfp_http_requests_total", obs.L("endpoint", "ip")) == 1, "reopened server request count")

	v := st.Snapshot()
	b.check(v.Stats().Ingested == acked, "reopened store holds %d samples, %d acknowledged", v.Stats().Ingested, acked)
	missing := 0
	expect := map[netip.Addr][]uint64{}
	for i, c := range q.camps {
		for ip := range c.ByIP {
			expect[ip] = append(expect[ip], uint64(i+1))
		}
	}
	for ip, camps := range expect {
		have := map[uint64]bool{}
		for _, s := range v.History(ip) {
			have[s.Campaign] = true
		}
		for _, c := range camps {
			if !have[c] {
				missing++
			}
		}
	}
	b.check(missing == 0, "%d acknowledged samples unreadable after reopen", missing)
	return nil
}
