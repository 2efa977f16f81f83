package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/fusion"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/probe"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/store"
)

// The fusion workload's world is netsim.TinyConfig, the world snmpfpd -sim
// scans. Fusion's cost grows with the candidate pairs its groups propose:
// on the quarter world one Fuse call proposes about 4.3M pairs, takes about
// 12 s and grows the heap past 2 GB, and a pass fuses twice (directly and
// behind /v1/fusion); on the tiny world it proposes about 0.57M.

// fusionModules are the probe modules the fusion workload sweeps.
var fusionModules = []string{"snmpv3", "icmp-ts", "ntp"}

// fusionPipeline sweeps the world with every probe module, fuses their
// alias evidence, stores it and serves one cold /v1/fusion.
type fusionPipeline struct {
	seed    int64
	w       *netsim.World
	modules []probe.Module
	checked bool

	dir   string
	reg   *obs.Registry
	st    *store.Store
	timer *handlerTimer
}

func setupFusion(b *bench, p *pass) (pipeline, error) {
	b.scale = fmt.Sprintf("netsim.TinyConfig(%d)", worldSeed)
	f := &fusionPipeline{seed: b.seed, w: generateWorld(p, netsim.TinyConfig(worldSeed))}
	for _, name := range fusionModules {
		m, err := probe.Get(name)
		if err != nil {
			return nil, err
		}
		f.modules = append(f.modules, m)
	}
	return f, f.open(b)
}

func (f *fusionPipeline) open(b *bench) error {
	dir, err := b.scratchDir("store")
	if err != nil {
		return err
	}
	f.dir, f.reg = dir, obs.NewRegistry()
	if f.st, err = store.Open(store.Options{Dir: dir, Obs: f.reg}); err != nil {
		return err
	}
	f.timer = &handlerTimer{srv: serve.New(f.st, serve.WithObs(f.reg))}
	return nil
}

// reset replaces the store the pass filled and regenerates the world, so
// every pass sweeps from the same scan epoch and sees the same inputs.
func (f *fusionPipeline) reset(b *bench) error {
	if err := f.close(); err != nil {
		return err
	}
	f.w = netsim.Generate(netsim.TinyConfig(worldSeed))
	return f.open(b)
}

func (f *fusionPipeline) close() error {
	var err error
	if f.st != nil {
		err = f.st.Close()
		f.st = nil
	}
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
		f.dir = ""
	}
	return err
}

func (f *fusionPipeline) pass(p *pass) error {
	b, w, reg := p.bench, f.w, f.reg
	f.timer.cur.Store(p)
	defer f.timer.cur.Store(nil)
	base := w.Cfg.StartTime.Add(15 * 24 * time.Hour)
	seed := campaignSeed(f.seed, 0)
	cfg := scanner.Config{Rate: 50000, Seed: seed}

	start := time.Now()
	w.Clock.Set(base)
	w.BeginScan()
	var sent, stored uint64
	var snmp *core.Campaign
	var evidence []fusion.ProtocolEvidence
	var collected []*probe.Campaign
	for _, m := range f.modules {
		// Every sweep re-runs the campaign's instant in one scan epoch, as
		// snmpfpd -sim does.
		w.Clock.Set(base)
		ts, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
		if err != nil {
			return err
		}
		res, err := scan(p, w, reg, ts, cfg, &scanner.ProbeSpec{Payload: m.AppendProbe(nil, seed), Ident: m.Ident(seed)})
		if err != nil {
			return err
		}
		sent += res.Sent
		if m.Name() == "snmpv3" {
			d := p.timed("core.collect", func() { snmp = core.Collect(res) })
			p.add("core.collect_s", d.Seconds())
		}
		var pc *probe.Campaign
		d := p.timedLabel("probe.collect", m.Name(), func() { pc = probe.Collect(m, res) })
		p.set("probe.collect_s."+m.Name(), d.Seconds())
		p.set("probe.evidence_ips."+m.Name(), float64(len(pc.ByIP)))
		collected = append(collected, pc)
		evidence = append(evidence, fusion.ProtocolEvidence{Protocol: m.Name(), Weight: pc.Weight, Groups: pc.Groups()})
	}
	var rep *fusion.Report
	alloc := p.allocated(func() {
		d := p.timed("fusion.fuse", func() { rep = fusion.Fuse(evidence) })
		p.set("fusion.fuse_s", d.Seconds())
	})
	p.set("fusion.alloc_mb", float64(alloc)/(1<<20))

	var err error
	var campaign uint64
	d := p.timed("store.ingest", func() { campaign, err = f.st.Ingest(b.ctx, snmp) })
	if err != nil {
		return err
	}
	stored += uint64(len(snmp.ByIP))
	p.set("store.ingest_s", d.Seconds())
	for _, pc := range collected {
		if pc.Protocol == "snmpv3" {
			continue // stored above as the campaign itself
		}
		samples := store.EvidenceFromCampaign(pc)
		d := p.timed("store.ingest_evidence", func() { err = f.st.IngestEvidence(b.ctx, pc.Protocol, samples) })
		if err != nil {
			return err
		}
		stored += uint64(len(samples))
		p.add("store.evidence_ingest_s", d.Seconds())
	}
	var code int
	var body []byte
	// The handler timer records the request as a serve.http span.
	t0 := time.Now()
	code, body = get(f.timer, "/v1/fusion")
	p.finish(start)
	p.set("serve.fusion_cold_s", time.Since(t0).Seconds())
	scanFigures(p, reg)
	storeFigures(p, reg)
	if p.traced {
		handlerFigures(p)
	}

	var proposed, accepted int
	for _, pr := range rep.Protocols {
		proposed += pr.Proposed
		accepted += pr.Accepted
	}
	p.set("fusion.proposed_pairs", float64(proposed))
	p.set("fusion.accepted_ratio", ratio(float64(accepted), float64(proposed)))

	// The served report must be the direct one: the store's evidence is
	// the same campaign's, read back through segments.
	want, err := json.Marshal(serve.WireFusion{Campaign: campaign, Report: rep})
	if err != nil {
		return err
	}
	b.check(code == http.StatusOK && bytes.Equal(bytes.TrimSpace(body), want),
		"served /v1/fusion (status %d, %d bytes) differs from the direct report (%d bytes)", code, len(body), len(want))
	if !f.checked {
		// Fusion must not depend on the order of its evidence slice.
		rev := make([]fusion.ProtocolEvidence, len(evidence))
		for i, ev := range evidence {
			rev[len(evidence)-1-i] = ev
		}
		got, err := json.Marshal(fusion.Fuse(rev))
		if err != nil {
			return err
		}
		direct, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		b.check(bytes.Equal(got, direct), "fused sets changed when the evidence order was reversed")
		f.checked = true
	}
	b.check(len(rep.Sets) > 0, "fusion produced no sets")
	b.check(float64(sent) == reg.Value("snmpfp_scan_probes_sent_total"),
		"probes sent %d, registry says %v", sent, reg.Value("snmpfp_scan_probes_sent_total"))
	b.check(float64(stored) == reg.Value("snmpfp_store_ingested_total"),
		"samples acknowledged %d, registry says %v", stored, reg.Value("snmpfp_store_ingested_total"))
	b.check(familySum(reg, "snmpfp_http_requests_total") == 1,
		"requests issued 1, registry says %v", familySum(reg, "snmpfp_http_requests_total"))
	return nil
}
