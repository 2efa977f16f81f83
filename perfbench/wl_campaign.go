package main

import (
	"fmt"
	"net/netip"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/analysis"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
)

// campaignPipeline is the paper's Table 1 shape in one process: an IPv6
// hitlist pair and an IPv4 pair of SNMPv3 campaigns, then collect, the
// §4.4 filter and §5 alias resolution for IPv4, IPv6 and both. No store,
// server or fusion runs, so changes to those must not move it.
type campaignPipeline struct {
	seed    int64
	w       *netsim.World
	hitlist []netip.Addr
	pfx     []netip.Prefix
	// truth maps every interface address to its device, for precision.
	truth map[netip.Addr]int
}

// scanSpec is one campaign of the Table 1 schedule.
type scanSpec struct {
	day  int
	v6   bool
	rate int
}

// table1 is the paper's schedule: IPv6 on April 13 and 14 at 20 kpps,
// IPv4 from April 16 and 22 at 5 kpps.
var table1 = []scanSpec{
	{12, true, 20000}, {13, true, 20000},
	{15, false, 5000}, {21, false, 5000},
}

// campaignDiv scales the campaign workload's world to a quarter of
// DefaultConfig: 3.5M probes and about 72k responsive IPv4 addresses per
// IPv4 campaign.
const campaignDiv = 4

// minPrecision is the pair precision of alias sets against device ground
// truth below which a pass fails; the experiment tests hold the same bar.
const minPrecision = 0.99

func setupCampaign(b *bench, p *pass) (pipeline, error) {
	b.scale = fmt.Sprintf("netsim.DefaultConfig(%d)/%d", worldSeed, campaignDiv)
	w := generateWorld(p, scaledConfig(campaignDiv))
	c := &campaignPipeline{seed: b.seed, w: w, hitlist: w.HitlistV6(), pfx: w.ScanPrefixes4(), truth: map[netip.Addr]int{}}
	for _, d := range w.Devices {
		for _, a := range d.AllAddrs() {
			c.truth[a] = d.ID
		}
	}
	return c, nil
}

// reset regenerates the world: every campaign's loss and fault draws are
// salted with the world's scan epoch, which each campaign advances, so
// only a fresh world gives every pass the same inputs.
func (c *campaignPipeline) reset(*bench) error {
	c.w = netsim.Generate(scaledConfig(campaignDiv))
	return nil
}

func (c *campaignPipeline) close() error { return nil }

// scan runs one campaign through the scanner, publishing into reg: the
// SNMPv3 discovery campaign through ScanContext when spec is nil, a probe
// module's sweep through ScanProbe otherwise.
func scan(p *pass, w *netsim.World, reg *obs.Registry, ts scanner.TargetSpace, cfg scanner.Config, spec *scanner.ProbeSpec) (*scanner.Result, error) {
	var res *scanner.Result
	var err error
	cfg.Clock, cfg.Obs, cfg.Batch, cfg.Workers = w.Clock, reg, 256, workers()
	alloc := p.allocated(func() {
		d := p.timed("scanner.scan", func() {
			if spec == nil {
				res, err = scanner.ScanContext(p.bench.ctx, w.NewTransport(), ts, cfg)
			} else {
				res, err = scanner.ScanProbe(p.bench.ctx, w.NewTransport(), ts, cfg, *spec)
			}
		})
		p.add("scanner.scan_s", d.Seconds())
	})
	if err != nil {
		return nil, err
	}
	p.add("scanner.alloc_mb", float64(alloc)/(1<<20))
	// Summed here, turned into ratios by scanFigures.
	p.add("scanner.probes", float64(res.Sent))
	p.add("scanner.responses", float64(len(res.Responses)))
	return res, nil
}

// scanFigures derives the scanner's per-layer figures once a pass's scans
// are done; reg is the registry they published into.
func scanFigures(p *pass, reg *obs.Registry) {
	p.set("scanner.probes_per_s", ratio(p.layer["scanner.probes"], p.layer["scanner.scan_s"]))
	p.set("scanner.response_ratio", ratio(p.layer["scanner.responses"], p.layer["scanner.probes"]))
	p.set("scanner.send_errors", reg.Value("snmpfp_scan_send_errors_total"))
	p.set("scanner.retries", reg.Value("snmpfp_scan_retries_total"))
	delete(p.layer, "scanner.probes")
	delete(p.layer, "scanner.responses")
}

func (c *campaignPipeline) pass(p *pass) error {
	reg := obs.NewRegistry()
	w := c.w
	start := time.Now()
	var camps [4]*core.Campaign
	var sent uint64
	for i, s := range table1 {
		w.Clock.Set(w.Cfg.StartTime.Add(time.Duration(s.day) * 24 * time.Hour))
		w.BeginScan()
		seed := campaignSeed(c.seed, i)
		var ts scanner.TargetSpace
		var err error
		if s.v6 {
			ts, err = scanner.NewListSpace(c.hitlist, seed)
		} else {
			ts, err = scanner.NewPrefixSpace(c.pfx, seed)
		}
		if err != nil {
			return err
		}
		res, err := scan(p, w, reg, ts, scanner.Config{Rate: s.rate, Timeout: 8 * time.Second, Seed: seed}, nil)
		if err != nil {
			return err
		}
		sent += res.Sent
		d := p.timed("core.collect", func() { camps[i] = core.Collect(res) })
		p.add("core.collect_s", d.Seconds())
	}
	var f6, f4 *filter.Report
	d := p.timed("filter.run", func() { f6 = filter.Run(camps[0], camps[1]) })
	d += p.timed("filter.run", func() { f4 = filter.Run(camps[2], camps[3]) })
	p.set("filter.run_s", d.Seconds())
	combined := append(append([]*filter.Merged(nil), f4.Valid...), f6.Valid...)
	var s4, s6, sAll []*alias.Set
	d = p.timed("alias.resolve", func() { s4 = alias.Resolve(f4.Valid, alias.Default) })
	d += p.timed("alias.resolve", func() { s6 = alias.Resolve(f6.Valid, alias.Default) })
	d += p.timed("alias.resolve", func() { sAll = alias.Resolve(combined, alias.Default) })
	p.finish(start)
	p.set("alias.resolve_s", d.Seconds())
	p.set("alias.sets", float64(len(sAll)))
	p.set("filter.valid_ratio", ratio(float64(len(combined)), float64(f4.Overlap+f6.Overlap)))
	scanFigures(p, reg)

	b := p.bench
	b.check(len(f4.Valid) > 0 && len(f6.Valid) > 0, "filter kept %d IPv4 and %d IPv6 addresses", len(f4.Valid), len(f6.Valid))
	checkPartition(b, "IPv4", f4.Valid, s4)
	checkPartition(b, "IPv6", f6.Valid, s6)
	checkPartition(b, "combined", combined, sAll)
	prec, _ := analysis.PrecisionRecall(addrSets(sAll), c.truth)
	b.check(prec >= minPrecision, "alias pair precision %.4f below %.2f", prec, minPrecision)
	b.check(float64(sent) == reg.Value("snmpfp_scan_probes_sent_total"),
		"probes sent %d, registry says %v", sent, reg.Value("snmpfp_scan_probes_sent_total"))
	return nil
}

// checkPartition checks that the alias sets hold every valid address
// exactly once and nothing else.
func checkPartition(b *bench, family string, valid []*filter.Merged, sets []*alias.Set) {
	want := make(map[netip.Addr]int, len(valid))
	for _, m := range valid {
		want[m.IP]++
	}
	seen := 0
	bad := 0
	for _, s := range sets {
		for _, m := range s.Members {
			seen++
			if want[m.IP] != 1 {
				bad++
			}
			want[m.IP]++
		}
	}
	b.check(bad == 0 && seen == len(valid), "%s alias sets: %d members for %d valid addresses, %d misplaced", family, seen, len(valid), bad)
}

func addrSets(sets []*alias.Set) []analysis.AddrSet {
	out := make([]analysis.AddrSet, 0, len(sets))
	for _, s := range sets {
		as := make(analysis.AddrSet, 0, len(s.Members))
		for _, m := range s.Members {
			as = append(as, m.IP)
		}
		out = append(out, as)
	}
	return out
}
