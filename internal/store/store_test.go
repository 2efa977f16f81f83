package store

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/tracker"
)

var t0 = time.Date(2021, 4, 16, 0, 0, 0, 0, time.UTC)

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// engID builds a conformant octets-format engine ID under the enterprise.
func engID(enterprise uint32, body ...byte) []byte {
	id := []byte{byte(0x80 | enterprise>>24), byte(enterprise >> 16), byte(enterprise >> 8), byte(enterprise), 5}
	return append(id, body...)
}

func mkObs(ip string, id []byte, boots, etime int64, at time.Time) *core.Observation {
	return &core.Observation{
		IP:          netip.MustParseAddr(ip),
		EngineID:    id,
		EngineBoots: boots,
		EngineTime:  etime,
		ReceivedAt:  at,
		Packets:     1,
	}
}

func mkCampaign(obs ...*core.Observation) *core.Campaign {
	c := &core.Campaign{ByIP: map[netip.Addr]*core.Observation{}}
	for _, o := range obs {
		c.ByIP[o.IP] = o
		c.TotalPackets += o.Packets
	}
	return c
}

// batchSets runs the existing batch pipeline and renders its output in the
// store's materialized form.
func batchSets(c1, c2 *core.Campaign) ([]AliasSet, []VendorCount) {
	rep := filter.Run(c1, c2)
	sets := alias.Resolve(rep.Valid, alias.Default)
	out := make([]AliasSet, 0, len(sets))
	tally := map[string]int{}
	for _, s := range sets {
		fp := core.FingerprintEngineID(s.Members[0].EngineID)
		as := AliasSet{
			EngineID: fmt.Sprintf("%x", s.Members[0].EngineID),
			Vendor:   fp.VendorLabel(),
		}
		for _, m := range s.Members {
			as.IPs = append(as.IPs, m.IP)
		}
		out = append(out, as)
		tally[fp.VendorLabel()]++
	}
	vendors := make([]VendorCount, 0, len(tally))
	for v, n := range tally {
		vendors = append(vendors, VendorCount{Vendor: v, Devices: n})
	}
	// Same order the store materializes (and snmpalias prints).
	for i := 1; i < len(vendors); i++ {
		for j := i; j > 0; j-- {
			a, b := vendors[j-1], vendors[j]
			if b.Devices > a.Devices || (b.Devices == a.Devices && b.Vendor < a.Vendor) {
				vendors[j-1], vendors[j] = b, a
			}
		}
	}
	return out, vendors
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHistorySupersedeAndCompaction(t *testing.T) {
	s := mustOpen(t, Options{FlushThreshold: 2, DisableCompaction: true})
	defer s.Close()

	id := engID(9, 1, 2, 3, 4)
	s.BeginCampaign()
	if err := s.Add(mkObs("192.0.2.1", id, 3, 100, t0)); err != nil {
		t.Fatal(err)
	}
	// Supersede within the campaign: corrected boots value.
	if err := s.Add(mkObs("192.0.2.1", id, 4, 100, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	s.BeginCampaign()
	if err := s.Add(mkObs("192.0.2.1", id, 4, 200, t0.Add(24*time.Hour))); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	v := s.Snapshot()
	h := v.History(netip.MustParseAddr("192.0.2.1"))
	if len(h) != 2 {
		t.Fatalf("history: got %d samples, want 2 (superseded removed): %+v", len(h), h)
	}
	if h[0].Boots != 4 || h[0].Campaign != 1 {
		t.Fatalf("campaign 1 sample not superseded: %+v", h[0])
	}
	if h[1].Campaign != 2 || h[1].EngineTime != 200 {
		t.Fatalf("bad campaign 2 sample: %+v", h[1])
	}
	if got, ok := v.Latest(netip.MustParseAddr("192.0.2.1")); !ok || got.Campaign != 2 {
		t.Fatalf("Latest: got %+v ok=%v", got, ok)
	}
	if ips := v.DeviceIPs(id); len(ips) != 1 || ips[0] != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("DeviceIPs: %v", ips)
	}

	before := v.Stats()
	if before.Segments < 2 {
		t.Fatalf("expected >=2 segments before compaction, got %d", before.Segments)
	}
	s.Compact()
	after := s.Snapshot().Stats()
	if after.Segments != 1 {
		t.Fatalf("expected 1 segment after compaction, got %d", after.Segments)
	}
	if after.Superseded == 0 {
		t.Fatal("compaction should have dropped the superseded sample")
	}
	// The merged view answers identically.
	h2 := s.Snapshot().History(netip.MustParseAddr("192.0.2.1"))
	if !reflect.DeepEqual(h, h2) {
		t.Fatalf("history changed across compaction:\n%+v\n%+v", h, h2)
	}
}

func TestAddBeforeBeginCampaign(t *testing.T) {
	s := mustOpen(t, Options{})
	defer s.Close()
	if err := s.Add(mkObs("192.0.2.1", engID(9, 1, 2, 3, 4), 1, 1, t0)); err != ErrNoCampaign {
		t.Fatalf("got %v, want ErrNoCampaign", err)
	}
}

// TestIncrementalAliasMatchesBatchSynthetic drives the adversarial corners:
// promiscuous bodies (including promiscuity appearing and disappearing via
// supersedes), invalid timeliness, IPs missing from one campaign.
func TestIncrementalAliasMatchesBatchSynthetic(t *testing.T) {
	idA := engID(9, 0xAA, 0xBB, 0xCC, 0xDD)    // cisco
	idB := engID(2636, 0x11, 0x22, 0x33, 0x44) // juniper
	// Promiscuous pair: same body, different enterprises.
	idP1 := engID(9, 0xEE, 0xEE, 0xEE, 0xEE)
	idP2 := engID(2636, 0xEE, 0xEE, 0xEE, 0xEE)
	day := 24 * time.Hour

	c1 := mkCampaign(
		mkObs("192.0.2.1", idA, 2, 1000, t0),
		mkObs("192.0.2.2", idA, 2, 1000, t0), // alias of .1
		mkObs("192.0.2.3", idB, 5, 500, t0),
		mkObs("192.0.2.4", idP1, 1, 100, t0),
		mkObs("192.0.2.5", idP2, 1, 100, t0),
		mkObs("192.0.2.6", idB, 0, 0, t0),    // zero boots/time: filtered
		mkObs("192.0.2.7", idA, 2, 1000, t0), // silent in campaign 2
	)
	c2 := mkCampaign(
		mkObs("192.0.2.1", idA, 2, 1000+86400, t0.Add(day)),
		mkObs("192.0.2.2", idA, 2, 1000+86400, t0.Add(day)),
		mkObs("192.0.2.3", idB, 5, 500+86400, t0.Add(day)),
		mkObs("192.0.2.4", idP1, 1, 100+86400, t0.Add(day)),
		mkObs("192.0.2.5", idP2, 1, 100+86400, t0.Add(day)),
		mkObs("192.0.2.6", idB, 0, 0, t0.Add(day)),
		mkObs("192.0.2.8", idB, 9, 50, t0.Add(day)), // new in campaign 2
	)

	s := mustOpen(t, Options{FlushThreshold: 3})
	defer s.Close()
	if _, err := s.Ingest(context.Background(), c1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), c2); err != nil {
		t.Fatal(err)
	}

	v := s.Snapshot()
	wantSets, wantVendors := batchSets(c1, c2)
	if got, want := mustJSON(t, v.AliasSets()), mustJSON(t, wantSets); got != want {
		t.Fatalf("alias sets diverge from batch:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, v.Vendors()), mustJSON(t, wantVendors); got != want {
		t.Fatalf("vendor tally diverges from batch:\n got %s\nwant %s", got, want)
	}

	// Supersede away the promiscuity: .5 now reports a clean engine ID, so
	// the body shared with .4 stops being promiscuous and .4's set must
	// reappear — the batch pipeline agrees when fed the corrected campaign.
	fix := mkObs("192.0.2.5", idB, 9, 50, t0.Add(day))
	if err := s.Add(fix); err != nil {
		t.Fatal(err)
	}
	c2.ByIP[fix.IP] = fix
	wantSets, wantVendors = batchSets(c1, c2)
	v = s.Snapshot()
	if got, want := mustJSON(t, v.AliasSets()), mustJSON(t, wantSets); got != want {
		t.Fatalf("after supersede, alias sets diverge:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, v.Vendors()), mustJSON(t, wantVendors); got != want {
		t.Fatalf("after supersede, vendors diverge:\n got %s\nwant %s", got, want)
	}
}

func runSimCampaign(t testing.TB, w *netsim.World, day int, seed int64) *core.Campaign {
	t.Helper()
	w.Clock.Set(w.Cfg.StartTime.Add(time.Duration(day) * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
		Rate: 50000, Batch: 256, Clock: w.Clock, Seed: seed, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.Collect(res)
}

// TestIncrementalAliasMatchesBatchNetsim is the acceptance check: over two
// simulated-Internet campaigns, the store's incrementally maintained alias
// sets and vendor tallies are byte-identical to the batch pipeline, and the
// reconstructed timelines match tracker.Build.
func TestIncrementalAliasMatchesBatchNetsim(t *testing.T) {
	w := netsim.Generate(netsim.TinyConfig(7))
	c1 := runSimCampaign(t, w, 15, 101)
	c2 := runSimCampaign(t, w, 21, 102)
	if len(c1.ByIP) == 0 || len(c2.ByIP) == 0 {
		t.Fatal("empty sim campaigns")
	}

	s := mustOpen(t, Options{FlushThreshold: 512})
	defer s.Close()
	if _, err := s.Ingest(context.Background(), c1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), c2); err != nil {
		t.Fatal(err)
	}
	v := s.Snapshot()

	wantSets, wantVendors := batchSets(c1, c2)
	if len(wantSets) == 0 {
		t.Fatal("batch pipeline found no alias sets; world too small")
	}
	if got, want := mustJSON(t, v.AliasSets()), mustJSON(t, wantSets); got != want {
		t.Fatalf("alias sets diverge from batch pipeline\n got %.300s…\nwant %.300s…", got, want)
	}
	if got, want := mustJSON(t, v.Vendors()), mustJSON(t, wantVendors); got != want {
		t.Fatalf("vendor tally diverges from batch pipeline\n got %s\nwant %s", got, want)
	}

	want := tracker.Build([]*core.Campaign{c1, c2})
	for _, ip := range tracker.SortedIPs(want) {
		got := v.Timeline(ip)
		if got == nil {
			t.Fatalf("no timeline for %v", ip)
		}
		if !reflect.DeepEqual(got.Samples, want[ip].Samples) {
			t.Fatalf("timeline %v diverges:\n got %+v\nwant %+v", ip, got.Samples, want[ip].Samples)
		}
	}
}

// TestTimelineFoldMatchesTrackerExtend checks the store against the
// tracker's incremental Extend path across three campaigns with churn.
func TestTimelineFoldMatchesTrackerExtend(t *testing.T) {
	idA := engID(9, 1, 1, 1, 1)
	idB := engID(2636, 2, 2, 2, 2)
	day := 24 * time.Hour
	cs := []*core.Campaign{
		mkCampaign(mkObs("192.0.2.1", idA, 1, 100, t0)),
		mkCampaign(
			mkObs("192.0.2.1", idA, 2, 10, t0.Add(day)),
			mkObs("192.0.2.2", idB, 1, 50, t0.Add(day)),
		),
		mkCampaign(mkObs("192.0.2.2", idB, 1, 50+86400, t0.Add(2*day))),
	}

	s := mustOpen(t, Options{})
	defer s.Close()
	timelines := map[netip.Addr]*tracker.Timeline{}
	for _, c := range cs {
		if _, err := s.Ingest(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		tracker.Extend(timelines, c)
	}
	v := s.Snapshot()
	for ip, want := range timelines {
		got := v.Timeline(ip)
		if got == nil || !reflect.DeepEqual(got.Samples, want.Samples) {
			t.Fatalf("timeline %v: got %+v want %+v", ip, got, want.Samples)
		}
	}
	// And both match the batch tracker.
	built := tracker.Build(cs)
	if !reflect.DeepEqual(built, timelines) {
		t.Fatalf("tracker.Extend fold diverges from Build:\n got %+v\nwant %+v", timelines, built)
	}
}

// TestSnapshotIsolation races ingest, compaction and snapshot queries. Each
// observed view must be internally consistent — its vendor tally must sum
// to its alias-set count, its stats must agree with itself — and versions
// must be monotonic per reader. Run under -race this is the store half of
// the soak requirement.
func TestSnapshotIsolation(t *testing.T) {
	s := mustOpen(t, Options{FlushThreshold: 64, MaxSegments: 3})
	defer s.Close()

	const campaigns = 12
	const ipsPer = 150
	day := 24 * time.Hour

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for c := 0; c < campaigns; c++ {
			s.BeginCampaign()
			at := t0.Add(time.Duration(c) * day)
			for i := 0; i < ipsPer; i++ {
				id := engID(9, byte(i), byte(i>>8), 3, 4)
				o := mkObs(fmt.Sprintf("192.0.%d.%d", i/250, i%250+1), id, 2, int64(1000+c*86400), at)
				if err := s.Add(o); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion, lastIngested uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Snapshot()
				st := v.Stats()
				if st.Version < lastVersion || st.Ingested < lastIngested {
					errs <- fmt.Errorf("snapshot went backwards: %+v after version=%d ingested=%d", st, lastVersion, lastIngested)
					return
				}
				lastVersion, lastIngested = st.Version, st.Ingested
				sum := 0
				for _, vc := range v.Vendors() {
					sum += vc.Devices
				}
				if sum != len(v.AliasSets()) || st.AliasSets != len(v.AliasSets()) {
					errs <- fmt.Errorf("inconsistent view: vendor sum %d, sets %d, stats %d", sum, len(v.AliasSets()), st.AliasSets)
					return
				}
				for _, as := range v.AliasSets() {
					if len(as.IPs) == 0 {
						errs <- fmt.Errorf("empty alias set %+v", as)
						return
					}
				}
				// Spot-check a point query against the view's own set list.
				if len(v.AliasSets()) > 0 {
					as := v.AliasSets()[0]
					if h := v.History(as.IPs[0]); len(h) == 0 {
						errs <- fmt.Errorf("set member %v has no history in same view", as.IPs[0])
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := s.Snapshot().Stats()
	if st.Campaigns != campaigns || st.Ingested != campaigns*ipsPer {
		t.Fatalf("final stats wrong: %+v", st)
	}
}
