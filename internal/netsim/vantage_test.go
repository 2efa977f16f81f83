package netsim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"snmpv3fp/internal/scanner"
)

// runViewpointCampaign scans a fresh world at the given viewpoint and
// returns the result. Each call builds its own world so viewpoints never
// share transport or epoch state, exactly as distributed vantage processes
// would not.
func runViewpointCampaign(t *testing.T, seed int64, faults *FaultProfile, viewpoint int) *scanner.Result {
	t.Helper()
	w := Generate(TinyConfig(seed))
	w.Cfg.Faults = DeriveVantageProfile(faults, w.Cfg.Seed, viewpoint)
	w.SetViewpoint(viewpoint)
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Clock: w.Clock, Seed: 42, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestViewpointZeroIsReference pins the compatibility contract: viewpoint 0
// must leave every path draw untouched, so a world that calls
// SetViewpoint(0) produces a campaign byte-identical to one that never
// heard of viewpoints.
func TestViewpointZeroIsReference(t *testing.T) {
	base := FullHostileProfile()
	ref := func() *scanner.Result {
		w := Generate(TinyConfig(3))
		w.Cfg.Faults = FullHostileProfile()
		w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
		w.BeginScan()
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
			Rate: 5000, Clock: w.Clock, Seed: 42, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	got := runViewpointCampaign(t, 3, base, 0)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("viewpoint 0 diverged from the reference path: %d vs %d responses, sent %d vs %d",
			len(ref.Responses), len(got.Responses), ref.Sent, got.Sent)
	}
}

// TestViewpointsDivergeOnPath asserts nonzero viewpoints actually see a
// different path: under a hostile profile the captured responses differ
// from the reference viewpoint's, and two distinct viewpoints differ from
// each other.
func TestViewpointsDivergeOnPath(t *testing.T) {
	base := FullHostileProfile()
	v0 := runViewpointCampaign(t, 3, base, 0)
	v1 := runViewpointCampaign(t, 3, base, 1)
	v2 := runViewpointCampaign(t, 3, base, 2)
	if reflect.DeepEqual(v0.Responses, v1.Responses) {
		t.Error("viewpoint 1 captured the same datagrams as viewpoint 0; path diversity is not taking effect")
	}
	if reflect.DeepEqual(v1.Responses, v2.Responses) {
		t.Error("viewpoints 1 and 2 captured identical datagrams")
	}
	// Re-running a viewpoint must reproduce it exactly: path diversity is
	// deterministic, not random.
	again := runViewpointCampaign(t, 3, base, 1)
	if !reflect.DeepEqual(v1, again) {
		t.Error("viewpoint 1 is not reproducible across runs")
	}
}

// TestViewpointGroundTruthInvariant: on a clean path (no fault layer) every
// viewpoint sees exactly the same set of responding sources — viewpoints
// perturb the path, never the devices behind it.
func TestViewpointGroundTruthInvariant(t *testing.T) {
	v0 := runViewpointCampaign(t, 5, nil, 0)
	v3 := runViewpointCampaign(t, 5, nil, 3)
	srcs := func(r *scanner.Result) map[string]int {
		m := make(map[string]int)
		for _, resp := range r.Responses {
			m[resp.Src.String()]++
		}
		return m
	}
	s0, s3 := srcs(v0), srcs(v3)
	if !reflect.DeepEqual(s0, s3) {
		t.Fatalf("clean-path source sets differ across viewpoints: %d vs %d sources", len(s0), len(s3))
	}
}

func TestDeriveVantageProfile(t *testing.T) {
	if DeriveVantageProfile(nil, 7, 3) != nil {
		t.Error("nil base must derive nil")
	}
	base := FullHostileProfile()
	p0 := DeriveVantageProfile(base, 7, 0)
	if !reflect.DeepEqual(p0, base) {
		t.Errorf("viewpoint 0 profile %+v != base %+v", p0, base)
	}
	if p0 == base {
		t.Error("viewpoint 0 must return a copy, not the base pointer")
	}
	p1 := DeriveVantageProfile(base, 7, 1)
	if reflect.DeepEqual(p1, base) {
		t.Error("viewpoint 1 profile identical to base; scaling is not taking effect")
	}
	if !reflect.DeepEqual(p1, DeriveVantageProfile(base, 7, 1)) {
		t.Error("profile derivation is not deterministic")
	}
	if reflect.DeepEqual(p1, DeriveVantageProfile(base, 8, 1)) {
		t.Error("profile derivation ignores the seed")
	}
	check := func(name string, v float64) {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v out of [0,1]", name, v)
		}
	}
	check("Loss", p1.Loss)
	check("RateLimit", p1.RateLimit)
	check("OffPath", p1.OffPath)
}
