package scanner_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
)

// TestScanContextCancelMidCampaign cancels a simulated campaign from inside
// a progress callback and asserts (a) every worker shut down — Scan
// returned, no goroutines leaked — and (b) the partial campaign's
// accounting survived in both the Result and the metrics registry.
func TestScanContextCancelMidCampaign(t *testing.T) {
	before := runtime.NumGoroutine()

	w := netsim.Generate(netsim.TinyConfig(7))
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	size := targets.Size()

	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	res, err := scanner.ScanContext(ctx, w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Batch: 64, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: 4, Obs: reg,
		// Cancel from the first progress callback: the campaign is mid-pass
		// with all four workers active.
		ProgressEvery: 64,
		Progress: func(s scanner.Snapshot) {
			if !fired {
				fired = true
				cancel()
			}
		},
	})
	if !fired {
		t.Fatal("progress callback never fired; campaign too small to cancel mid-flight")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign must still return partial accounting")
	}
	if res.Sent == 0 || res.Sent >= size {
		t.Fatalf("partial accounting: sent %d of %d targets", res.Sent, size)
	}
	if got := uint64(reg.Value("snmpfp_scan_probes_sent_total")); got != res.Sent {
		t.Fatalf("metrics sent %d != result sent %d", got, res.Sent)
	}
	if got := reg.Value("snmpfp_scan_inflight_workers"); got != 0 {
		t.Fatalf("in-flight worker gauge %v after shutdown", got)
	}

	// All campaign goroutines (workers, capture, context watcher) must be
	// gone; allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScanContextPreCancelled: a context cancelled before the campaign
// starts sends nothing.
func TestScanContextPreCancelled(t *testing.T) {
	w := netsim.Generate(netsim.TinyConfig(7))
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := scanner.ScanContext(ctx, w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Clock: w.Clock, Seed: 42, Workers: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && res.Sent == targets.Size() {
		t.Fatalf("pre-cancelled campaign completed a full sweep (%d probes)", res.Sent)
	}
}

// TestScanDeterministicWithObservability: attaching a registry must not
// perturb the campaign — results stay byte-identical across worker counts,
// and the deterministic metric families agree between runs. Histograms are
// compared whole (count, sum and every bucket): a sum that follows capture
// order differs in its last bits between two runs at the same worker count.
func TestScanDeterministicWithObservability(t *testing.T) {
	run := func(workers int) (*scanner.Result, *obs.Registry) {
		w := netsim.Generate(netsim.TinyConfig(7))
		w.Cfg.Faults = netsim.FullHostileProfile()
		w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
		w.BeginScan()
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
			Rate: 5000, Batch: 256, Timeout: 8 * time.Second,
			Clock: w.Clock, Seed: 42, Workers: workers, Retries: 1, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}

	baseRes, baseReg := run(1)
	baseHists := scanHistograms(baseReg)
	if h, ok := baseHists["snmpfp_scan_probe_rtt_seconds"]; !ok || h.Count == 0 {
		t.Fatal("baseline campaign observed no RTTs")
	}
	for i, workers := range []int{4, 4} {
		res, reg := run(workers)
		if got, want := resultDigest(res), resultDigest(baseRes); got != want {
			t.Errorf("run %d, workers=%d: result differs with observability enabled\nbase: %s\ngot:  %s",
				i, workers, firstDiff(want, got), firstDiff(got, want))
		}
		// Aggregate counters and the RTT histogram are pure functions of
		// the seed; only per-shard splits may differ across worker counts.
		for _, fam := range []string{
			"snmpfp_scan_probes_sent_total",
			"snmpfp_scan_retries_total",
			"snmpfp_scan_responses_total",
			"snmpfp_scan_offpath_rejected_total",
			"snmpfp_scan_unanswered_total",
		} {
			if got, want := reg.Value(fam), baseReg.Value(fam); got != want {
				t.Errorf("run %d, workers=%d: %s = %v, want %v", i, workers, fam, got, want)
			}
		}
		hists := scanHistograms(reg)
		if len(hists) != len(baseHists) {
			t.Errorf("run %d, workers=%d: %d histogram series, want %d", i, workers, len(hists), len(baseHists))
		}
		for key, want := range baseHists {
			got, ok := hists[key]
			if !ok {
				t.Errorf("run %d, workers=%d: histogram %s missing", i, workers, key)
				continue
			}
			if got.Count != want.Count || got.Sum != want.Sum || !slices.Equal(got.Buckets, want.Buckets) {
				t.Errorf("run %d, workers=%d: histogram %s = count %d sum %v buckets %v, want count %d sum %v buckets %v",
					i, workers, key, got.Count, got.Sum, got.Buckets, want.Count, want.Sum, want.Buckets)
			}
		}
	}
}

// scanHistograms returns the histogram series that must not depend on the
// worker count: the probe RTT histogram and the scan.pass / scan.campaign
// spans, keyed by family name plus label set. The send-batch histogram is
// left out on purpose — how many datagrams one batch carries depends on how
// the space is split across workers.
func scanHistograms(reg *obs.Registry) map[string]obs.Point {
	out := map[string]obs.Point{}
	for _, p := range reg.Snapshot() {
		switch {
		case p.Name == "snmpfp_scan_probe_rtt_seconds",
			p.Name == obs.SpanFamily && (strings.Contains(p.Labels, `span="scan.pass"`) ||
				strings.Contains(p.Labels, `span="scan.campaign"`)):
			out[p.Name+p.Labels] = p
		}
	}
	return out
}
