package main

import (
	"context"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 9, ok: false}, // even the median has fewer than 10 beyond
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true}, // p99 leaves 9 beyond
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 9999, p: 99, beyond: 99, ok: true}, // p99.9 leaves 9 beyond
		{n: 10000, p: 99.9, beyond: 10, ok: true},
		{n: 100000, p: 99.99, beyond: 10, ok: true},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 99.5: 100, 1: 1, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20,30): covered once.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A child contained in another child's interval adds nothing.
		{ID: 4, Parent: 1, Name: "b", Start: 25 * ms, End: 35 * ms},
		// A child outliving its parent is clipped at the parent's end.
		{ID: 5, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is charged to its own parent only.
		{ID: 6, Parent: 2, Name: "g", Start: 12 * ms, End: 16 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100*ms - 30*ms - 10*ms, // covered: [10,40) and [90,100)
		"a":    20*ms - 4*ms,
		"b":    30 * ms, // no children
		"c":    30 * ms,
		"g":    4 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerParentsAndPasses(t *testing.T) {
	tr := newTracer(7)
	root := tr.root(3, "bench.pass")
	child := root.childLabel("serve.http", "ip")
	child.end()
	root.end()
	end := tr.passSpans(3)[0].End
	time.Sleep(time.Millisecond)
	root.end() // a second end must not move the first
	if got := tr.passSpans(3)[0].End; got != end {
		t.Errorf("second end moved the span's end from %v to %v", end, got)
	}
	other := tr.root(4, "bench.pass")
	other.end()
	spans := tr.passSpans(3)
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Label != "ip" || spans[0].Trace != 7 {
		t.Fatalf("pass 3 spans = %+v", spans)
	}
	var inert spanRef
	inert.child("x").end() // a nil tracer records nothing and must not panic
	if (*tracer)(nil).root(1, "x") != (spanRef{}) {
		t.Error("nil tracer returned a live span")
	}
}

// TestOpenLoopLateness stalls one request and checks that every request
// due during the stall is charged the wait from its due time, not from
// when the worker got to it.
func TestOpenLoopLateness(t *testing.T) {
	const interval = time.Millisecond
	const stall = 40 * time.Millisecond
	stop := make(chan struct{})
	start := time.Now()
	var stallEnd time.Time
	sent := 0
	res := runOpenLoop(start, interval, 60, stop, func(i int) error {
		sent++
		if i == 5 {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return nil
	})
	if len(res.lat) != 60 || len(res.lag) != 60 || sent != 60 || res.failed != 0 {
		t.Fatalf("completed %d, released %d, sent %d, failed %d; want 60 each and 0 failed", len(res.lat), len(res.lag), sent, res.failed)
	}
	for i := 5; i < 60; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(stallEnd) {
			break
		}
		if min := stallEnd.Sub(due); res.lat[i] < min {
			t.Errorf("request %d latency %v, want >= %v (due during the stall)", i, res.lat[i], min)
		}
	}
	for i, l := range res.lag {
		if l < 0 {
			t.Errorf("request %d released %v before it was due", i, -l)
		}
	}
}

func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	res := runOpenLoop(time.Now().Add(time.Hour), time.Second, 10, stop, func(int) error { return nil })
	if len(res.lat) != 0 {
		t.Errorf("released %d requests after stop", len(res.lat))
	}
}

func testKeys() []hotKey {
	var keys []hotKey
	for i := 0; i < 500; i++ {
		keys = append(keys, hotKey{ip: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), engineID: []byte{0x80, byte(i)}})
	}
	return keys
}

func inTen(a netip.Addr) bool { return a.As4()[0] == 10 }

func TestGenQueriesDeterministic(t *testing.T) {
	keys := testKeys()
	a := genQueries(42, 5000, keys, inTen)
	b := genQueries(42, 5000, keys, inTen)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different query sequences")
	}
	if reflect.DeepEqual(a, genQueries(43, 5000, keys, inTen)) {
		t.Fatal("different seeds gave the same query sequence")
	}
	for _, q := range a {
		if q.kind == qMiss {
			addr := netip.MustParseAddr(q.path[len("/v1/ip/"):])
			if inTen(addr) {
				t.Fatalf("miss %s names a seen address", addr)
			}
		}
	}
}

func TestQueryMixAndZipf(t *testing.T) {
	const n = 100000
	qs := genQueries(1, n, testKeys(), inTen)
	var counts [numKinds]int
	hits := map[string]int{}
	for _, q := range qs {
		counts[q.kind]++
		if q.kind == qHit {
			hits[q.path]++
		}
	}
	for k := queryKind(0); k < numKinds; k++ {
		got := float64(counts[k]) / n * 100
		if math.Abs(got-float64(queryMix[k])) > 0.7 {
			t.Errorf("kind %d share %.2f%%, want %d%%", k, got, queryMix[k])
		}
	}
	// Zipf popularity: the hottest key takes far more than a uniform share.
	top := 0
	for _, c := range hits {
		top = max(top, c)
	}
	if uniform := counts[qHit] / len(testKeys()); top < 20*uniform {
		t.Errorf("hottest key drew %d hits, uniform share is %d", top, uniform)
	}
	total := 0
	for _, p := range queryMix {
		total += p
	}
	if total != 100 {
		t.Errorf("query mix sums to %d%%", total)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("BENCHMARK.json has %d %s metrics, program reports %d", len(got), what, len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestFusionResetRestoresInputs checks that a reset world starts again at
// scan epoch 0, so every fusion pass sweeps the same inputs.
func TestFusionResetRestoresInputs(t *testing.T) {
	b := &bench{ctx: context.Background(), seed: 1, dir: t.TempDir(), workload: "fusion"}
	pl, err := setupFusion(b, b.newPass(-1, false, "bench.setup"))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.close()
	f := pl.(*fusionPipeline)
	f.w.BeginScan()
	if err := f.reset(b); err != nil {
		t.Fatal(err)
	}
	if e := f.w.ScanEpoch(); e != 0 {
		t.Errorf("scan epoch after reset = %d, want 0", e)
	}
}
