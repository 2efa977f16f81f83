// Command perfbench is the repository's end-to-end pipeline benchmark. It
// runs one named workload against the program built from this checkout,
// checks the workload's outputs, reconciles its own counts with the
// program's obs registry, and prints one JSON result as its last line of
// standard output:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run alternates untraced and traced passes, records a span around
// every call the benchmark makes into a layer of the program, and reports
// the per-layer metrics instead. --workload all runs every workload in
// turn. BENCHMARK.json lists the workloads and metrics; README.md in this
// directory maps each layer metric to the end-to-end metric it moves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports: figures a user of
// the pipeline sees, each measurable (and never zero) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"peak_rss_mb", "MB"},
}

// workload is one named set of inputs and the pipeline run over them.
type workload struct {
	name string
	// setup builds the world, the inputs and the program's components.
	// It runs several times per run; only the last result is kept.
	setup func(b *bench, p *pass) (pipeline, error)
}

// pipeline is a set-up workload, ready to run timed passes.
type pipeline interface {
	// pass runs the timed pipeline once, calls p.finish when it ends and
	// then checks its outputs.
	pass(p *pass) error
	// reset replaces the components a pass consumed (stores it filled) by
	// fresh ones; it is not timed.
	reset(b *bench) error
	// close releases everything the pipeline holds.
	close() error
}

var workloads = []workload{
	{"campaign", setupCampaign},
	{"ingest_query", setupIngestQuery},
	{"fusion", setupFusion},
	{"fleet", setupFleet},
}

// A run sets its workload up at least minSetups times, and keeps setting
// it up until setupBudget has passed (at most maxSetups times): setup_s is
// the median, so one slow generation does not move it, and workloads whose
// set-up takes milliseconds get enough repetitions to be steady (fusion's
// 25 ms set-up ranges over 18-36 ms within one process).
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 1500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload to run: campaign, ingest_query, fusion, fleet or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long one run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	root := flag.String("root", ".", "checkout the benchmark runs in; scratch files go under its .bench_build directory")
	flag.Parse()

	var chosen []workload
	for _, wl := range workloads {
		if *name == wl.name || *name == "all" {
			chosen = append(chosen, wl)
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s|all}, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)

	var results []result
	for _, wl := range chosen {
		b := &bench{ctx: context.Background(), seed: *seed, dir: scratch, workload: wl.name}
		res, err := b.run(wl, time.Duration(*seconds)*time.Second, *traceFlag == 1)
		if err != nil {
			os.RemoveAll(scratch)
			fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		printMeta(b, *seed)
		results = append(results, res)
	}
	out := results[0]
	if len(results) > 1 {
		out = combine(chosen, results)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, "|")
}

// combine merges the results of --workload all into one line, each
// metric prefixed with its workload's name.
func combine(wls []workload, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			out.Metrics[wls[i].name+"."+k] = m
		}
	}
	return out
}

// bench is the state of one workload run.
type bench struct {
	ctx      context.Context
	seed     int64
	dir      string
	workload string
	// tr is the run's tracer, nil in untraced runs.
	tr *tracer
	// scale describes the world the workload generated, for the metadata.
	scale string
	// queryRate is the offered query rate, 0 where no queries run.
	queryRate float64

	attempted, failed int64
}

// check counts one output check and reports a failure on stderr.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops counts operations other than checks (queries, leases) and how many
// of them failed.
func (b *bench) ops(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// scratchDir returns a fresh directory under the run's scratch space.
func (b *bench) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, b.workload+"-"+prefix+"-")
}

// pass is one timed pass (or one setup) and the figures it produced.
type pass struct {
	bench  *bench
	n      int
	traced bool
	root   spanRef
	// wall is the pipeline's wall time, set by the workload through finish.
	wall time.Duration
	// layer holds per-layer figures, reported from traced passes.
	layer map[string]float64
	// figures holds workload figures (latencies, throughputs) that the
	// trace run reports from its untraced passes.
	figures map[string]float64
	// peakRSS is the highest resident set size sampled during the pass,
	// in MiB.
	peakRSS float64
	// queryLatUs holds the pass's open-loop query latencies; the trace run
	// pools those of its untraced passes before taking percentiles.
	queryLatUs []float64
}

func (b *bench) newPass(n int, traced bool, rootName string) *pass {
	p := &pass{bench: b, n: n, traced: traced, layer: map[string]float64{}, figures: map[string]float64{}}
	if traced {
		p.root = b.tr.root(n, rootName)
	}
	return p
}

// finish ends the timed pipeline that began at start: it sets the pass's
// wall time and closes its root span, so the root covers exactly what
// pipeline_s measures and not the output checks that follow.
func (p *pass) finish(start time.Time) {
	p.wall = time.Since(start)
	p.root.end()
}

// timed runs fn inside a span under the pass root and returns its wall
// time.
func (p *pass) timed(name string, fn func()) time.Duration {
	return p.timedLabel(name, "", fn)
}

func (p *pass) timedLabel(name, label string, fn func()) time.Duration {
	sp := p.root.childLabel(name, label)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

// allocated runs fn and returns the bytes the process allocated meanwhile;
// it measures only in traced passes (reading the heap statistics stops the
// world), returning 0 otherwise.
func (p *pass) allocated(fn func()) uint64 {
	if !p.traced {
		fn()
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

func (p *pass) add(name string, v float64) { p.layer[name] += v }
func (p *pass) set(name string, v float64) { p.layer[name] = v }

// minPasses is the least number of timed passes per run: a traced run
// needs one untraced and one traced pass to measure its own overhead.
func minPasses(traced bool) int {
	if traced {
		return 2
	}
	return 1
}

// run sets the workload up setupReps times, then runs timed passes until
// the measuring time is spent, and reduces them to the run's metrics.
func (b *bench) run(wl workload, measure time.Duration, traced bool) (result, error) {
	if traced {
		b.tr = newTracer(uint64(time.Now().UnixNano()) ^ uint64(b.seed)<<32)
	}
	var (
		pl        pipeline
		setupS    []float64
		setupPass []*pass
	)
	setupStart := time.Now()
	for k := 0; k < minSetups || (k < maxSetups && time.Since(setupStart) < setupBudget); k++ {
		if pl != nil {
			if err := pl.close(); err != nil {
				return result{}, err
			}
		}
		debug.FreeOSMemory()
		p := b.newPass(-1-k, traced, "bench.setup")
		t0 := time.Now()
		var err error
		pl, err = wl.setup(b, p)
		d := time.Since(t0)
		p.root.end()
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if traced {
			addSelfTimes(p, b.tr)
		}
		setupPass = append(setupPass, p)
	}

	var passes []*pass
	start := time.Now()
	for n := 0; n < minPasses(traced) || time.Since(start) < measure; n++ {
		if n > 0 {
			if err := pl.reset(b); err != nil {
				return result{}, fmt.Errorf("reset: %w", err)
			}
		}
		// Every pass starts from a collected heap returned to the kernel, so
		// its resident peak is its own.
		debug.FreeOSMemory()
		// A traced run alternates untraced and traced passes, so both see
		// the same warm-up and the difference is the tracing overhead.
		p := b.newPass(n, traced && n%2 == 1, "bench.pass")
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rss := startRSSSampler()
		err := pl.pass(p)
		p.peakRSS = rss.stop()
		runtime.ReadMemStats(&ms1)
		p.root.end() // a no-op unless the pass failed before finish
		b.check(err == nil, "pass %d: %v", n, err)
		if err != nil {
			break
		}
		p.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		p.set("runtime.gc_pause_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9)
		p.set("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if p.traced {
			addSelfTimes(p, b.tr)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d (traced=%v): %.3f s, peak RSS %.0f MB\n", b.workload, n, p.traced, p.wall.Seconds(), p.peakRSS)
		passes = append(passes, p)
	}
	if err := pl.close(); err != nil {
		return result{}, err
	}
	if len(passes) == 0 {
		return result{}, fmt.Errorf("no pass completed")
	}

	res := result{Metrics: map[string]metric{}}
	if traced {
		res.Metrics = b.perLayerMetrics(setupPass, passes)
		if err := b.tr.write(filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed))); err != nil {
			return result{}, err
		}
	} else {
		var walls, peaks []float64
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			peaks = append(peaks, p.peakRSS)
		}
		vals := map[string]float64{"setup_s": median(setupS), "pipeline_s": median(walls), "peak_rss_mb": median(peaks)}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	return res, nil
}

// addSelfTimes turns the pass's spans into <layer>.self_s figures.
func addSelfTimes(p *pass, tr *tracer) {
	for name, d := range selfTimes(tr.passSpans(p.n)) {
		p.set(name+".self_s", d.Seconds())
	}
}

// perLayerMetrics reduces the passes to the per-layer metric set: layer
// figures are medians over traced passes (setup figures over setups),
// workload figures medians over the untraced passes, and every metric is
// present, 0 where the workload does not exercise that layer.
func (b *bench) perLayerMetrics(setups, passes []*pass) map[string]metric {
	vals := map[string][]float64{}
	var tracedWall, plainWall, lat []float64
	for _, p := range passes {
		if p.traced {
			tracedWall = append(tracedWall, p.wall.Seconds())
			for k, v := range p.layer {
				vals[k] = append(vals[k], v)
			}
			continue
		}
		plainWall = append(plainWall, p.wall.Seconds())
		for k, v := range p.figures {
			vals[k] = append(vals[k], v)
		}
		lat = append(lat, p.queryLatUs...)
	}
	for k, v := range queryFigures(lat) {
		vals[k] = []float64{v}
	}
	for _, p := range setups {
		for k, v := range p.layer {
			vals[k] = append(vals[k], v)
		}
	}
	if len(plainWall) > 0 && median(plainWall) > 0 {
		vals["bench.trace_overhead_ratio"] = []float64{median(tracedWall)/median(plainWall) - 1}
	}
	vals["fail_ratio"] = []float64{float64(b.failed) / float64(max(b.attempted, 1))}

	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{median(vals[d.name]), d.unit}
	}
	var unknown []string
	for k := range vals {
		if _, ok := out[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	b.check(len(unknown) == 0, "figures missing from the per-layer metric list: %v", unknown)
	return out
}

// queryFigures summarizes open-loop query latencies, in microseconds from
// each request's due time: median, p99, and the highest percentile with at
// least ten samples beyond it, with the sample count.
func queryFigures(lat []float64) map[string]float64 {
	if len(lat) == 0 {
		return nil
	}
	s := sortedCopy(lat)
	out := map[string]float64{
		"query_p50_us":  percentile(s, 50),
		"query_p99_us":  percentile(s, 99),
		"query_samples": float64(len(s)),
	}
	if pct, _, ok := tailPercentile(len(s)); ok {
		out["query_tail_pct"] = pct
		out["query_tail_us"] = percentile(s, pct)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
