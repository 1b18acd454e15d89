// Command e2ebench is the repository's end-to-end benchmark. It runs one of
// three workloads in-process against the public layer functions of the
// analysis (wire, model, engine, the incremental kernel, engine.Warm,
// explore/pareto with its evaluation pool, the server shards and the shard
// router), checks every output, and prints its metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the build script:
//
//	bash e2ebench/run.sh --workload cold-8192 --seed 1 --seconds 20 --trace 0
//
// # Workloads
//
// All three are closed loops: each caller waits for its reply before it
// sends the next request. The callers the analysis has are toolchains and
// optimizers that do exactly that; an open-loop rate sweep waits until a user
// that sends on arrival exists. Load sizes fit a 2-core machine.
//
//   - cold-8192: one sequential caller. Graphs have the paper's shape, 128
//     layers × 64 tasks (n = 8192) on the 16-core/16-bank cluster. A seeded
//     pool of distinct graphs is pre-encoded as wire blobs; one operation is
//     wire.Decode → engine.CompileRaw → a cold incremental Engine.Analyze.
//     This is the paper's "8000+ tasks" use: no cache can help and no HTTP
//     dilutes the result, so kernel and ingest changes show here first.
//   - pareto-384: the configuration of results/pareto_paper.json (24 × 16
//     graph, population 24, 30 generations) at Jobs = 2. One operation is one
//     pareto.Search with search seed = base seed + i. The same kernel runs on
//     a small, cache-resident image 744 times per operation, beside
//     structural recompiles, order fingerprinting, pool fan-out and NSGA-II
//     bookkeeping, so a kernel change tuned for cold-8192's large working set
//     can show a different gain here.
//   - serve-mixed: a shard.Router with default config in front of two
//     server shards (one worker each) on loopback, holding 8 registered
//     graphs of n = 512. Each of two clients repeats a seeded cycle of 7
//     batches by hash, each with 16 distinct same-layer adjacent swaps at
//     uniform positions, then one upload of a never-seen graph as JSON. It is
//     the only workload through HTTP, the caches, warm replay and the router,
//     with reads (warm replay, JSON encode, relay) beside writes (three JSON
//     decodes, a compile, a checkpointed analysis, synchronous replication,
//     and a warm-cache eviction a later batch pays for).
//
// cmd/miaload's batch mix is not used: it sends identity swap pairs at the
// tail of each order, so every item replays almost nothing, and the
// server's per-batch memo answers every item after the first. Neither is
// the traffic the service gets; distinct, uniformly placed swaps keep the
// memo out and replay a realistic suffix.
//
// # Metrics
//
// The untraced run (--trace 0) reports the gated end-to-end metrics. Every
// run has to report the same set, so their names are the workload's own
// metrics under shared names:
//
//	op_ms.p50     cold.graph_ms.p50, pareto.search_ms.p50, serve.batch_ms.p50
//	cpu_ms_per_op process CPU time, all threads, per graph, search or request
//	setup_s       median of several set-ups (generation, encoding, fleet
//	              start, registration, warm-up)
//	peak_rss_mb   median over five stretches of the run of each one's highest
//	              resident set size, which is steadier than one high-water mark
//
// cpu_ms_per_op is the cost of the work without the time a virtual machine's
// hypervisor steals, which on a shared 2-core box is a fifth of the wall
// clock and varies from minute to minute. For the same reason throughput
// (cold.tasks_per_s, pareto.evals_per_s, serve.scenarios_per_s) is printed
// but not gated: it moved by up to a fifth between runs of the same code,
// while the work it measures shows in op_ms.p50 and cpu_ms_per_op.
//
// The human-readable table above the JSON line gives each workload's
// metrics under their own names, with the tail percentiles, which are not
// gated: a pareto-384 run has too few searches for a tail. A percentile
// above the median is reported only with at least ten samples beyond it, so
// p90 needs 100 samples and p95 needs 200; a smaller sample reports the
// highest of p95, p90 and p75 it has, and the median is always reported with
// its count. failed_ratio is the JSON line's failed count over attempted.
//
// serve-mixed generates its upload pool once and adds that to the median
// fleet set-up. The shards listen on fixed loopback ports, because the
// router's ring hashes their URLs, and the registered graphs are picked in
// seed order so each shard is the primary of half of them: graph placement,
// and with it the queueing the two clients meet, is then the same from run
// to run.
//
// The traced run (--trace 1) alternates untraced and traced windows and
// derives the per-layer metrics from spans
// the benchmark records around its own calls into each layer and around
// wrapped server and router handlers; nothing inside the program changes.
// Spans stay in memory and are written once, at the end, as Chrome
// trace-event JSON (--trace-out). The two kinds of window give
// trace.overhead_pct; the runtime counters come from the untraced ones.
// Per-layer metrics of a layer that is not on a workload's path read 0.
//
// Router self time is an aggregate: the sum of router handler spans minus
// the sum of the shard handler spans they caused, divided by the requests.
// The router does not forward a request id to the shards, so no single
// request's shard span can be matched to its router span; the client and
// router spans of one request do share an id.
//
// Shadow measurements are calls the benchmark makes itself, after the load,
// on the same inputs the clients sent: model.ReadJSON, engine.Compile and a
// checkpointed Warm.Analyze on the uploaded bodies, and apply → Reschedule
// → undo through engine.Warm on the sent scenarios. They time the layer in
// isolation on one goroutine, without the queueing, HTTP, contention and
// cache state of the served request, so they say how much of a served
// request a layer could explain, not how much it did; the residual
// shard.residual_ms.batch is labelled as such.
//
// # Checks
//
// Any mismatch is a failed operation and makes the command exit nonzero:
// every cold schedule is sched.Check'ed or bit-identical to a checked one;
// the Pareto check pass reproduces results/pareto_paper.json byte for byte
// and the same front fingerprint at Jobs 1 and 2; every served line is 200,
// every batch has exactly one complete trailer, every upload's hash is the
// local fingerprint, every 16th served scenario equals an in-process
// Warm.AnalyzeCold of the same orders, and the router streamed exactly the
// lines the clients asked for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []metricDef{
	{"op_ms.p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []metricDef{
	{"wire.decode_ms", "ms"},
	{"engine.compile_ms", "ms"},
	{"kernel.analyze_ms", "ms"},
	{"kernel.events", "count"},
	{"kernel.ns_per_event", "ns"},
	{"check.ms", "ms"},
	{"pareto.evaluations", "count"},
	{"pareto.front_size", "count"},
	{"pareto.front_updates", "count"},
	{"pareto.jobs1_search_ms", "ms"},
	{"pool.parallel_efficiency", "ratio"},
	{"kernel.analyze_ms.n384", "ms"},
	{"engine.compile_ms.n384", "ms"},
	{"engine.fingerprint_orders_us", "us"},
	{"pareto.kernel_share_est", "ratio"},
	{"router.self_ms.batch", "ms"},
	{"router.self_ms.upload", "ms"},
	{"shard.batch_ms", "ms"},
	{"shard.analyze_ms", "ms"},
	{"shard.analyze_per_upload", "count"},
	{"model.json_decode_ms", "ms"},
	{"engine.compile_ms.n512", "ms"},
	{"warm.baseline_ms", "ms"},
	{"warm.reschedule_us.p50", "us"},
	{"warm.reschedule_us.p95", "us"},
	{"shard.residual_ms.batch", "ms"},
	{"server.warm_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"router.retries", "count"},
	{"router.no_shard", "count"},
	{"router.lines_streamed", "count"},
	{"client.batch_kb", "KiB"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in untraced runs; on only in the traced window
}

// window is one measured stretch of a run.
type window struct {
	d      time.Duration
	traced bool
}

// tracedWindows is the number of alternating untraced and traced windows
// a traced run is split into. Alternating, rather than one half each, keeps
// drift in the machine's speed out of trace.overhead_pct.
const tracedWindows = 8

// windows splits the run: all of it untraced, or for a traced run
// alternating untraced and traced windows.
func (c *config) windows() []window {
	if c.tr == nil {
		return []window{{c.seconds, false}}
	}
	ws := make([]window, tracedWindows)
	for i := range ws {
		ws[i] = window{c.seconds / tracedWindows, i%2 == 1}
	}
	return ws
}

// row is one human-readable result line under the workload's own name.
type row struct {
	name  string
	value float64
	unit  string
	note  string
	err   error // set when the value is refused (percentile floor)
}

// fact is an exact count or digest, printed on every run so that two runs
// of one seed can be compared exactly.
type fact struct{ name, value string }

// report collects one workload run's results.
type report struct {
	attempted, failed int
	problems          []string

	op     sample        // operation times in the untraced windows
	work   float64       // work units done in the untraced windows
	wall   time.Duration // untraced windows' wall time
	setup  float64       // median set-up seconds
	rss    float64       // peak resident set size, MiB
	rows   []row
	facts  []fact
	layer  map[string]float64
	spans  []span
	traced sample // operation times in the traced windows

	// process counters summed over the untraced windows
	cpu                  time.Duration
	allocBytes, gcCycles uint64
	rtOps                int
}

func newReport() *report { return &report{layer: map[string]float64{}} }

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) fact(name string, format string, args ...any) {
	r.facts = append(r.facts, fact{name, fmt.Sprintf(format, args...)})
}

func (r *report) row(name string, v float64, unit, note string) {
	r.rows = append(r.rows, row{name: name, value: v, unit: unit, note: note})
}

// tailRow adds the percentile q of s under prefix.pNN. When the sample is
// too small for q it reports the highest lower percentile of p95, p90 and
// p75 that has the samples, and says so.
func (r *report) tailRow(prefix string, s sample, q float64) {
	name := func(q float64) string { return fmt.Sprintf("%s.p%d", prefix, int(q*100+0.5)) }
	v, err := s.percentile(q)
	if err == nil {
		r.rows = append(r.rows, row{name: name(q), value: v, unit: "ms", note: fmt.Sprintf("n=%d", len(s))})
		return
	}
	for _, lower := range []float64{0.95, 0.90, 0.75} {
		if lower >= q {
			continue
		}
		if v, lerr := s.percentile(lower); lerr == nil {
			r.rows = append(r.rows, row{name: name(lower), value: v, unit: "ms",
				note: fmt.Sprintf("n=%d; %s %v", len(s), name(q), err)})
			return
		}
	}
	r.rows = append(r.rows, row{name: name(q), unit: "ms", err: err})
}

// common adds the rows every workload has.
func (r *report) common() {
	r.row("cpu_ms_per_op", r.cpuPerOp(), "ms", fmt.Sprintf("process CPU time over %d operations", r.rtOps))
	r.row("setup_s", r.setup, "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	r.row("failed_ratio", ratio, "failed/attempted", fmt.Sprintf("%d/%d", r.failed, r.attempted))
	r.row("peak_rss_mb", r.rss, "MiB", fmt.Sprintf("median of %d stretches' highest RSS; run high-water %.1f", rssStretches, maxRSSMiB()))
}

// overhead sets trace.overhead_pct from the two halves of a traced run.
func (r *report) overhead() {
	if u, t := r.op.median(), r.traced.median(); u > 0 && t > 0 {
		r.layer["trace.overhead_pct"] = (t - u) / u * 100
	}
}

// timedSetup runs setup setupRepeats times, closes all but the last result
// and returns it with the median set-up time in seconds.
func timedSetup[T any](setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		last T
		ts   sample
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeFn(last)
			var zero T
			last = zero // let the collector have it before the next set-up
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ts.add(time.Since(start))
		last = v
	}
	return last, ts.median() / 1e3, nil
}

// counters are the cumulative process counters a window is measured by.
type counters struct {
	at                   time.Time
	cpu                  time.Duration // user + system time of every thread
	allocBytes, gcCycles uint64
}

func readCounters() counters {
	c := counters{at: time.Now(), cpu: processCPU()}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	c.allocBytes, c.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64()
	return c
}

// processCPU is the CPU time the process has used, all threads together.
// Time the hypervisor steals from the machine is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// untracedWindow accounts one untraced window that began with counters c
// and ran ops operations.
func (r *report) untracedWindow(c counters, ops int) {
	now := readCounters()
	r.wall += now.at.Sub(c.at)
	r.cpu += now.cpu - c.cpu
	r.allocBytes += now.allocBytes - c.allocBytes
	r.gcCycles += now.gcCycles - c.gcCycles
	r.rtOps += ops
}

// cpuPerOp is the process CPU time per operation of the untraced windows.
func (r *report) cpuPerOp() float64 {
	if r.rtOps == 0 {
		return 0
	}
	return ms(r.cpu) / float64(r.rtOps)
}

// runtimeLayer sets the Go runtime's per-layer metrics from the untraced
// windows' counters.
func (r *report) runtimeLayer() {
	if r.rtOps > 0 {
		r.layer["runtime.alloc_mb_per_op"] = float64(r.allocBytes) / float64(r.rtOps) / (1 << 20)
	}
	r.layer["runtime.gc_cycles"] = float64(r.gcCycles)
}

// rssSampler records the process's resident set size every rssEvery while
// a workload runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB, in time order
}

const (
	rssEvery     = 10 * time.Millisecond
	rssStretches = 5
)

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if v, ok := currentRSSMiB(); ok {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the median, over rssStretches equal
// stretches of the run, of each stretch's highest sample. One high-water
// mark over the whole run swings with where a collection happens to land;
// the median of several is steady. Without /proc it falls back to the
// process high-water mark.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	n := len(s.samples)
	if n < rssStretches {
		return maxRSSMiB()
	}
	var peaks sample
	for i := 0; i < rssStretches; i++ {
		hi := 0.0
		for _, v := range s.samples[i*n/rssStretches : (i+1)*n/rssStretches] {
			hi = math.Max(hi, v)
		}
		peaks = append(peaks, hi)
	}
	return peaks.median()
}

// currentRSSMiB reads the resident set size from /proc/self/statm.
func currentRSSMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), true
}

// maxRSSMiB is the process's high-water resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(context.Context, *config, *report) error{
	"cold-8192":   runCold,
	"pareto-384":  runPareto,
	"serve-mixed": runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the flags, runs the workload and prints its results. It returns
// 2 for bad flags, 1 when the workload could not run or an output check
// failed, and 0 otherwise. A workload that could not run prints no result.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "seconds to measure")
		traced   = fs.Int("trace", 0, "1 measures half the run traced and reports per-layer metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if workloads[*name] == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "env: %s nproc=%d GOMAXPROCS=%d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var (
		all      []*report
		combined = map[string]any{}
	)
	for _, n := range names {
		cfg := &config{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		if *traced == 1 {
			cfg.tr = newTracer()
		}
		rep := newReport()
		fmt.Fprintf(stdout, "workload %s seed=%d seconds=%d trace=%d\n", n, *seed, *seconds, *traced)
		rss := startRSS()
		err := workloads[n](ctx, cfg, rep)
		rep.rss = rss.peak()
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", n, err)
			return 1
		}
		rep.common()
		rep.runtimeLayer()
		printReport(stdout, rep, cfg.tr != nil)
		if cfg.tr != nil {
			path := *traceOut
			if path == "" || len(names) > 1 {
				path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", n, *seed))
			}
			if err := writeChrome(path, rep.spans); err != nil {
				fmt.Fprintln(stderr, "e2ebench: writing trace:", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(rep.spans), path)
		}
		all = append(all, rep)
		for k, v := range resultMetrics(rep, cfg.tr != nil, len(names) > 1) {
			if len(names) > 1 {
				k = n + "/" + k
			}
			combined[k] = v
		}
	}

	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{Correct: true, Metrics: combined}
	for _, r := range all {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// checkRoot makes sure the benchmark runs from the repository root, whose
// committed Pareto front it reproduces.
func checkRoot() error {
	if _, err := os.Stat(paretoGolden); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics is the "metrics" object of the JSON line: the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one. With
// named set (several workloads in one command) it holds the workload's own
// end-to-end rows instead.
func resultMetrics(r *report, traced, named bool) map[string]any {
	m := map[string]any{}
	switch {
	case named:
		for _, rw := range r.rows {
			if rw.err == nil {
				m[rw.name] = jsonMetric{rw.value, rw.unit}
			}
		}
	case traced:
		for _, d := range layerMetrics {
			m[d.name] = jsonMetric{r.layer[d.name], d.unit}
		}
	default:
		vals := map[string]float64{
			"op_ms.p50":     r.op.median(),
			"cpu_ms_per_op": r.cpuPerOp(),
			"setup_s":       r.setup,
			"peak_rss_mb":   r.rss,
		}
		for _, d := range e2eMetrics {
			m[d.name] = jsonMetric{vals[d.name], d.unit}
		}
	}
	return m
}

func printReport(w io.Writer, r *report, traced bool) {
	for _, f := range r.facts {
		fmt.Fprintf(w, "exact %s = %s\n", f.name, f.value)
	}
	fmt.Fprintln(w, "end-to-end (untraced window):")
	for _, rw := range r.rows {
		if rw.err != nil {
			fmt.Fprintf(w, "  %-26s %14s %-16s %s\n", rw.name, "refused", rw.unit, rw.err)
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-16s %s\n", rw.name, rw.value, rw.unit, rw.note)
	}
	if traced {
		fmt.Fprintln(w, "per-layer (traced window; 0 = layer not on this workload's path):")
		for _, d := range layerMetrics {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, r.layer[d.name], d.unit)
		}
		fmt.Fprintln(w, "spans:")
		printSpanSummary(w, r.spans)
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(w, "FAIL ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(w, "FAIL", p)
	}
}
