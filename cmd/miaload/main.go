// Command miaload load-tests a running miaserve instance and reports a
// latency histogram — the measurement harness for the serving layer's two
// amortization levers: binary wire ingest (vs graph JSON) and batched edit
// evaluation (vs unary reschedules).
//
// It generates one layered task graph (the paper's evaluation shape),
// registers it with the target server, then drives one of three request
// mixes against it:
//
//	-mode analyze  repeat POST /v1/analyze of the same graph body
//	-mode unary    POST /v1/reschedule, one edit scenario per request
//	-mode batch    POST /v1/batch, -batch edit scenarios per request
//
// Every edit scenario is an identity pair — the same adjacent swap applied
// twice — so the evaluated orders equal the baseline and every scenario is
// schedulable by construction, while the server still pays the full
// apply-replay-undo cost. -wire switches the graph upload from JSON to the
// binary wire format (Content-Type application/x-mia-wire).
//
// Output is a human-readable summary or, with -json, a machine-readable
// report (p50/p95/p99/mean/max latency in milliseconds, throughput,
// response bytes, error count).
//
// Usage:
//
//	miaload -addr http://127.0.0.1:8080 -mode batch -batch 100 -requests 20
//	miaload -addr http://127.0.0.1:8080 -mode unary -wire -requests 200 -concurrency 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/ndjson"
	"github.com/mia-rt/mia/internal/shard"
	"github.com/mia-rt/mia/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miaload:", err)
		os.Exit(1)
	}
}

// report is the -json output shape. Latencies are milliseconds.
type report struct {
	Mode        string  `json:"mode"`
	Wire        bool    `json:"wire"`
	Tasks       int     `json:"tasks"`
	Graphs      int     `json:"graphs,omitempty"`
	Targets     int     `json:"targets,omitempty"`
	Requests    int     `json:"requests"`
	Batch       int     `json:"batch,omitempty"`
	Concurrency int     `json:"concurrency"`
	AnalyzeMs   float64 `json:"analyze_ms"`
	UploadBytes int     `json:"upload_bytes"`
	Latency     struct {
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	ItemsPerSec float64 `json:"items_per_sec"`
	BytesIn     int64   `json:"bytes_in"`
	Errors      int64   `json:"errors"`
	// Saturation-mode accounting: requests the service shed with 429 (plus
	// the Retry-After bounds it advertised) and requests every target
	// answered 503 for (drain). Zero outside -saturate.
	Shed           int64 `json:"shed,omitempty"`
	Drained        int64 `json:"drained,omitempty"`
	RetryAfterMinS int   `json:"retry_after_min_s,omitempty"`
	RetryAfterMaxS int   `json:"retry_after_max_s,omitempty"`
}

// loadGraph is one generated graph's client-side serving state: its upload
// body, canonical fingerprint (the routing key), the server-reported hash,
// and the target order its requests walk (the fingerprint's ring walk in
// -targets mode, or the single -addr base).
type loadGraph struct {
	fp    string
	hash  string
	body  string
	order []string
	sites []swapSite
}

// swapSite is one identity-pair edit location (see package comment).
type swapSite struct{ core, pos int }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("miaload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "base URL of the miaserve instance under test")
		targetsFlag = fs.String("targets", "", "comma-separated shard base URLs: route client-side by fingerprint over their consistent-hash ring, with failover (overrides -addr)")
		mode        = fs.String("mode", "unary", `request mix: "analyze", "unary" or "batch"`)
		useWire     = fs.Bool("wire", false, "upload the graph in binary wire format instead of JSON")
		tasks       = fs.Int("tasks", 512, "generated graph size (layers of 64 tasks on 16 cores)")
		graphs      = fs.Int("graphs", 1, "number of distinct graphs to spread the load over (seeds seed..seed+n-1)")
		requests    = fs.Int("requests", 100, "number of HTTP requests to issue")
		batch       = fs.Int("batch", 32, "edit scenarios per request in batch mode")
		concurrency = fs.Int("concurrency", 4, "concurrent client goroutines")
		seed        = fs.Int64("seed", 1, "graph generator seed")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		saturate    = fs.Bool("saturate", false, "overload mode: count 429/503 as shed/drained outcomes instead of errors, and check Retry-After stays within [1, 30] s")
		asJSON      = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "analyze", "unary", "batch":
	default:
		return fmt.Errorf("unknown -mode %q (want analyze, unary or batch)", *mode)
	}
	if *requests < 1 || *batch < 1 || *concurrency < 1 || *tasks < 64 || *graphs < 1 {
		return fmt.Errorf("need -requests, -batch, -concurrency, -graphs >= 1 and -tasks >= 64")
	}

	// Target fleet: the single -addr base, or the -targets shard list with a
	// client-side ring — the same ring the router builds, so a shard-aware
	// miaload and a router agree on every fingerprint's primary without
	// coordination.
	bases := []string{strings.TrimRight(*addr, "/")}
	var ring *shard.Ring
	if *targetsFlag != "" {
		bases = bases[:0]
		for _, tgt := range strings.Split(*targetsFlag, ",") {
			if tgt = strings.TrimSpace(tgt); tgt != "" {
				bases = append(bases, strings.TrimRight(tgt, "/"))
			}
		}
		if len(bases) == 0 {
			return fmt.Errorf("-targets has no usable URLs")
		}
		ring = shard.NewRing(bases, 0)
	}

	d := &driver{client: &http.Client{Timeout: *timeout}, saturate: *saturate}

	// Generate and register the graphs (measuring the one-time ingest cost).
	// In ring mode each graph is primed on its primary AND its successor —
	// the router's replication policy — so failover requests land on a shard
	// that already holds the image.
	contentType := "application/json"
	if *useWire {
		contentType = "application/x-mia-wire"
	}
	lgs := make([]*loadGraph, *graphs)
	var numTasks int
	var analyzeMs float64
	var primeBytes int64
	for gi := range lgs {
		p := gen.NewParams(*tasks/64, 64)
		p.Seed = *seed + int64(gi)
		g, err := gen.Layered(p)
		if err != nil {
			return err
		}
		var body []byte
		if *useWire {
			body = wire.EncodeGraph(g)
		} else {
			var buf bytes.Buffer
			if err := g.WriteJSON(&buf); err != nil {
				return err
			}
			body = buf.Bytes()
		}
		numTasks = g.NumTasks()
		lg := &loadGraph{fp: g.Fingerprint(), body: string(body), order: bases}
		if ring != nil {
			lg.order = ring.Order(lg.fp)
		}
		// Identity-pair edit scenarios, rotated across the cores that have
		// at least two tasks mapped (a swap needs pos and pos+1).
		for k := 0; k < g.Cores; k++ {
			if ord := g.Order(model.CoreID(k)); len(ord) >= 2 {
				lg.sites = append(lg.sites, swapSite{core: k, pos: len(ord) - 2})
			}
		}
		if len(lg.sites) == 0 {
			return fmt.Errorf("generated graph %d has no core with >= 2 tasks", gi)
		}
		primeTargets := lg.order[:1]
		if ring != nil && len(lg.order) > 1 {
			primeTargets = lg.order[:2]
		}
		// Priming is per-replica best-effort (a dead successor is exactly
		// what failover exists for), but at least one replica must accept
		// the graph or no later request can succeed.
		analyzeStart := time.Now()
		primed := 0
		var lastPrimeErr error
		for _, tgt := range primeTargets {
			hash, n, err := doAnalyze(ctx, d.client, tgt, contentType, body, lg.fp)
			if err != nil {
				lastPrimeErr = err
				continue
			}
			lg.hash = hash
			primeBytes += int64(n)
			primed++
		}
		if primed == 0 {
			return fmt.Errorf("priming analyze of graph %d: no replica accepted it: %w", gi, lastPrimeErr)
		}
		analyzeMs += float64(time.Since(analyzeStart)) / float64(time.Millisecond)
		lgs[gi] = lg
	}

	swapsFor := func(lg *loadGraph, i int) string {
		s := lg.sites[i%len(lg.sites)]
		one := fmt.Sprintf(`{"core":%d,"pos":%d}`, s.core, s.pos)
		return "[" + one + "," + one + "]"
	}
	reqBody := func(i int) (*loadGraph, string, string, string) { // graph, path, contentType, body
		lg := lgs[i%len(lgs)]
		switch *mode {
		case "analyze":
			return lg, "/v1/analyze", contentType, lg.body
		case "unary":
			return lg, "/v1/reschedule", "application/json",
				fmt.Sprintf(`{"hash":%q,"swaps":%s}`, lg.hash, swapsFor(lg, i))
		default: // batch
			items := make([]string, *batch)
			for j := range items {
				items[j] = `{"swaps":` + swapsFor(lg, i**batch+j) + `}`
			}
			return lg, "/v1/batch", "application/json",
				fmt.Sprintf(`{"hash":%q,"items":[%s]}`, lg.hash, strings.Join(items, ","))
		}
	}

	// Drive the load: fixed request count fanned over worker goroutines.
	lat := make([]float64, *requests)
	var errs, bytesIn atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lg, path, ct, rb := reqBody(i)
				start := time.Now()
				nb, err := d.do(ctx, lg, path, ct, rb, *mode == "batch")
				lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
				bytesIn.Add(nb)
				if err != nil {
					errs.Add(1)
				}
			}
		}()
	}
feed:
	for i := 0; i < *requests; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(loadStart)

	rep := report{
		Mode:        *mode,
		Wire:        *useWire,
		Tasks:       numTasks,
		Requests:    *requests,
		Concurrency: *concurrency,
		AnalyzeMs:   analyzeMs,
		UploadBytes: len(lgs[0].body),
		BytesIn:     bytesIn.Load() + primeBytes,
		Errors:      errs.Load(),
	}
	if *graphs > 1 {
		rep.Graphs = *graphs
	}
	if ring != nil {
		rep.Targets = len(bases)
	}
	if *mode == "batch" {
		rep.Batch = *batch
	}
	d.mu.Lock()
	rep.Shed, rep.Drained = d.shed, d.drained
	rep.RetryAfterMinS, rep.RetryAfterMaxS = d.raMin, d.raMax
	d.mu.Unlock()
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	rep.Latency.P50 = quantile(sorted, 0.50)
	rep.Latency.P95 = quantile(sorted, 0.95)
	rep.Latency.P99 = quantile(sorted, 0.99)
	rep.Latency.Max = sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	rep.Latency.Mean = sum / float64(len(sorted))
	items := *requests
	if *mode == "batch" {
		items *= *batch
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ItemsPerSec = float64(items) / secs
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&rep)
	}
	fmt.Fprintf(stdout, "miaload: mode=%s wire=%v tasks=%d requests=%d", rep.Mode, rep.Wire, rep.Tasks, rep.Requests)
	if *mode == "batch" {
		fmt.Fprintf(stdout, " batch=%d", rep.Batch)
	}
	fmt.Fprintf(stdout, " concurrency=%d\n", rep.Concurrency)
	fmt.Fprintf(stdout, "  upload     %d bytes (%s), priming analyze %.2f ms\n", rep.UploadBytes, contentType, rep.AnalyzeMs)
	fmt.Fprintf(stdout, "  latency ms p50=%.3f p95=%.3f p99=%.3f mean=%.3f max=%.3f\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Mean, rep.Latency.Max)
	fmt.Fprintf(stdout, "  throughput %.1f items/s, %d bytes in, %d errors\n", rep.ItemsPerSec, rep.BytesIn, rep.Errors)
	if *saturate {
		fmt.Fprintf(stdout, "  saturation shed=%d drained=%d retry-after=[%d, %d] s\n",
			rep.Shed, rep.Drained, rep.RetryAfterMinS, rep.RetryAfterMaxS)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// driver issues the load requests: per-graph target order with failover
// across shards (connection errors and 503s move to the next replica), and
// saturation accounting when -saturate converts shed responses from errors
// into the measured outcome.
type driver struct {
	client   *http.Client
	saturate bool

	mu           sync.Mutex
	shed         int64
	drained      int64
	raMin, raMax int // observed Retry-After bounds, seconds (0 = none seen)
}

// recordShed accounts one 429, validating the server's Retry-After hint:
// the serving contract promises a bounded hint in [1, 30] seconds, so a
// missing, non-integer, or out-of-range value is a protocol error even in
// saturation mode.
func (d *driver) recordShed(retryAfter string) error {
	secs, err := strconv.Atoi(strings.TrimSpace(retryAfter))
	if err != nil {
		return fmt.Errorf("shed response Retry-After %q is not an integer", retryAfter)
	}
	if secs < 1 || secs > 30 {
		return fmt.Errorf("shed response Retry-After %d s outside [1, 30]", secs)
	}
	d.mu.Lock()
	d.shed++
	if d.raMin == 0 || secs < d.raMin {
		d.raMin = secs
	}
	if secs > d.raMax {
		d.raMax = secs
	}
	d.mu.Unlock()
	return nil
}

// do issues one load request, walking the graph's target order: a
// connection error or 503 moves to the next replica; 429 is terminal (the
// primary's admission verdict — retrying it elsewhere would defeat the
// bounded-load signal) and counts as shed under -saturate. Successful
// responses are validated by readResponse.
func (d *driver) do(ctx context.Context, lg *loadGraph, path, contentType, body string, isBatch bool) (int64, error) {
	var lastErr error
	sawDrain := false
	for _, base := range lg.order {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(wire.RouteHeader, lg.fp)
		resp, err := d.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable, http.StatusBadGateway:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			sawDrain = sawDrain || resp.StatusCode == http.StatusServiceUnavailable
			lastErr = fmt.Errorf("%s: status %d", base, resp.StatusCode)
			continue
		case http.StatusTooManyRequests:
			ra := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !d.saturate {
				return 0, fmt.Errorf("%s: shed (429, Retry-After %q)", base, ra)
			}
			return 0, d.recordShed(ra)
		}
		nb, err := readResponse(resp, isBatch)
		resp.Body.Close()
		return nb, err
	}
	if d.saturate && sawDrain {
		d.mu.Lock()
		d.drained++
		d.mu.Unlock()
		return 0, nil
	}
	return 0, fmt.Errorf("all targets failed: %w", lastErr)
}

// doAnalyze registers the graph on one target and returns its fingerprint.
func doAnalyze(ctx context.Context, client *http.Client, base, contentType string, body []byte, fp string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(wire.RouteHeader, fp)
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("analyze: status %d body %s", resp.StatusCode, rb)
	}
	var r struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(rb, &r); err != nil || r.Hash == "" {
		return "", 0, fmt.Errorf("analyze response has no hash: %s", rb)
	}
	return r.Hash, len(rb), nil
}

// readResponse validates one 200 response's outcome: for batch responses a
// complete (untruncated) NDJSON stream whose every line carries status 200.
func readResponse(resp *http.Response, isBatch bool) (int64, error) {
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return int64(len(rb)), err
	}
	if resp.StatusCode != http.StatusOK {
		return int64(len(rb)), fmt.Errorf("status %d", resp.StatusCode)
	}
	if !isBatch {
		return int64(len(rb)), nil
	}
	return int64(len(rb)), ndjson.CheckBatch(rb)
}

// quantile reads the q-quantile from an ascending sample by the
// nearest-rank definition: index ⌈q·n⌉−1, clamped. The previous
// int(q·(n−1)) truncated the rank downward, so small samples
// underestimated — p99 of two samples reported the minimum. An empty
// sample reports 0 by convention.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
