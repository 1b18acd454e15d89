package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/server"
	"github.com/mia-rt/mia/internal/shard"
)

const (
	serveShards                       = 2
	serveGraphs                       = 8
	serveLayers, serveLayerSize       = 8, 64 // n = 512 on the 16-core/16-bank cluster
	serveClients                      = 2
	serveBatches                      = 7 // batches per client cycle, then one upload
	serveItems                        = 16
	serveCheckEvery                   = 16      // every 16th scenario is checked against a cold analysis
	serveUploadsPerSecond             = 4.5     // upload pool size per measured second, both clients (~3.5 are sent)
	serveUploadSeeds                  = 1 << 10 // graph seeds below this are registration candidates
	serveSeedStride             int64 = 1 << 20
)

// serveGraph is one generated graph with its JSON body and fingerprint.
type serveGraph struct {
	g     *model.Graph
	body  []byte
	hash  string
	sites [][]site // same-layer swap sites, for registered graphs
}

func makeServeGraph(seed int64) (serveGraph, error) {
	p := gen.NewParams(serveLayers, serveLayerSize)
	p.Seed = seed
	g, err := gen.Layered(p)
	if err != nil {
		return serveGraph{}, err
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return serveGraph{}, err
	}
	return serveGraph{g: g, body: buf.Bytes(), hash: g.Fingerprint()}, nil
}

// shardPorts are the loopback ports the shards try, shard i the ones at i,
// i+serveShards, .... The router's ring hashes the shard URLs, so fixed ports
// keep graph placement the same from run to run; a port in use falls back
// to the next candidate and, last, to any free port.
var shardPorts = [...]int{23571, 23572, 23581, 23582, 23591, 23592}

// fleet is the in-process serving tier: shards and a router on loopback,
// each handler wrapped by the tracer.
type fleet struct {
	shards []*server.Server
	hss    []*http.Server
	urls   []string // shard base URLs
	router *shard.Router
	url    string // router base URL
	wg     sync.WaitGroup
}

func startFleet(ctx context.Context, tr *tracer) (*fleet, error) {
	f := &fleet{}
	listen := func(h http.Handler, ports ...int) (string, error) {
		var ln net.Listener
		var err error
		for _, port := range append(ports, 0) {
			if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
				break
			}
		}
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		f.hss = append(f.hss, hs)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
		}()
		return "http://" + ln.Addr().String(), nil
	}
	for i := 0; i < serveShards; i++ {
		s := server.New(server.Config{Workers: 1})
		f.shards = append(f.shards, s)
		var ports []int
		for j := i; j < len(shardPorts); j += serveShards {
			ports = append(ports, shardPorts[j])
		}
		u, err := listen(tr.wrap("shard", 100+10*i, s.Handler()), ports...)
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, u)
	}
	r, err := shard.NewRouter(ctx, shard.Config{Targets: f.urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	if f.url, err = listen(tr.wrap("router", 200, r.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the router's listener first, then the shards', and waits for
// every serving goroutine and worker to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.hss) - 1; i >= 0; i-- {
		_ = f.hss[i].Shutdown(ctx) // a timeout leaves nothing to recover here
	}
	f.wg.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
}

// serveState is what set-up produces.
type serveState struct {
	graphs  []serveGraph
	uploads []serveGraph
	next    atomic.Int64 // next upload in the pool
	seed    int64
	fleet   *fleet
	warmup  int // scenarios sent during set-up
}

// nextUpload hands out a never-seen graph: the next one of the pool, or,
// once the pool is spent, a freshly generated one.
func (st *serveState) nextUpload() (serveGraph, bool, error) {
	i := st.next.Add(1) - 1
	if int(i) < len(st.uploads) {
		return st.uploads[i], false, nil
	}
	g, err := makeServeGraph(st.seed*serveSeedStride + serveUploadSeeds + i)
	g.g = nil
	return g, true, err
}

// makeUploads generates the pool of never-seen graphs the clients upload.
// Their seeds start at serveUploadSeeds, above any registered graph's.
// The graphs are independent, so one goroutine per processor makes them.
func makeUploads(seed int64, n int) ([]serveGraph, error) {
	out := make([]serveGraph, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = makeServeGraph(seed*serveSeedStride + serveUploadSeeds + int64(i))
				out[i].g = nil // only the body and hash are sent and checked
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// serveSetup starts a fleet and populates it.
func serveSetup(ctx context.Context, seed int64, uploads []serveGraph, tr *tracer) (*serveState, error) {
	f, err := startFleet(ctx, tr)
	if err != nil {
		return nil, err
	}
	st := &serveState{seed: seed, uploads: uploads, fleet: f}
	if err := st.populate(ctx); err != nil {
		f.close()
		return nil, err
	}
	return st, nil
}

// populate generates the registered graphs, registers them through the
// router and sends one warm-up batch per graph, so each primary holds a warm
// analyzer before the timed window. Graphs are taken in seed order, skipping
// any whose primary shard already holds its share, so every shard is the
// primary of the same number of graphs.
func (st *serveState) populate(ctx context.Context) error {
	seen := map[string]bool{}
	for _, u := range st.uploads {
		seen[u.hash] = true
	}
	ring := shard.NewRing(st.fleet.urls, 0)
	primaries := map[string]int{}
	for i := int64(0); len(st.graphs) < serveGraphs; i++ {
		if i == serveUploadSeeds {
			return fmt.Errorf("no balanced placement among %d graphs", i)
		}
		g, err := makeServeGraph(st.seed*serveSeedStride + i)
		if err != nil {
			return err
		}
		primary := ring.Order(g.hash)[0]
		if seen[g.hash] || primaries[primary] == serveGraphs/serveShards {
			continue
		}
		seen[g.hash] = true
		primaries[primary]++
		if g.sites, err = swapSites(g.g); err != nil {
			return err
		}
		st.graphs = append(st.graphs, g)
	}
	c := newClient(-1, st.seed, st.fleet.url)
	defer c.hc.CloseIdleConnections()
	for i := range st.graphs {
		if err := c.register(ctx, &st.graphs[i]); err != nil {
			return err
		}
	}
	var ws clientStats
	for i := range st.graphs {
		c.batch(ctx, st, i, nil, &ws)
	}
	if len(ws.failures) > 0 {
		return fmt.Errorf("warm-up: %s", ws.failures[0])
	}
	st.warmup = c.scenarios
	return nil
}

// clientStats are one client's results in one window.
type clientStats struct {
	batch, upload sample
	answered      int // scenarios answered 200
	respBytes     int64
	attempted     int
	failures      []string
	lateUploads   int // uploads generated after the pool ran out
}

func (ws *clientStats) fail(format string, args ...any) {
	ws.failures = append(ws.failures, fmt.Sprintf(format, args...))
}

// checkItem is one served scenario kept for the cold comparison.
type checkItem struct {
	graph  int
	s      site
	result []byte
}

// client is one closed-loop caller with its own connection pool.
type client struct {
	idx       int
	rng       *rand.Rand
	hc        *http.Client
	base      string
	seq       uint64
	step      int // position in the batch…batch, upload cycle
	scenarios int // scenarios sent, all windows
	checks    []checkItem
}

func newClient(idx int, seed int64, base string) *client {
	return &client{
		idx:  idx,
		rng:  rand.New(rand.NewSource(seed*1000 + int64(idx) + 1)),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		base: base,
	}
}

// nextID is a request id whose high half names the client.
func (c *client) nextID() uint64 {
	c.seq++
	return uint64(c.idx+2)<<32 | c.seq
}

func (c *client) post(ctx context.Context, path string, body []byte, id uint64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// register uploads a graph to be served by hash and checks the hash.
func (c *client) register(ctx context.Context, g *serveGraph) error {
	status, resp, err := c.post(ctx, "/v1/analyze", g.body, c.nextID())
	if err != nil {
		return err
	}
	return checkUpload(status, resp, g.hash)
}

func checkUpload(status int, resp []byte, want string) error {
	if status != http.StatusOK {
		return fmt.Errorf("upload answered %d: %.200s", status, resp)
	}
	var out struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("upload reply: %v", err)
	}
	if out.Hash != want {
		return fmt.Errorf("upload hash %.16s, local fingerprint %.16s", out.Hash, want)
	}
	return nil
}

func batchBody(hash string, swaps []site) []byte {
	type item struct {
		Swaps []site `json:"swaps"`
	}
	items := make([]item, len(swaps))
	for i, s := range swaps {
		items[i] = item{Swaps: []site{s}}
	}
	b, _ := json.Marshal(struct { // marshaling plain structs cannot fail
		Hash  string `json:"hash"`
		Items []item `json:"items"`
	}{hash, items})
	return b
}

// batch sends one batch of distinct same-layer swaps for graph gi and
// checks the stream: every line 200, each index once, exactly one trailer
// that is done, not truncated and complete.
func (c *client) batch(ctx context.Context, st *serveState, gi int, tr *tracer, ws *clientStats) {
	g := &st.graphs[gi]
	swaps := pickSwaps(c.rng, g.sites, serveItems)
	body := batchBody(g.hash, swaps)
	id := c.nextID()
	ws.attempted++
	start := time.Now()
	status, resp, err := c.post(ctx, "/v1/batch", body, id)
	end := time.Now()
	tr.record("client.batch", id, c.idx+1, start, end)
	first := c.scenarios
	c.scenarios += len(swaps)
	if err != nil {
		ws.fail("batch: %v", err)
		return
	}
	if status != http.StatusOK {
		ws.fail("batch answered %d: %.200s", status, resp)
		return
	}
	results, err := parseBatch(resp, len(swaps))
	if err != nil {
		ws.fail("batch: %v", err)
		return
	}
	for i, r := range results {
		if (first+i)%serveCheckEvery == 0 {
			c.checks = append(c.checks, checkItem{graph: gi, s: swaps[i], result: append([]byte(nil), r...)})
		}
	}
	ws.batch.add(end.Sub(start))
	ws.answered += len(swaps)
	ws.respBytes += int64(len(resp))
}

// upload sends a never-seen graph as JSON and checks the returned hash.
func (c *client) upload(ctx context.Context, st *serveState, tr *tracer, ws *clientStats) {
	u, late, err := st.nextUpload()
	if err != nil {
		ws.fail("generating upload: %v", err)
		return
	}
	if late {
		ws.lateUploads++
	}
	id := c.nextID()
	ws.attempted++
	start := time.Now()
	status, resp, err := c.post(ctx, "/v1/analyze", u.body, id)
	end := time.Now()
	tr.record("client.upload", id, c.idx+1, start, end)
	if err == nil {
		err = checkUpload(status, resp, u.hash)
	}
	if err != nil {
		ws.fail("%v", err)
		return
	}
	ws.upload.add(end.Sub(start))
}

// loop runs the client's cycle until the deadline.
func (c *client) loop(ctx context.Context, st *serveState, deadline time.Time, tr *tracer, ws *clientStats) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if c.step < serveBatches {
			c.batch(ctx, st, c.rng.Intn(len(st.graphs)), tr, ws)
		} else {
			c.upload(ctx, st, tr, ws)
		}
		c.step = (c.step + 1) % (serveBatches + 1)
	}
}

// parseBatch splits an NDJSON batch stream into the result of each item,
// in item order.
func parseBatch(resp []byte, items int) ([]json.RawMessage, error) {
	results := make([]json.RawMessage, items)
	trailers := 0
	for len(resp) > 0 {
		i := bytes.IndexByte(resp, '\n')
		if i < 0 {
			return nil, errors.New("stream does not end with a newline")
		}
		line := resp[:i]
		resp = resp[i+1:]
		if trailers > 0 {
			return nil, errors.New("line after the trailer")
		}
		var l struct {
			Index     *int            `json:"index"`
			Status    int             `json:"status"`
			Result    json.RawMessage `json:"result"`
			Error     string          `json:"error"`
			Done      bool            `json:"done"`
			Items     int             `json:"items"`
			Completed int             `json:"completed"`
			Truncated bool            `json:"truncated"`
			Reason    string          `json:"reason"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("bad line: %v", err)
		}
		switch {
		case l.Done:
			trailers++
			if l.Truncated || l.Items != items || l.Completed != items {
				return nil, fmt.Errorf("trailer items=%d completed=%d truncated=%v (%s), want %d complete",
					l.Items, l.Completed, l.Truncated, l.Reason, items)
			}
		case l.Index == nil || *l.Index < 0 || *l.Index >= items:
			return nil, fmt.Errorf("line without a valid index: %.120s", line)
		case l.Status != http.StatusOK:
			return nil, fmt.Errorf("item %d answered %d: %s", *l.Index, l.Status, l.Error)
		case results[*l.Index] != nil:
			return nil, fmt.Errorf("item %d answered twice", *l.Index)
		default:
			results[*l.Index] = l.Result
		}
	}
	if trailers != 1 {
		return nil, fmt.Errorf("%d trailers, want 1", trailers)
	}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("item %d has no line", i)
		}
	}
	return results, nil
}

func runServe(ctx context.Context, cfg *config, rep *report) error {
	// The upload pool is generated once; set-up time is that plus the
	// median of the repeated fleet set-ups.
	start := time.Now()
	uploads, err := makeUploads(cfg.seed, int(cfg.seconds.Seconds()*serveUploadsPerSecond))
	if err != nil {
		return err
	}
	poolGen := time.Since(start).Seconds()
	st, setup, err := timedSetup(func() (*serveState, error) { return serveSetup(ctx, cfg.seed, uploads, cfg.tr) },
		func(st *serveState) { st.fleet.close() })
	if err != nil {
		return err
	}
	rep.setup = poolGen + setup
	rep.fact("serve.setup", "upload pool %.3f s + median fleet set-up %.3f s", poolGen, setup)
	f := st.fleet
	fleetOpen := true
	defer func() {
		if fleetOpen {
			f.close()
		}
	}()

	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(i, cfg.seed, f.url)
		defer clients[i].hc.CloseIdleConnections()
	}
	var untraced, traced clientStats
	var uploadsSent int
	for _, win := range cfg.windows() {
		cfg.tr.set(win.traced)
		c0 := readCounters()
		stats := make([]clientStats, len(clients))
		deadline := c0.at.Add(win.d)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(c *client, ws *clientStats) {
				defer wg.Done()
				c.loop(ctx, st, deadline, cfg.tr, ws)
			}(c, &stats[i])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		sum := &untraced
		if win.traced {
			sum = &traced
		}
		for _, ws := range stats {
			sum.batch = append(sum.batch, ws.batch...)
			sum.upload = append(sum.upload, ws.upload...)
			sum.answered += ws.answered
			sum.respBytes += ws.respBytes
			sum.attempted += ws.attempted
			sum.failures = append(sum.failures, ws.failures...)
			sum.lateUploads += ws.lateUploads
			uploadsSent += len(ws.upload)
		}
		if !win.traced {
			n := 0
			for _, ws := range stats {
				n += ws.attempted
			}
			rep.untracedWindow(c0, n)
		}
	}
	cfg.tr.set(false)
	for _, ws := range []clientStats{untraced, traced} {
		rep.attempted += ws.attempted
		for _, p := range ws.failures {
			rep.fail("%s", p)
		}
	}
	rep.op = untraced.batch
	rep.traced = traced.batch
	rep.work = float64(untraced.answered)

	scenarios := st.warmup
	var checks []checkItem
	for _, c := range clients {
		scenarios += c.scenarios
		checks = append(checks, c.checks...)
	}
	fm, err := scrapeFleet(ctx, f)
	fleetOpen = false
	f.close()
	if err != nil {
		return err
	}
	if fm.linesStreamed != int64(scenarios) {
		rep.fail("router streamed %d lines for %d scenarios sent", fm.linesStreamed, scenarios)
	}
	if fm.shed != 0 || fm.retries != 0 || fm.noShard != 0 {
		rep.fail("healthy fleet shed %d, retried %d, found no shard %d times", fm.shed, fm.retries, fm.noShard)
	}

	resched := serveCheck(ctx, st, checks, cfg.tr != nil, rep)

	rep.fact("router.lines_streamed", "%d (scenarios sent %d)", fm.linesStreamed, scenarios)
	rep.fact("serve.checked_scenarios", "%d", len(checks))
	rep.fact("serve.uploads", "%d (pool %d, generated late %d)", uploadsSent, len(st.uploads), untraced.lateUploads+traced.lateUploads)

	rep.row("serve.batch_ms.p50", rep.op.median(), "ms", fmt.Sprintf("n=%d", len(rep.op)))
	rep.tailRow("serve.batch_ms", rep.op, 0.95)
	rep.row("serve.upload_ms.p50", untraced.upload.median(), "ms", fmt.Sprintf("n=%d", len(untraced.upload)))
	rep.tailRow("serve.upload_ms", untraced.upload, 0.90)
	rep.row("serve.scenarios_per_s", rep.work/rep.wall.Seconds(), "scenarios/s", "")

	if cfg.tr != nil {
		serveLayerMetrics(rep, cfg.tr.all(), untraced, resched, fm)
		serveShadowUploads(ctx, st, rep)
		rep.overhead()
		rep.spans = cfg.tr.all()
	}
	return nil
}

// fleetMetrics are the counters read from the /metrics endpoints.
type fleetMetrics struct {
	linesStreamed, retries, noShard, shed int64
	hits, misses                          int64
}

func scrapeFleet(ctx context.Context, f *fleet) (fleetMetrics, error) {
	var fm fleetMetrics
	get := func(url string, v any) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/metrics answered %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	var rm struct {
		Retries       int64 `json:"retries"`
		LinesStreamed int64 `json:"lines_streamed"`
		Shed          int64 `json:"shed"`
		NoShard       int64 `json:"no_shard"`
	}
	if err := get(f.url, &rm); err != nil {
		return fm, err
	}
	fm.linesStreamed, fm.retries, fm.noShard, fm.shed = rm.LinesStreamed, rm.Retries, rm.NoShard, rm.Shed
	for _, u := range f.urls {
		var sm struct {
			Shed  int64 `json:"shed"`
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
		}
		if err := get(u, &sm); err != nil {
			return fm, err
		}
		fm.shed += sm.Shed
		fm.hits += sm.Cache.Hits
		fm.misses += sm.Cache.Misses
	}
	http.DefaultClient.CloseIdleConnections()
	return fm, nil
}

// servedSchedule is the part of a served result the check compares.
type servedSchedule struct {
	Hash         string         `json:"hash"`
	Makespan     model.Cycles   `json:"makespan"`
	Release      []model.Cycles `json:"release"`
	Response     []model.Cycles `json:"response"`
	Interference []model.Cycles `json:"interference"`
}

// serveCheck compares every kept scenario with an in-process cold analysis
// of the same orders. In a traced run it also times the shadow apply →
// Reschedule → undo of each through engine.Warm, which it returns.
func serveCheck(ctx context.Context, st *serveState, checks []checkItem, shadow bool, rep *report) sample {
	eng := engine.MustNew(engine.Incremental)
	warms := make([]engine.Warm, len(st.graphs))
	imgs := make([]*engine.Image, len(st.graphs))
	defer func() {
		for _, w := range warms {
			if w != nil {
				engine.CloseWarm(w)
			}
		}
	}()
	var resched sample
	for _, ci := range checks {
		rep.attempted++
		w := warms[ci.graph]
		if w == nil {
			img, err := engine.Compile(st.graphs[ci.graph].g, sched.Options{})
			if err != nil {
				rep.fail("check compile: %v", err)
				continue
			}
			w = eng.NewWarm(img)
			if _, err := w.Analyze(ctx); err != nil {
				rep.fail("check baseline: %v", err)
				continue
			}
			warms[ci.graph], imgs[ci.graph] = w, img
		}
		ord := w.Orders()
		ord.Swap(model.CoreID(ci.s.Core), ci.s.Pos)
		if shadow {
			start := time.Now()
			_, err := w.Reschedule(ctx, engine.Edit{Core: model.CoreID(ci.s.Core), From: ci.s.Pos})
			resched.add(time.Since(start))
			if err != nil {
				rep.fail("shadow reschedule: %v", err)
			}
		}
		res, err := w.AnalyzeCold(ctx)
		fp := imgs[ci.graph].FingerprintOrders(ord)
		ord.Swap(model.CoreID(ci.s.Core), ci.s.Pos)
		if err != nil {
			rep.fail("cold analysis of scenario %+v: %v", ci.s, err)
			continue
		}
		var got servedSchedule
		if err := json.Unmarshal(ci.result, &got); err != nil {
			rep.fail("served result: %v", err)
			continue
		}
		if got.Hash != fp || got.Makespan != res.Makespan || !slices.Equal(got.Release, res.Release) ||
			!slices.Equal(got.Response, res.Response) || !slices.Equal(got.Interference, res.Interference) {
			rep.fail("graph %d scenario %+v: served schedule differs from a cold analysis", ci.graph, ci.s)
		}
	}
	return resched
}

// serveLayerMetrics derives the serving layers' metrics from the traced window's
// spans and the fleet counters.
func serveLayerMetrics(rep *report, spans []span, untraced clientStats, resched sample, fm fleetMetrics) {
	sum := map[string]float64{}
	count := map[string]int{}
	by := map[string]sample{}
	for _, s := range spans {
		sum[s.Name] += s.ms()
		count[s.Name]++
		by[s.Name] = append(by[s.Name], s.ms())
	}
	if n := count["router.batch"]; n > 0 {
		rep.layer["router.self_ms.batch"] = (sum["router.batch"] - sum["shard.batch"]) / float64(n)
	}
	if n := count["router.analyze"]; n > 0 {
		rep.layer["router.self_ms.upload"] = (sum["router.analyze"] - sum["shard.analyze"]) / float64(n)
		rep.layer["shard.analyze_per_upload"] = float64(count["shard.analyze"]) / float64(n)
	}
	rep.layer["shard.batch_ms"] = by["shard.batch"].median()
	rep.layer["shard.analyze_ms"] = by["shard.analyze"].median()
	if p50, err := resched.percentile(0.5); err == nil {
		rep.layer["warm.reschedule_us.p50"] = p50 * 1e3
	}
	if p95, err := resched.percentile(0.95); err == nil {
		rep.layer["warm.reschedule_us.p95"] = p95 * 1e3
	}
	if len(resched) > 0 {
		rep.layer["shard.residual_ms.batch"] = by["shard.batch"].mean() - serveItems*resched.mean()
	}
	if fm.hits+fm.misses > 0 {
		rep.layer["server.warm_hit_ratio"] = float64(fm.hits) / float64(fm.hits+fm.misses)
	}
	rep.layer["server.shed"] = float64(fm.shed)
	rep.layer["router.retries"] = float64(fm.retries)
	rep.layer["router.no_shard"] = float64(fm.noShard)
	rep.layer["router.lines_streamed"] = float64(fm.linesStreamed)
	if n := len(untraced.batch); n > 0 {
		rep.layer["client.batch_kb"] = float64(untraced.respBytes) / float64(n) / 1024
	}
	rep.layer["trace.coverage_pct"] = coverage(spans, "client.")
}

// serveShadowUploads times, on uploaded bodies, the three steps a write
// costs a shard: JSON decode, compile and a checkpointed analysis.
func serveShadowUploads(ctx context.Context, st *serveState, rep *report) {
	eng := engine.MustNew(engine.Incremental)
	var dec, comp, base sample
	for i := 0; i < 32 && i < len(st.uploads); i++ {
		body := st.uploads[i].body
		start := time.Now()
		g, err := model.ReadJSON(bytes.NewReader(body))
		dec.add(time.Since(start))
		if err != nil {
			rep.fail("shadow decode: %v", err)
			return
		}
		start = time.Now()
		img, err := engine.Compile(g, sched.Options{})
		comp.add(time.Since(start))
		if err != nil {
			rep.fail("shadow compile: %v", err)
			return
		}
		w := eng.NewWarm(img)
		start = time.Now()
		_, err = w.Analyze(ctx)
		base.add(time.Since(start))
		engine.CloseWarm(w)
		if err != nil {
			rep.fail("shadow baseline analysis: %v", err)
			return
		}
	}
	rep.layer["model.json_decode_ms"] = dec.median()
	rep.layer["engine.compile_ms.n512"] = comp.median()
	rep.layer["warm.baseline_ms"] = base.median()
}
