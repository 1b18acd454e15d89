package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/shard"
)

// fleetShard is one real in-process miaserve shard behind a real listener —
// the router speaks actual HTTP to it, and the test keeps the *Server so it
// can reach test hooks (itemGate) and metrics.
type fleetShard struct {
	srv *Server
	ts  *httptest.Server
}

func newFleet(t *testing.T, n int, cfg Config) ([]*fleetShard, []string) {
	t.Helper()
	shards := make([]*fleetShard, n)
	urls := make([]string, n)
	for i := range shards {
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		shards[i] = &fleetShard{srv: srv, ts: ts}
		urls[i] = ts.URL
	}
	return shards, urls
}

func newFleetRouter(t *testing.T, urls []string, cfg shard.Config) *shard.Router {
	t.Helper()
	cfg.Targets = urls
	r, err := shard.NewRouter(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func shardByURL(shards []*fleetShard, url string) *fleetShard {
	for _, f := range shards {
		if f.ts.URL == url {
			return f
		}
	}
	return nil
}

// routedDo drives one request through the router handler (the router then
// speaks real HTTP to the shards).
func routedDo(r *shard.Router, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, req)
	return rr
}

// parityCorpus replicates the engine differential corpus: 6 benchmark
// shapes × 3 platform geometries × 12 seeds = 216 instances.
func parityCorpus() []gen.Params {
	shapes := []struct{ layers, size int }{
		{8, 4}, {12, 4}, {6, 8},
		{4, 8}, {4, 12}, {6, 10},
	}
	platforms := []struct {
		cores, banks int
		shared       bool
	}{
		{4, 4, false},
		{8, 8, false},
		{4, 1, true},
	}
	var corpus []gen.Params
	for _, sh := range shapes {
		for _, pl := range platforms {
			for seed := int64(1); seed <= 12; seed++ {
				p := gen.NewParams(sh.layers, sh.size)
				p.Seed = seed
				p.Cores, p.Banks, p.SharedBank = pl.cores, pl.banks, pl.shared
				corpus = append(corpus, p)
			}
		}
	}
	return corpus
}

// TestRouterParityCorpus is the tentpole acceptance suite: over the full
// 216-instance differential corpus, every response served through the
// router — analyze, reschedule, and (sampled) batch — must be byte-identical
// to the same request served by a direct single-node server. The router may
// add placement, replication, and failover, but it must be unobservable in
// the bytes.
func TestRouterParityCorpus(t *testing.T) {
	direct := newTestServer(t, Config{Workers: 2})
	_, urls := newFleet(t, 3, Config{Workers: 2})
	router := newFleetRouter(t, urls, shard.Config{Replicas: 2, Retries: 3})

	corpus := parityCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want >= 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		body := graphJSON(t, g)
		label := fmt.Sprintf("corpus[%d] %dx%d %dc/%db shared=%v seed=%d",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank, p.Seed)

		dRR := do(direct, http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		rRR := routedDo(router, http.MethodPost, "/v1/analyze", "application/json", body)
		if dRR.Code != http.StatusOK || rRR.Code != http.StatusOK {
			t.Fatalf("%s: analyze direct=%d routed=%d (routed body %s)", label, dRR.Code, rRR.Code, rRR.Body.String())
		}
		if !bytes.Equal(dRR.Body.Bytes(), rRR.Body.Bytes()) {
			t.Fatalf("%s: routed analyze diverges from direct\n direct: %s\n routed: %s",
				label, dRR.Body.Bytes(), rRR.Body.Bytes())
		}

		hash := responseHash(t, dRR)
		if ci%4 == 0 {
			reqBody := fmt.Sprintf(`{"hash":%q,"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]}`, hash)
			dRS := do(direct, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody))
			rRS := routedDo(router, http.MethodPost, "/v1/reschedule", "application/json", []byte(reqBody))
			if dRS.Code != http.StatusOK || rRS.Code != http.StatusOK {
				t.Fatalf("%s: reschedule direct=%d routed=%d (routed body %s)", label, dRS.Code, rRS.Code, rRS.Body.String())
			}
			if !bytes.Equal(dRS.Body.Bytes(), rRS.Body.Bytes()) {
				t.Fatalf("%s: routed reschedule diverges from direct\n direct: %s\n routed: %s",
					label, dRS.Body.Bytes(), rRS.Body.Bytes())
			}
		}
		if ci%8 == 0 {
			batchBody := fmt.Sprintf(
				`{"hash":%q,"items":[{"swaps":[]},{"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]},{"swaps":[]}]}`, hash)
			dB := doBatch(direct, "", []byte(batchBody))
			rB := routedDo(router, http.MethodPost, "/v1/batch", "application/json", []byte(batchBody))
			if dB.Code != http.StatusOK || rB.Code != http.StatusOK {
				t.Fatalf("%s: batch direct=%d routed=%d (routed body %s)", label, dB.Code, rB.Code, rB.Body.String())
			}
			// Single-shard batches are a verbatim relay: whole-body byte
			// parity, trailer included.
			if !bytes.Equal(dB.Body.Bytes(), rB.Body.Bytes()) {
				t.Fatalf("%s: routed batch diverges from direct\n direct: %s\n routed: %s",
					label, dB.Body.Bytes(), rB.Body.Bytes())
			}
		}
	}
}

// TestRouterKillShardMidBatch is the failover acceptance test on real
// shards: a three-shard fleet serves a batch, the primary is killed after
// streaming three lines, and the client must still receive every item's
// line exactly once — each byte-identical to a direct single-node batch —
// with a single untruncated trailer. Shard-side request counters prove the
// batch actually crossed shards.
func TestRouterKillShardMidBatch(t *testing.T) {
	const items = 8
	// The direct reference server is created first so its goroutine-leak
	// cleanup runs last, after the fleet and all HTTP connections are gone.
	direct := newTestServer(t, Config{Workers: 2})
	shards, urls := newFleet(t, 3, Config{Workers: 2})
	router := newFleetRouter(t, urls, shard.Config{Replicas: 2, Retries: 3})
	routerTS := httptest.NewServer(router.Handler())
	t.Cleanup(routerTS.Close)
	client := routerTS.Client()
	t.Cleanup(client.CloseIdleConnections)

	g := roundTrip(t, gen.Figure2())
	fp := g.Fingerprint()
	ring := shard.NewRing(urls, 0) // same defaults as the router's ring
	order := ring.Order(fp)
	primary, successor := shardByURL(shards, order[0]), shardByURL(shards, order[1])

	// Prime through the router: lands on the primary, replicates to the
	// successor — the registry state failover depends on.
	prime := routedDo(router, http.MethodPost, "/v1/analyze", "application/json", graphJSON(t, g))
	if prime.Code != http.StatusOK {
		t.Fatalf("priming analyze via router: %d (%s)", prime.Code, prime.Body.String())
	}
	hash := responseHash(t, prime)

	// Direct reference for byte parity, on a fresh single-node server.
	swapVariants := []string{
		`[]`,
		`[{"core":2,"pos":0},{"core":2,"pos":0}]`,
		`[{"core":3,"pos":1},{"core":3,"pos":1}]`,
		`[{"core":0,"pos":1},{"core":0,"pos":1}]`,
	}
	itemJSON := make([]string, items)
	for i := range itemJSON {
		itemJSON[i] = `{"swaps":` + swapVariants[i%len(swapVariants)] + `}`
	}
	batchBody := fmt.Sprintf(`{"hash":%q,"items":[%s]}`, hash, strings.Join(itemJSON, ","))

	if rr := analyzeGraph(t, direct, graphJSON(t, g)); responseHash(t, rr) != hash {
		t.Fatalf("direct server fingerprint disagrees with routed one")
	}
	dB := doBatch(direct, "", []byte(batchBody))
	if dB.Code != http.StatusOK {
		t.Fatalf("direct reference batch: %d (%s)", dB.Code, dB.Body.String())
	}
	wantLines := map[int]string{}
	{
		lines, trailer := parseNDJSON(t, dB.Body.Bytes())
		if trailer.Truncated || len(lines) != items {
			t.Fatalf("direct reference batch truncated or short: %d lines, trailer %+v", len(lines), trailer)
		}
		for _, raw := range strings.Split(strings.TrimRight(dB.Body.String(), "\n"), "\n") {
			var probe struct {
				Done  bool `json:"done"`
				Index int  `json:"index"`
			}
			if json.Unmarshal([]byte(raw), &probe) == nil && !probe.Done {
				wantLines[probe.Index] = raw
			}
		}
	}

	// Hold the primary's worker before batch item 3, so exactly the window
	// where lines 0–2 are streamed and the rest are not is pinned open.
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	primary.srv.itemGate = func(i int) {
		if i == 3 {
			once.Do(func() {
				close(reached)
				<-release
			})
		}
	}
	defer close(release)

	resp, err := client.Post(routerTS.URL+"/v1/batch", "application/json", strings.NewReader(batchBody))
	if err != nil {
		t.Fatalf("routed batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch status %d", resp.StatusCode)
	}

	gotLines := map[int]string{}
	trailers := 0
	var trailer struct {
		Done      bool   `json:"done"`
		Items     int    `json:"items"`
		Completed int    `json:"completed"`
		Truncated bool   `json:"truncated"`
		Reason    string `json:"reason"`
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	read := 0
	for scanner.Scan() {
		line := scanner.Text()
		var probe struct {
			Done  bool `json:"done"`
			Index int  `json:"index"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			trailers++
			if err := json.Unmarshal([]byte(line), &trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", line, err)
			}
			continue
		}
		if prev, dup := gotLines[probe.Index]; dup {
			t.Fatalf("index %d delivered twice:\n first: %s\nsecond: %s", probe.Index, prev, line)
		}
		gotLines[probe.Index] = line
		read++
		if read == 3 {
			// Lines 0–2 are in hand; now the primary dies mid-batch.
			<-reached
			primary.ts.CloseClientConnections()
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading routed stream: %v", err)
	}

	if trailers != 1 {
		t.Fatalf("%d trailers, want exactly 1", trailers)
	}
	if trailer.Truncated || trailer.Completed != items || trailer.Items != items {
		t.Fatalf("trailer %+v, want untruncated %d/%d (failover should complete the batch)", trailer, items, items)
	}
	if len(gotLines) != items {
		t.Fatalf("%d distinct lines, want %d (lost items)", len(gotLines), items)
	}
	for i := 0; i < items; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("index %d diverges from direct batch\n direct: %s\n routed: %s", i, wantLines[i], gotLines[i])
		}
	}
	// The work provably crossed shards: the primary took the first batch,
	// the successor the failover sub-batch.
	if n := primary.srv.met.batch.Load(); n < 1 {
		t.Errorf("primary served %d batches, want >= 1", n)
	}
	if n := successor.srv.met.batch.Load(); n < 1 {
		t.Errorf("successor served %d batches, want >= 1 (failover never engaged)", n)
	}
}

// TestRouterJobsRoutedByIDPrefix drives the served-search protocol through
// the router: POST /v1/jobs places the job on the graph fingerprint's
// primary shard, and every id-addressed request (status, stream, cancel)
// routes by the job id's fingerprint prefix back to the owner — including
// when the owner is not first in the ring walk and the 404-continues
// semantics must find it.
func TestRouterJobsRoutedByIDPrefix(t *testing.T) {
	shards, urls := newFleet(t, 3, Config{Workers: 1})
	router := newFleetRouter(t, urls, shard.Config{Replicas: 2, Retries: 3})

	body := jobBody(t, smokeGraphJSON(t), `,"pop_size":6,"generations":3,"seed":2`)
	rr := routedDo(router, http.MethodPost, "/v1/jobs", "application/json", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("routed job create: got %d (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())

	ring := shard.NewRing(urls, 0)
	order := ring.Order(job.Hash)
	primary := shardByURL(shards, order[0])
	if n := primary.srv.met.jobs.Load(); n < 1 {
		t.Errorf("primary shard saw %d job requests, want >= 1 (fingerprint routing broken)", n)
	}

	waitFor(t, "routed job completion", func() bool {
		rr := routedDo(router, http.MethodGet, "/v1/jobs/"+job.ID, "", nil)
		return rr.Code == http.StatusOK && decodeJob(t, rr.Body.Bytes()).Status == jobDone
	})

	srr := routedDo(router, http.MethodGet, "/v1/jobs/"+job.ID+"/stream", "", nil)
	if srr.Code != http.StatusOK {
		t.Fatalf("routed job stream: got %d (body %s)", srr.Code, srr.Body.String())
	}
	updates, trailer := parseJobStream(t, srr.Body.Bytes())
	if len(updates) == 0 || trailer.Status != string(jobDone) || trailer.Truncated {
		t.Fatalf("routed stream: %d updates, trailer %+v; want updates and a done trailer", len(updates), trailer)
	}

	// A job on a non-primary shard: post a different graph's job directly to
	// the second shard in its ring order. The routed GET must 404 off the
	// primary and continue the walk to the owner.
	p2 := gen.NewParams(4, 3)
	p2.Seed = 77
	p2.Cores, p2.Banks = 4, 4
	g2 := graphJSON(t, gen.MustLayered(p2))
	body2 := jobBody(t, g2, `,"pop_size":6,"generations":2,"seed":4`)
	fp2 := roundTrip(t, gen.MustLayered(p2)).Fingerprint()
	owner := shardByURL(shards, ring.Order(fp2)[1])
	drr := do(owner.srv, http.MethodPost, "/v1/jobs", bytes.NewReader(body2))
	if drr.Code != http.StatusAccepted {
		t.Fatalf("direct job create on successor: got %d (body %s)", drr.Code, drr.Body.String())
	}
	job2 := decodeJob(t, drr.Body.Bytes())
	if got := routedDo(router, http.MethodGet, "/v1/jobs/"+job2.ID, "", nil); got.Code != http.StatusOK {
		t.Fatalf("routed get of non-primary job: got %d, want 200 via the 404 ring walk (body %s)",
			got.Code, got.Body.String())
	}
	if crr := routedDo(router, http.MethodDelete, "/v1/jobs/"+job2.ID, "", nil); crr.Code != http.StatusOK {
		t.Fatalf("routed job cancel: got %d (body %s)", crr.Code, crr.Body.String())
	}
	waitFor(t, "cancelled job to settle", func() bool {
		rr := routedDo(router, http.MethodGet, "/v1/jobs/"+job2.ID, "", nil)
		st := decodeJob(t, rr.Body.Bytes()).Status
		return st == jobCancelled || st == jobDone
	})
}

// routedJobOnStoppedOwner creates a long-running job through the router and
// returns it with its owning shard. stopOwner stops that shard's listener
// and cuts its open connections, as a crashed shard process would.
func routedJobOnStoppedOwner(t *testing.T, router *shard.Router, shards []*fleetShard, urls []string) (jobStatusResponse, func()) {
	t.Helper()
	rr := routedDo(router, http.MethodPost, "/v1/jobs", "application/json", longJobBody(t))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("routed job create: got %d (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())
	owner := shardByURL(shards, shard.NewRing(urls, 0).Order(job.Hash)[0])
	if _, ok := owner.srv.jobs.get(job.ID); !ok {
		t.Fatalf("job %s is not on its ring primary", job.ID)
	}
	return job, func() {
		owner.ts.Listener.Close()
		owner.ts.CloseClientConnections()
	}
}

// TestRouterJobOwnerUnreachable: once the shard holding a job is gone, the
// other candidates answer 404, but the job did exist — every id-addressed
// request must answer 502 "job owner unreachable", not the 404 of a job
// that never existed.
func TestRouterJobOwnerUnreachable(t *testing.T) {
	shards, urls := newFleet(t, 3, Config{Workers: 1})
	router := newFleetRouter(t, urls, shard.Config{Replicas: 2, Retries: 3})
	job, stopOwner := routedJobOnStoppedOwner(t, router, shards, urls)
	stopOwner()

	for _, rq := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + job.ID},
		{http.MethodGet, "/v1/jobs/" + job.ID + "/stream"},
		{http.MethodDelete, "/v1/jobs/" + job.ID},
	} {
		rr := routedDo(router, rq.method, rq.path, "", nil)
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: body %q: %v", rq.method, rq.path, rr.Body.String(), err)
		}
		if rr.Code != http.StatusBadGateway || !strings.HasPrefix(body.Error, "job owner unreachable: ") {
			t.Errorf("%s %s with the owner stopped: %d %s, want 502 job owner unreachable",
				rq.method, rq.path, rr.Code, rr.Body.String())
		}
	}
	// A job id no shard ever minted still gets the shards' 404 while the
	// whole fleet answers.
	_, liveURLs := newFleet(t, 2, Config{Workers: 1})
	liveRouter := newFleetRouter(t, liveURLs, shard.Config{Replicas: 2, Retries: 2})
	if rr := routedDo(liveRouter, http.MethodGet, "/v1/jobs/"+job.ID, "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job on a healthy fleet: %d %s, want 404", rr.Code, rr.Body.String())
	}
}

// TestRouterJobStreamOwnerDiesMidStream: a relayed job stream whose owning
// shard dies before the trailer still ends with exactly one trailer — the
// router's "failed, truncated, shard failed" one, counting the update lines
// it relayed.
func TestRouterJobStreamOwnerDiesMidStream(t *testing.T) {
	shards, urls := newFleet(t, 3, Config{Workers: 1})
	router := newFleetRouter(t, urls, shard.Config{Replicas: 2, Retries: 3})
	routerTS := httptest.NewServer(router.Handler())
	t.Cleanup(routerTS.Close)
	client := routerTS.Client()
	t.Cleanup(client.CloseIdleConnections)
	job, stopOwner := routedJobOnStoppedOwner(t, router, shards, urls)

	resp, err := client.Get(routerTS.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatalf("opening routed stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed stream status %d", resp.StatusCode)
	}
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first update: %v", err)
	}
	stopOwner()

	lines := [][]byte{first}
	for {
		line, err := reader.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			t.Fatalf("routed stream died without a trailer: %v (partial %q)", err, line)
		}
		lines = append(lines, line)
	}
	updates, trailer := parseJobStream(t, bytes.Join(lines, nil))
	want := fmt.Sprintf(`{"done":true,"status":"failed","updates":%d,"truncated":true,"reason":"shard failed"}`+"\n", len(updates))
	if got := string(lines[len(lines)-1]); got != want || trailer.Updates != len(lines)-1 {
		t.Fatalf("trailer %s, want %s", got, want)
	}
}
