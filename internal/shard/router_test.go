package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeShard is a scripted shard: it answers /v1/batch by emitting result
// lines for the items it receives (echoing each item's "tag" so tests can
// prove which evaluation produced a line), optionally dying after a set
// number of lines. It keeps the real protocol's framing — NDJSON lines,
// one trailer — so the router under test cannot tell it from miaserve.
type fakeShard struct {
	name     string
	dieAfter int32 // kill the connection after this many lines (<0: never)
	// indexLast writes result lines with "index" after "status", a shape
	// the router must refuse to splice.
	indexLast bool
	batches   atomic.Int32
	analyzes  atomic.Int32
	healthy   atomic.Bool
	ts        *httptest.Server
}

type fakeItem struct {
	Tag string `json:"tag"`
}

func newFakeShard(t *testing.T, name string, dieAfter int32) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name, dieAfter: dieAfter}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		f.analyzes.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"hash":"h","servedBy":%q}`, f.name)
	})
	mux.HandleFunc("POST /v1/reschedule", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"servedBy":%q}`, f.name)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		var req struct {
			Hash  string     `json:"hash"`
			Items []fakeItem `json:"items"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		die := f.dieAfter
		for i, it := range req.Items {
			if die >= 0 && int32(i) >= die {
				// Simulate a crash mid-batch: abort the connection without
				// a trailer. Panicking with ErrAbortHandler kills just this
				// response.
				panic(http.ErrAbortHandler)
			}
			if f.indexLast {
				fmt.Fprintf(w, `{"status":200,"index":%d,"result":{"tag":%q,"by":%q}}`+"\n", i, it.Tag, f.name)
			} else {
				fmt.Fprintf(w, `{"index":%d,"status":200,"result":{"tag":%q,"by":%q}}`+"\n", i, it.Tag, f.name)
			}
			flusher.Flush()
		}
		fmt.Fprintf(w, `{"done":true,"items":%d,"completed":%d,"truncated":false}`+"\n", len(req.Items), len(req.Items))
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	cfg.Backoff = time.Millisecond // keep failover tests fast
	r, err := NewRouter(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// shardFor returns the fake shard owning the given ring position.
func shardFor(shards []*fakeShard, url string) *fakeShard {
	for _, f := range shards {
		if f.ts.URL == url {
			return f
		}
	}
	return nil
}

func batchBody(hash string, n int) string {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf(`{"tag":"item-%d"}`, i)
	}
	return fmt.Sprintf(`{"hash":%q,"items":[%s]}`, hash, strings.Join(items, ","))
}

// TestRouterBatchFailoverNoDupNoLoss is the protocol-level failover
// contract: the primary dies mid-batch after streaming some lines, and the
// client still receives every item's line exactly once — the un-streamed
// remainder re-admitted to the successor, indices mapped back — plus
// exactly one untruncated trailer.
func TestRouterBatchFailoverNoDupNoLoss(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, "a", -1),
		newFakeShard(t, "b", -1),
		newFakeShard(t, "c", -1),
	}
	urls := []string{shards[0].ts.URL, shards[1].ts.URL, shards[2].ts.URL}
	r := newTestRouter(t, Config{Targets: urls, Replicas: 2, Retries: 3})

	const hash, n = "deadbeef", 7
	order := r.ring.Order(hash)
	primary := shardFor(shards, order[0])
	successor := shardFor(shards, order[1])
	primary.dieAfter = 3 // stream 3 lines, then crash

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody(hash, n)))
	r.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch through failing primary: %d (%s)", rr.Code, rr.Body.String())
	}

	lines := strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n")
	seen := make(map[int]string, n)
	trailers := 0
	for _, l := range lines {
		var v struct {
			Done      bool                      `json:"done"`
			Truncated bool                      `json:"truncated"`
			Completed int                       `json:"completed"`
			Items     int                       `json:"items"`
			Index     int                       `json:"index"`
			Status    int                       `json:"status"`
			Result    *struct{ Tag, By string } `json:"result"`
		}
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		if v.Done {
			trailers++
			if v.Truncated || v.Completed != n || v.Items != n {
				t.Errorf("trailer %s, want untruncated %d/%d", l, n, n)
			}
			continue
		}
		if _, dup := seen[v.Index]; dup {
			t.Errorf("index %d delivered twice", v.Index)
		}
		if want := fmt.Sprintf("item-%d", v.Index); v.Result == nil || v.Result.Tag != want {
			t.Errorf("index %d carries result %+v, want tag %q", v.Index, v.Result, want)
		}
		seen[v.Index] = v.Result.By
	}
	if trailers != 1 {
		t.Fatalf("%d trailers, want exactly 1", trailers)
	}
	if len(seen) != n {
		t.Fatalf("%d distinct result lines, want %d (lost items)", len(seen), n)
	}
	// The split must actually have crossed shards: some lines from the
	// primary (before the crash), the rest from the successor.
	fromPrimary, fromSuccessor := 0, 0
	for _, by := range seen {
		switch by {
		case primary.name:
			fromPrimary++
		case successor.name:
			fromSuccessor++
		}
	}
	if fromPrimary == 0 || fromSuccessor == 0 {
		t.Errorf("lines split primary=%d successor=%d, want both > 0 (failover did not engage)", fromPrimary, fromSuccessor)
	}
	if got := r.met.batchFailovers.Load(); got < 1 {
		t.Errorf("batch_failovers = %d, want >= 1", got)
	}
}

// TestRouterBatchAllShardsDead: when every replica attempt fails after the
// stream started, the router still ends the response with exactly one
// truncated trailer.
func TestRouterBatchAllShardsDead(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a", -1), newFakeShard(t, "b", -1)}
	urls := []string{shards[0].ts.URL, shards[1].ts.URL}
	r := newTestRouter(t, Config{Targets: urls, Replicas: 2, Retries: 2})

	const hash = "feedface"
	shards[0].dieAfter = 2
	shards[1].dieAfter = 0 // successor dies before producing anything

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody(hash, 5)))
	r.Handler().ServeHTTP(rr, req)

	lines := strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n")
	trailers := 0
	var last struct {
		Done      bool   `json:"done"`
		Truncated bool   `json:"truncated"`
		Reason    string `json:"reason"`
		Completed int    `json:"completed"`
	}
	for _, l := range lines {
		var v struct {
			Done bool `json:"done"`
		}
		json.Unmarshal([]byte(l), &v)
		if v.Done {
			trailers++
			json.Unmarshal([]byte(l), &last)
		}
	}
	if trailers != 1 {
		t.Fatalf("%d trailers, want exactly 1 (body %s)", trailers, rr.Body.String())
	}
	if !last.Truncated || last.Reason != "shard failed" {
		t.Errorf("trailer %+v, want truncated with reason \"shard failed\"", last)
	}
	if got := r.met.noShard.Load(); got != 1 {
		t.Errorf("no_shard = %d, want 1", got)
	}
}

// TestRouterUnaryRetryOnDeadShard: a dead primary's unary request lands on
// the successor after a retry, and the dead shard is passively marked down.
func TestRouterUnaryRetryOnDeadShard(t *testing.T) {
	live := newFakeShard(t, "live", -1)
	dead := newFakeShard(t, "dead", -1)
	dead.ts.Close() // connection refused from the start
	r := newTestRouter(t, Config{Targets: []string{live.ts.URL, dead.ts.URL}, Replicas: 2, Retries: 2})

	// Drive enough distinct keys that some route to the dead primary.
	served := 0
	for i := 0; i < 8; i++ {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/reschedule",
			strings.NewReader(fmt.Sprintf(`{"hash":"k%d","swaps":[]}`, i)))
		r.Handler().ServeHTTP(rr, req)
		if rr.Code == http.StatusOK {
			served++
		}
	}
	if served != 8 {
		t.Errorf("%d of 8 requests served with one dead shard, want all (retry failed)", served)
	}
	if r.targets[dead.ts.URL].healthy.Load() {
		t.Errorf("dead shard still marked healthy after connection failures")
	}
	if got := r.met.retries.Load(); got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
}

// notFoundShard answers every API request with the shard's 404 verdict, as
// a shard outside a fingerprint's replica set does for hash-routed work.
func notFoundShard(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"unknown graph hash"}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouter404ContinuesRingWalk: a 404 is placement-dependent (bounded-load
// reordering can try a shard that never got the image first), so the router
// must keep walking the ring instead of passing it through — and replay the
// 404 only when every candidate returns it.
func TestRouter404ContinuesRingWalk(t *testing.T) {
	missing := notFoundShard(t)
	knowing := newFakeShard(t, "knowing", -1)
	urls := []string{missing.URL, knowing.ts.URL}
	r := newTestRouter(t, Config{Targets: urls, Replicas: 2, Retries: 2})

	// Pin a fingerprint whose ring primary is the 404-ing shard, so the walk
	// is guaranteed to start there.
	fp := ""
	for i := 0; fp == ""; i++ {
		cand := fmt.Sprintf("fp-%d", i)
		if r.ring.Order(cand)[0] == missing.URL {
			fp = cand
		}
	}

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/reschedule", strings.NewReader(`{"hash":"h","swaps":[]}`))
	req.Header.Set("X-Mia-Fingerprint", fp)
	r.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "knowing") {
		t.Errorf("reschedule with a 404 primary: %d (%s), want 200 from the knowing shard", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody("h", 3)))
	req.Header.Set("X-Mia-Fingerprint", fp)
	r.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || strings.Count(rr.Body.String(), `"status":200`) != 3 {
		t.Errorf("batch with a 404 primary: %d (%s), want 3 result lines from the knowing shard", rr.Code, rr.Body.String())
	}

	// All candidates 404 → the shard verdict is replayed, not a 502.
	allMissing := newTestRouter(t, Config{Targets: []string{missing.URL}})
	rr = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/reschedule", strings.NewReader(`{"hash":"h","swaps":[]}`))
	allMissing.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound || !strings.Contains(rr.Body.String(), "unknown graph hash") {
		t.Errorf("all-404 fleet: %d (%s), want the shard's 404 replayed", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody("h", 3)))
	allMissing.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound || !strings.Contains(rr.Body.String(), "unknown graph hash") {
		t.Errorf("all-404 fleet batch: %d (%s), want the shard's 404 replayed", rr.Code, rr.Body.String())
	}
}

// TestRouterReplicatesAnalyze: a successful analyze is re-posted to the
// successor, so both replicas of the fingerprint's set register the image.
func TestRouterReplicatesAnalyze(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a", -1), newFakeShard(t, "b", -1), newFakeShard(t, "c", -1)}
	urls := []string{shards[0].ts.URL, shards[1].ts.URL, shards[2].ts.URL}
	r := newTestRouter(t, Config{Targets: urls, Replicas: 2, Retries: 3})

	body := `{"cores":1,"banks":1}` // fake shards accept anything
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
	req.Header.Set("X-Mia-Fingerprint", "pinned-fp")
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("analyze: %d (%s)", rr.Code, rr.Body.String())
	}

	order := r.ring.Order("pinned-fp")
	if got := shardFor(shards, order[0]).analyzes.Load(); got != 1 {
		t.Errorf("primary analyzes = %d, want 1", got)
	}
	if got := shardFor(shards, order[1]).analyzes.Load(); got != 1 {
		t.Errorf("successor analyzes = %d, want 1 (replication)", got)
	}
	if got := shardFor(shards, order[2]).analyzes.Load(); got != 0 {
		t.Errorf("third shard analyzes = %d, want 0 (outside the replica set)", got)
	}
	if got := r.met.replications.Load(); got != 1 {
		t.Errorf("replications = %d, want 1", got)
	}
}

// TestRouterHealthEndpoints: the router's own healthz tracks the fleet, and
// CheckHealth recovers a passively down-marked shard.
func TestRouterHealthEndpoints(t *testing.T) {
	f := newFakeShard(t, "only", -1)
	r := newTestRouter(t, Config{Targets: []string{f.ts.URL}})

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz with healthy fleet: %d", rr.Code)
	}

	r.markDown(f.ts.URL)
	rr = httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with fleet down: %d, want 503", rr.Code)
	}

	r.CheckHealth(context.Background())
	if !r.targets[f.ts.URL].healthy.Load() {
		t.Errorf("health probe did not recover the shard")
	}

	f.healthy.Store(false) // shard now reports draining
	r.CheckHealth(context.Background())
	if r.targets[f.ts.URL].healthy.Load() {
		t.Errorf("health probe kept a draining shard marked up")
	}

	rr = httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"targets"`) {
		t.Errorf("metrics: %d body %s", rr.Code, rr.Body.String())
	}
}

// TestRouterBatchUnsplicableLineFailsOver: a result line that does not start
// with the {"index":N, prefix cannot be spliced, so the router treats it as a
// shard failure and fails the batch over, exactly like a dead shard.
func TestRouterBatchUnsplicableLineFailsOver(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a", -1), newFakeShard(t, "b", -1)}
	urls := []string{shards[0].ts.URL, shards[1].ts.URL}
	r := newTestRouter(t, Config{Targets: urls, Replicas: 2, Retries: 2})

	const hash, n = "c0ffee", 4
	order := r.ring.Order(hash)
	shardFor(shards, order[0]).indexLast = true
	successor := shardFor(shards, order[1])

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody(hash, n))))
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rr.Code, rr.Body.String())
	}
	lines := strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n")
	if len(lines) != n+1 {
		t.Fatalf("%d lines, want %d results + 1 trailer:\n%s", len(lines), n, rr.Body.String())
	}
	for i, l := range lines[:n] {
		want := fmt.Sprintf(`{"index":%d,"status":200,"result":{"tag":"item-%d","by":%q}}`, i, i, successor.name)
		if l != want {
			t.Errorf("line %d = %s, want %s", i, l, want)
		}
	}
	if want := fmt.Sprintf(`{"done":true,"items":%d,"completed":%d,"truncated":false}`, n, n); lines[n] != want {
		t.Errorf("trailer %s, want %s", lines[n], want)
	}
	if r.targets[order[0]].healthy.Load() {
		t.Errorf("shard with unsplicable lines still marked healthy")
	}
}
