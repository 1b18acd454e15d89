package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/ndjson"
)

// jobBody builds a POST /v1/jobs body around a graph JSON payload.
func jobBody(t *testing.T, graph []byte, extra string) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%s%s}`, graph, extra)
	return []byte(body)
}

func decodeJob(t *testing.T, b []byte) jobStatusResponse {
	t.Helper()
	var resp jobStatusResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding job response: %v (body %s)", err, b)
	}
	return resp
}

// smokeGraphJSON is the small layered instance the job tests search over.
func smokeGraphJSON(t *testing.T) []byte {
	t.Helper()
	p := gen.NewParams(4, 3)
	p.Seed = 9
	p.Cores, p.Banks = 4, 4
	return graphJSON(t, gen.MustLayered(p))
}

// TestJobLifecycleAndMetrics drives one job from POST to completion: status
// polling, the replayed NDJSON stream with its exactly-one trailer, and the
// jobs.* metrics after the lifecycle.
func TestJobLifecycleAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := jobBody(t, smokeGraphJSON(t), `,"pop_size":8,"generations":4,"seed":5`)

	rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("job create: got %d, want 202 (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())
	if job.ID == "" || job.Hash == "" {
		t.Fatalf("job create response missing id/hash: %s", rr.Body.String())
	}
	if want := job.Hash + "-1"; job.ID != want {
		t.Errorf("job id = %q, want %q (fingerprint-prefixed for routing)", job.ID, want)
	}

	var final jobStatusResponse
	waitFor(t, "job completion", func() bool {
		rr := do(s, http.MethodGet, "/v1/jobs/"+job.ID, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("job get: got %d (body %s)", rr.Code, rr.Body.String())
		}
		final = decodeJob(t, rr.Body.Bytes())
		return final.Status != jobRunning
	})
	if final.Status != jobDone {
		t.Fatalf("job finished as %q (reason %q), want done", final.Status, final.Reason)
	}
	if final.Generation != 4 || final.Evaluations == 0 {
		t.Errorf("final accounting generation=%d evaluations=%d, want generation 4 and evaluations > 0",
			final.Generation, final.Evaluations)
	}
	if final.FrontSize == 0 || len(final.Front) != final.FrontSize {
		t.Errorf("final front_size=%d with %d points, want a consistent non-empty front",
			final.FrontSize, len(final.Front))
	}

	// The stream replays the full update history, then the trailer.
	srr := do(s, http.MethodGet, "/v1/jobs/"+job.ID+"/stream", nil)
	if srr.Code != http.StatusOK {
		t.Fatalf("job stream: got %d (body %s)", srr.Code, srr.Body.String())
	}
	updates, trailer := parseJobStream(t, srr.Body.Bytes())
	if len(updates) == 0 {
		t.Fatalf("stream has no front updates")
	}
	lastEvals := 0
	for i, u := range updates {
		if u.Evaluations <= lastEvals || u.FrontSize != len(u.Points) {
			t.Fatalf("update %d not monotone/consistent: evaluations %d after %d, front_size %d with %d points",
				i, u.Evaluations, lastEvals, u.FrontSize, len(u.Points))
		}
		lastEvals = u.Evaluations
	}
	if trailer.Status != string(jobDone) || trailer.Truncated || trailer.Updates != len(updates) {
		t.Fatalf("trailer = %+v, want done/untruncated covering %d updates", trailer, len(updates))
	}

	assertJobMetrics(t, s, 0, 1)
}

// parseJobStream splits an NDJSON job stream into its update lines and the
// single trailer, failing on any malformed or post-trailer line.
func parseJobStream(t *testing.T, stream []byte) ([]jobUpdateLine, ndjson.JobTrailer) {
	t.Helper()
	var updates []jobUpdateLine
	var trailer ndjson.JobTrailer
	seenTrailer := false
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if seenTrailer {
			t.Fatalf("line after trailer: %s", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("malformed stream line: %v (%s)", err, line)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("malformed trailer: %v (%s)", err, line)
			}
			seenTrailer = true
			continue
		}
		var u jobUpdateLine
		if err := json.Unmarshal(line, &u); err != nil {
			t.Fatalf("malformed update line: %v (%s)", err, line)
		}
		updates = append(updates, u)
	}
	if !seenTrailer {
		t.Fatalf("stream ended without a trailer")
	}
	return updates, trailer
}

// assertJobMetrics scrapes /metrics and checks the jobs gauge/counter pair.
func assertJobMetrics(t *testing.T, s *Server, active, completed int64) {
	t.Helper()
	waitFor(t, "job metrics to settle", func() bool {
		return s.met.jobsActive.Load() == active && s.met.jobsCompleted.Load() == completed
	})
	rr := do(s, http.MethodGet, "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: got %d", rr.Code)
	}
	var snap struct {
		Jobs struct {
			Active    int64 `json:"active"`
			Completed int64 `json:"completed"`
			FrontSize int64 `json:"front_size"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if snap.Jobs.Active != active || snap.Jobs.Completed != completed {
		t.Fatalf("jobs metrics = active %d completed %d, want %d/%d",
			snap.Jobs.Active, snap.Jobs.Completed, active, completed)
	}
	if completed > 0 && snap.Jobs.FrontSize == 0 {
		t.Errorf("jobs.front_size = 0 after a completed job")
	}
}

// longJobBody is a search big enough to outlive any test action against it.
func longJobBody(t *testing.T) []byte {
	return jobBody(t, smokeGraphJSON(t), `,"pop_size":8,"generations":100000000,"seed":1`)
}

// TestJobCancellationStreamsTruncatedTrailer cancels a running job while a
// live stream is attached: the stream must end with a truncated trailer
// whose status is cancelled, and the job's slot must come back.
func TestJobCancellationStreamsTruncatedTrailer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("job create: got %d (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	if _, err := reader.ReadBytes('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}

	drr := do(s, http.MethodDelete, "/v1/jobs/"+job.ID, nil)
	if drr.Code != http.StatusOK {
		t.Fatalf("job cancel: got %d (body %s)", drr.Code, drr.Body.String())
	}

	var trailer ndjson.JobTrailer
	for {
		line, err := reader.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream died without a trailer: %v", err)
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatalf("malformed line: %v (%s)", err, line)
		}
		if trailer.Done {
			break
		}
	}
	if trailer.Status != string(jobCancelled) || !trailer.Truncated || trailer.Reason != "cancelled" {
		t.Fatalf("trailer = %+v, want truncated/cancelled/reason=cancelled", trailer)
	}

	grr := do(s, http.MethodGet, "/v1/jobs/"+job.ID, nil)
	if got := decodeJob(t, grr.Body.Bytes()); got.Status != jobCancelled {
		t.Fatalf("job status after cancel = %q, want cancelled", got.Status)
	}
	// Cancelling again is idempotent.
	if drr := do(s, http.MethodDelete, "/v1/jobs/"+job.ID, nil); drr.Code != http.StatusOK {
		t.Fatalf("second cancel: got %d", drr.Code)
	}
	assertJobMetrics(t, s, 0, 1)
}

// TestJobDrainCancelsRunningJobs: BeginDrain must cancel running jobs with
// reason "draining" (the batch path's drain semantics) and refuse new ones
// with 503.
func TestJobDrainCancelsRunningJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("job create: got %d (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())

	s.BeginDrain()
	var final jobStatusResponse
	waitFor(t, "drain to cancel the job", func() bool {
		final = decodeJob(t, do(s, http.MethodGet, "/v1/jobs/"+job.ID, nil).Body.Bytes())
		return final.Status != jobRunning
	})
	if final.Status != jobCancelled || final.Reason != "draining" {
		t.Fatalf("drained job = %q/%q, want cancelled/draining", final.Status, final.Reason)
	}

	srr := do(s, http.MethodGet, "/v1/jobs/"+job.ID+"/stream", nil)
	_, trailer := parseJobStream(t, srr.Body.Bytes())
	if !trailer.Truncated || trailer.Reason != "draining" {
		t.Fatalf("drained stream trailer = %+v, want truncated with reason draining", trailer)
	}

	if rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t))); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("job create while draining: got %d, want 503", rr.Code)
	}
}

// TestJobTableBounded: MaxJobs jobs run at once; the next POST sheds with
// 429 + Retry-After, and a freed slot admits again.
func TestJobTableBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxJobs: 1})
	rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("job create: got %d (body %s)", rr.Code, rr.Body.String())
	}
	first := decodeJob(t, rr.Body.Bytes())

	over := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t)))
	if over.Code != http.StatusTooManyRequests {
		t.Fatalf("job create over the cap: got %d, want 429 (body %s)", over.Code, over.Body.String())
	}
	if over.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}

	if drr := do(s, http.MethodDelete, "/v1/jobs/"+first.ID, nil); drr.Code != http.StatusOK {
		t.Fatalf("cancel: got %d", drr.Code)
	}
	waitFor(t, "job slot release", func() bool { return s.met.jobsActive.Load() == 0 })
	again := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(longJobBody(t)))
	if again.Code != http.StatusAccepted {
		t.Fatalf("job create after slot freed: got %d (body %s)", again.Code, again.Body.String())
	}
}

// TestJobValidation covers the create/lookup error surface.
func TestJobValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	graph := smokeGraphJSON(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"missing graph", `{}`, http.StatusBadRequest},
		{"both hash and graph", fmt.Sprintf(`{"hash":"deadbeef","graph":%s}`, graph), http.StatusBadRequest},
		{"unknown hash", `{"hash":"deadbeef"}`, http.StatusNotFound},
		{"unknown objective", fmt.Sprintf(`{"graph":%s,"objectives":["nope"]}`, graph), http.StatusBadRequest},
		{"unknown field", fmt.Sprintf(`{"graph":%s,"bogus":1}`, graph), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(tc.body)))
			if rr.Code != tc.want {
				t.Errorf("got %d, want %d (body %s)", rr.Code, tc.want, rr.Body.String())
			}
		})
	}
	if rr := do(s, http.MethodGet, "/v1/jobs/nope", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job get: got %d, want 404", rr.Code)
	}
	if rr := do(s, http.MethodDelete, "/v1/jobs/nope", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job cancel: got %d, want 404", rr.Code)
	}
}

// TestJobByHashReference creates a job against a previously analyzed
// graph's fingerprint — the flow a router client uses after an analyze.
func TestJobByHashReference(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, smokeGraphJSON(t)))
	body := []byte(fmt.Sprintf(`{"hash":%q,"pop_size":6,"generations":2,"seed":3}`, hash))
	rr := do(s, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("job create by hash: got %d (body %s)", rr.Code, rr.Body.String())
	}
	job := decodeJob(t, rr.Body.Bytes())
	if job.Hash != hash {
		t.Fatalf("job hash = %q, want %q", job.Hash, hash)
	}
	waitFor(t, "job completion", func() bool {
		return decodeJob(t, do(s, http.MethodGet, "/v1/jobs/"+job.ID, nil).Body.Bytes()).Status == jobDone
	})
}
