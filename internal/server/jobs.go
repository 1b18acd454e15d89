package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/objective"
	"github.com/mia-rt/mia/internal/explore/pareto"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/ndjson"
)

// The jobs subsystem serves long-running multi-objective searches:
//
//	POST   /v1/jobs             graph (or hash) + search options → 202 with a
//	                            job id; the NSGA-II search runs in the
//	                            background, bounded by Config.MaxJobs
//	GET    /v1/jobs/{id}        job status + the current Pareto front
//	GET    /v1/jobs/{id}/stream NDJSON: every front update as it lands, then
//	                            one terminal trailer (mirrors /v1/batch's
//	                            exactly-one-trailer, truncation-marked shape)
//	DELETE /v1/jobs/{id}        cancel a running job
//
// A job id is "<graph-fingerprint>-<seq>", so the shard router can place
// every request about a job on the shard that owns it by the same
// consistent-hash key the graph's analyze traffic uses.
//
// Search jobs do not run on the unary worker pool: a Pareto search is
// minutes of work and would starve analyze/reschedule traffic behind it.
// Each job owns one goroutine (plus the search's internal evaluation pool)
// and admission is bounded separately by MaxJobs — a full job table sheds
// with 429 exactly like a full queue. BeginDrain cancels every running job;
// streams then end with a truncated trailer whose reason is "draining",
// matching the batch path's drain semantics.

// jobRetention bounds how many terminal jobs stay queryable; beyond it the
// oldest terminal job is evicted with its front.
const jobRetention = 128

// maxJobSearchWorkers caps the per-job evaluation parallelism a client may
// request, independent of the unary pool's size.
const maxJobSearchWorkers = 8

// jobStatus is a job's lifecycle state. Transitions: running → done |
// cancelled | failed; terminal states are final.
type jobStatus string

const (
	jobRunning   jobStatus = "running"
	jobDone      jobStatus = "done"
	jobCancelled jobStatus = "cancelled"
	jobFailed    jobStatus = "failed"
)

// searchJob is one served search: the background goroutine's results and
// the subscriber bookkeeping. All mutable state is guarded by mu; notify is
// closed-and-replaced on every change (broadcast), so any number of stream
// subscribers can wait without the job tracking them.
type searchJob struct {
	id   string
	hash string

	// ctx/cancel are created at admission, before the job is visible in the
	// table, so cancelAll can never observe a job without a cancel func.
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	status      jobStatus
	reason      string // cancellation reason or failure error
	generation  int
	evaluations int
	lines       [][]byte // serialized NDJSON front-update lines, in order
	front       []pareto.Point
	notify      chan struct{}
}

// jobSet is the server's job table: id → job, bounded admission, retention
// of terminal jobs, and the drain/close synchronization.
type jobSet struct {
	maxActive int

	mu     sync.Mutex
	byID   map[string]*searchJob
	order  []*searchJob // creation order, for terminal-job eviction
	seq    int64
	active int

	wg sync.WaitGroup // one count per running search goroutine
}

func newJobSet(maxActive int) *jobSet {
	return &jobSet{maxActive: maxActive, byID: make(map[string]*searchJob)}
}

// admit reserves a job slot and registers the job, or reports the table
// full. Terminal jobs beyond the retention cap are evicted here, oldest
// first — admission is the only point the table grows.
func (js *jobSet) admit(hash string) (*searchJob, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.active >= js.maxActive {
		return nil, false
	}
	js.seq++
	//mialint:ignore ctxflow -- jobs outlive the creating request by design; their root is the job table, which cancels every entry on DELETE, drain, and Close
	ctx, cancel := context.WithCancel(context.Background())
	j := &searchJob{
		id:     hash + "-" + strconv.FormatInt(js.seq, 10),
		hash:   hash,
		ctx:    ctx,
		cancel: cancel,
		status: jobRunning,
		notify: make(chan struct{}),
	}
	js.byID[j.id] = j
	js.order = append(js.order, j)
	js.active++
	terminal := len(js.order) - js.active
	for i := 0; terminal > jobRetention && i < len(js.order); {
		if js.order[i].snapshotStatus() == jobRunning {
			i++
			continue
		}
		delete(js.byID, js.order[i].id)
		js.order = append(js.order[:i], js.order[i+1:]...)
		terminal--
	}
	return j, true
}

// get looks a job up by id.
func (js *jobSet) get(id string) (*searchJob, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.byID[id]
	return j, ok
}

// release returns a finished job's slot.
func (js *jobSet) release() {
	js.mu.Lock()
	js.active--
	js.mu.Unlock()
}

// cancelAll cancels every running job (BeginDrain's job-side half). The
// reason lands in each job's terminal trailer.
func (js *jobSet) cancelAll(reason string) {
	js.mu.Lock()
	jobs := make([]*searchJob, 0, len(js.order))
	jobs = append(jobs, js.order...)
	js.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel(reason)
	}
}

// snapshotStatus reads the job's status under its own lock.
func (j *searchJob) snapshotStatus() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// requestCancel asks a running job to stop. Idempotent; terminal jobs are
// untouched (their status is already final).
func (j *searchJob) requestCancel(reason string) {
	j.mu.Lock()
	if j.status == jobRunning && j.reason == "" {
		j.reason = reason
	}
	j.mu.Unlock()
	j.cancel() // context cancellation is idempotent
}

// broadcast wakes every waiting subscriber. Callers hold j.mu.
func (j *searchJob) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// jobUpdateLine is one streamed front update.
type jobUpdateLine struct {
	Generation  int            `json:"generation"`
	Evaluations int            `json:"evaluations"`
	FrontSize   int            `json:"front_size"`
	Points      []pareto.Point `json:"points"`
}

// pushUpdate records one front update from the search goroutine and wakes
// the stream subscribers. The update is serialized once, here, so every
// subscriber streams identical bytes.
func (j *searchJob) pushUpdate(m *metrics, u pareto.FrontUpdate) {
	b, err := json.Marshal(jobUpdateLine{
		Generation:  u.Generation,
		Evaluations: u.Evaluations,
		FrontSize:   len(u.Points),
		Points:      u.Points,
	})
	if err != nil {
		return
	}
	m.jobsFrontSize.Store(int64(len(u.Points)))
	j.mu.Lock()
	j.generation = u.Generation
	j.evaluations = u.Evaluations
	j.front = u.Points
	j.lines = append(j.lines, append(b, '\n'))
	j.broadcast()
	j.mu.Unlock()
}

// finish moves the job to its terminal state and wakes the subscribers.
func (j *searchJob) finish(m *metrics, res *pareto.Result, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.status = jobDone
		j.generation = res.Generations
		j.evaluations = res.Evaluations
		j.front = res.Front
	case errors.Is(err, context.Canceled) || j.reason != "":
		j.status = jobCancelled
		if j.reason == "" {
			j.reason = "cancelled"
		}
	default:
		j.status = jobFailed
		j.reason = err.Error()
	}
	j.broadcast()
	front := len(j.front)
	j.mu.Unlock()
	m.jobsActive.Add(-1)
	m.jobsCompleted.Add(1)
	m.jobsFrontSize.Store(int64(front))
}

// jobCreateRequest is the body of POST /v1/jobs: a graph by value or by
// fingerprint reference, plus the search's parameters (all optional; the
// pareto package's defaults apply).
type jobCreateRequest struct {
	Hash  string          `json:"hash,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
	// Objectives names the objective vector (objective registry names);
	// empty means the default makespan/peak-interference/bank-variance.
	Objectives  []string `json:"objectives,omitempty"`
	PopSize     int      `json:"pop_size,omitempty"`
	Generations int      `json:"generations,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	// Workers bounds the search's internal evaluation parallelism (clamped
	// to [1, maxJobSearchWorkers]; default 1 keeps jobs deterministic *and*
	// cheap — the front is byte-identical at every setting regardless).
	Workers int `json:"workers,omitempty"`
}

// jobStatusResponse is the body of job-status (and create) responses.
type jobStatusResponse struct {
	ID          string         `json:"id"`
	Hash        string         `json:"hash"`
	Status      jobStatus      `json:"status"`
	Generation  int            `json:"generation"`
	Evaluations int            `json:"evaluations"`
	FrontSize   int            `json:"front_size"`
	Front       []pareto.Point `json:"front,omitempty"`
	Reason      string         `json:"reason,omitempty"`
}

// statusBody snapshots the job as a response body. withFront includes the
// current front (status endpoint); create responses omit it.
func (j *searchJob) statusBody(withFront bool) []byte {
	j.mu.Lock()
	resp := jobStatusResponse{
		ID:          j.id,
		Hash:        j.hash,
		Status:      j.status,
		Generation:  j.generation,
		Evaluations: j.evaluations,
		FrontSize:   len(j.front),
	}
	if withFront {
		resp.Front = j.front
	}
	if j.status == jobCancelled || j.status == jobFailed {
		resp.Reason = j.reason
	}
	j.mu.Unlock()
	b, _ := json.Marshal(&resp)
	return b
}

// handleJobCreate serves POST /v1/jobs.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	s.met.jobs.Add(1)
	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
		return
	}
	var req jobCreateRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("parsing job request: " + err.Error())})
		return
	}

	var img *engine.Image
	switch {
	case req.Hash != "" && len(req.Graph) > 0:
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("set hash or graph, not both")})
		return
	case req.Hash != "":
		var ok bool
		if img, ok = s.images.get(req.Hash); !ok {
			s.writeReply(w, reply{status: http.StatusNotFound,
				body: errBody("unknown graph hash (analyze it first; the registry is an LRU and may have evicted it)")})
			return
		}
	case len(req.Graph) > 0:
		g, err := model.ReadJSON(strings.NewReader(string(req.Graph)))
		if err != nil {
			s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(err.Error())})
			return
		}
		img, err = engine.Compile(g, s.cfg.Sched)
		if err != nil {
			s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(err.Error())})
			return
		}
		s.met.ingestJSON.Add(1)
		img = s.images.put(img.Fingerprint(), img)
	default:
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("missing graph: set hash or graph")})
		return
	}

	objs := make([]objective.Objective, 0, len(req.Objectives))
	for _, name := range req.Objectives {
		o, err := objective.ByName(name)
		if err != nil {
			s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(err.Error())})
			return
		}
		objs = append(objs, o)
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > maxJobSearchWorkers {
		workers = maxJobSearchWorkers
	}
	opts := pareto.Options{
		Objectives:  objs,
		PopSize:     req.PopSize,
		Generations: req.Generations,
		Seed:        req.Seed,
		Jobs:        workers,
	}

	hash := img.Fingerprint()
	j, ok := s.jobs.admit(hash)
	if !ok {
		s.met.shed.Add(1)
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.writeReply(w, reply{status: http.StatusTooManyRequests, body: errBody("job table full")})
		return
	}
	s.startJob(j, img, opts)
	s.writeReply(w, reply{status: http.StatusAccepted, body: j.statusBody(false)})
}

// startJob launches the search goroutine for an admitted job.
func (s *Server) startJob(j *searchJob, img *engine.Image, opts pareto.Options) {
	opts.OnFront = func(u pareto.FrontUpdate) { j.pushUpdate(s.met, u) }
	s.met.jobsActive.Add(1)
	s.jobs.wg.Add(1)
	if s.draining() {
		// Drain raced the admission check: the job is registered but must not
		// outlive the drain. Cancel it up front; it finishes as cancelled.
		j.requestCancel("draining")
	}
	go func() {
		defer s.jobs.wg.Done()
		defer j.cancel()
		defer s.jobs.release()
		res, err := func() (res *pareto.Result, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("internal panic: %v", r)
				}
			}()
			return pareto.Search(j.ctx, img, opts)
		}()
		j.finish(s.met, res, err)
	}()
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.met.jobs.Add(1)
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeReply(w, reply{status: http.StatusNotFound, body: errBody("unknown job id")})
		return
	}
	s.writeReply(w, reply{status: http.StatusOK, body: j.statusBody(true)})
}

// handleJobCancel serves DELETE /v1/jobs/{id}. Idempotent: cancelling a
// terminal job reports its final status unchanged.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.met.jobs.Add(1)
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeReply(w, reply{status: http.StatusNotFound, body: errBody("unknown job id")})
		return
	}
	j.requestCancel("cancelled")
	s.writeReply(w, reply{status: http.StatusOK, body: j.statusBody(false)})
}

// handleJobStream serves GET /v1/jobs/{id}/stream: every front update the
// job has produced so far, then live updates as they land, then exactly one
// trailer once the job reaches a terminal state. A subscriber joining after
// completion replays the whole update history and gets the trailer
// immediately — streams are replayable because every line is serialized
// once, at update time.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.met.jobs.Add(1)
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeReply(w, reply{status: http.StatusNotFound, body: errBody("unknown job id")})
		return
	}
	st := ndjson.Start(w, &s.met.streamedBytes)
	s.met.countResponse(http.StatusOK)
	for {
		j.mu.Lock()
		lines := j.lines[st.Lines():]
		status := j.status
		reason := j.reason
		notify := j.notify
		j.mu.Unlock()
		for i, line := range lines {
			st.Line(line, i < len(lines)-1)
		}
		if status != jobRunning {
			st.Finish(ndjson.JobTrailer{Done: true, Status: string(status), Updates: st.Lines(),
				Truncated: status != jobDone, Reason: reason})
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return // client gone; the job itself keeps running
		}
	}
}
