package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// scheduleResponse is the body of successful analyze and reschedule
// responses. The two endpoints share it on purpose: a reschedule served from
// a warm checkpoint is byte-identical to a cold analyze of the edited graph
// (the differential tests pin this), so warm reuse is unobservable in the
// payload.
type scheduleResponse struct {
	Hash              string         `json:"hash"`
	Algorithm         string         `json:"algorithm"`
	Tasks             int            `json:"tasks"`
	Makespan          model.Cycles   `json:"makespan"`
	TotalInterference model.Cycles   `json:"totalInterference"`
	Iterations        int            `json:"iterations"`
	Release           []model.Cycles `json:"release"`
	Response          []model.Cycles `json:"response"`
	Interference      []model.Cycles `json:"interference"`
}

// marshalSchedule serializes a result while the worker still owns it (the
// warm analyzer overwrites its Result on the next run).
func marshalSchedule(hash string, tasks int, res *sched.Result) ([]byte, error) {
	return json.Marshal(&scheduleResponse{
		Hash:              hash,
		Algorithm:         res.Algorithm,
		Tasks:             tasks,
		Makespan:          res.Makespan,
		TotalInterference: res.TotalInterference(),
		Iterations:        res.Iterations,
		Release:           res.Release,
		Response:          res.Response,
		Interference:      res.Interference,
	})
}

// schedReply maps an analysis outcome to a reply: 200 with the schedule,
// 422 for unschedulable inputs (a verdict, not a server failure), 504 for a
// deadline that expired mid-analysis.
func schedReply(ctx context.Context, hash string, tasks int, res *sched.Result, err error, cacheNote string) reply {
	switch {
	case errors.Is(err, sched.ErrCanceled):
		return timeoutReply(ctx)
	case err != nil:
		return reply{status: http.StatusUnprocessableEntity, cacheNote: cacheNote, body: errBody(err.Error())}
	}
	body, merr := marshalSchedule(hash, tasks, res)
	if merr != nil {
		return reply{status: http.StatusInternalServerError, body: errBody(merr.Error())}
	}
	return reply{status: http.StatusOK, cacheNote: cacheNote, body: body}
}

// handleAnalyze serves POST /v1/analyze: graph JSON in, schedule out. The
// graph is compiled once into an immutable engine image and registered in
// the shared fingerprint registry, so later requests for the same
// fingerprint — on any worker — analyze the same compiled image instead of
// re-deriving it from graph bytes.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.met.analyze.Add(1)
	img, err := s.compileBody(r)
	if err != nil {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(err.Error())})
		return
	}
	hash := img.Fingerprint()
	img = s.images.put(hash, img)
	s.dispatch(w, r, func(ctx context.Context, wk *worker) reply {
		return wk.analyze(ctx, s, img, hash)
	})
}

// analyze runs on a worker goroutine. A warm cache entry for the same
// fingerprint serves the request by replaying from the latest checkpoint
// (bit-identical to, and much cheaper than, a cold run); otherwise a fresh
// analyzer over the shared image runs cold and its checkpoints join the
// worker's LRU.
func (wk *worker) analyze(ctx context.Context, s *Server, img *engine.Image, hash string) reply {
	if err := ctx.Err(); err != nil {
		return timeoutReply(ctx)
	}
	e, ok := wk.cache.get(hash)
	warm := ok && e.w.Warm()
	cacheNote := "miss"
	if warm {
		cacheNote = "hit"
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}
	if !ok {
		e = newWarmEntry(hash, img)
		wk.cache.put(e)
	}
	e.acquire() // pin across the analysis: a cache eviction cannot close e.w mid-run
	defer e.release()
	var res *sched.Result
	var err error
	if warm {
		res, err = e.w.Reschedule(ctx) // zero edits: replay from the last checkpoint
	} else {
		res, err = e.w.Analyze(ctx)
	}
	return schedReply(ctx, hash, e.img.NumTasks, res, err, cacheNote)
}

// rescheduleRequest is the body of POST /v1/reschedule: the fingerprint of a
// previously analyzed graph plus an ordered list of adjacent order swaps to
// apply to its per-core execution orders before re-analyzing.
type rescheduleRequest struct {
	Hash string `json:"hash"`
	// Swaps are applied in sequence: each exchanges positions pos and pos+1
	// of core's execution order (the adjacent-swap move).
	Swaps []swapEdit `json:"swaps"`
}

type swapEdit struct {
	Core int `json:"core"`
	Pos  int `json:"pos"`
}

// handleReschedule serves POST /v1/reschedule. The response is
// byte-identical to a cold POST /v1/analyze of the edited graph.
func (s *Server) handleReschedule(w http.ResponseWriter, r *http.Request) {
	s.met.reschedule.Add(1)
	var req rescheduleRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("parsing reschedule request: " + err.Error())})
		return
	}
	if req.Hash == "" {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("missing graph hash")})
		return
	}
	s.dispatch(w, r, func(ctx context.Context, wk *worker) reply {
		return wk.whatIf(ctx, s, req.Hash, req.Swaps, nil)
	})
}

// whatIf runs on a worker goroutine and evaluates one edit scenario against
// a previously registered graph: it is the shared core of the unary
// reschedule endpoint and of every batch item, so the two paths cannot
// drift apart. The worker's warm entry for the fingerprint — bound to the
// shared image from the registry on a cache miss — provides the checkpoint
// baseline; the requested swaps are applied to the analyzer's order
// overlay, the suffix behind the earliest divergence is replayed, and the
// swaps are undone so the baseline stays valid for the next request (the
// apply-evaluate-undo pattern of neighborhood search, stretched across
// requests).
//
// memo, when non-nil, memoizes successful replies by the fingerprint of
// the evaluated configuration. Equal fingerprints mean identical analysis
// inputs mean an identical Result (the repository's core bit-identity
// invariant), so a scenario whose applied orders match an earlier one —
// different swap sequences can reach the same configuration — is answered
// with the earlier reply's bytes without replaying. The batch path passes
// a per-batch map; the map is worker-confined, so no locking. Unary
// requests pass nil: cross-request result reuse would need an invalidation
// story, while a batch scopes the memo to one stream naturally.
func (wk *worker) whatIf(ctx context.Context, s *Server, hash string, swaps []swapEdit, memo map[string]reply) reply {
	if err := ctx.Err(); err != nil {
		return timeoutReply(ctx)
	}
	e, ok := wk.cache.get(hash)
	if !ok {
		img, found := s.images.get(hash)
		if !found {
			return reply{status: http.StatusNotFound,
				body: errBody("unknown graph hash (analyze it first; the registry is an LRU and may have evicted it)")}
		}
		e = newWarmEntry(hash, img)
		wk.cache.put(e)
	}
	e.acquire() // pin across apply-evaluate-undo: eviction cannot close e.w mid-scenario
	defer e.release()
	warm := e.w.Warm()
	cacheNote := "miss"
	if warm {
		cacheNote = "hit"
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}

	// The checkpoint baseline must describe the *unedited* orders before any
	// swap is applied: Reschedule without a baseline would commit the edited
	// orders as the new baseline, which the undo below would then invalidate.
	if !warm {
		if _, err := e.w.Analyze(ctx); err != nil {
			return schedReply(ctx, hash, e.img.NumTasks, nil, err, cacheNote)
		}
	}

	// Validate and apply the swaps to the order overlay, tracking the
	// earliest divergence position per core for the replay.
	ord := e.w.Orders()
	firstEdit := make(map[model.CoreID]int, len(swaps))
	applied := 0
	undo := func() {
		for i := applied - 1; i >= 0; i-- {
			ord.Swap(model.CoreID(swaps[i].Core), swaps[i].Pos)
		}
	}
	for _, sw := range swaps {
		if sw.Core < 0 || sw.Core >= e.img.Cores {
			undo()
			return reply{status: http.StatusBadRequest, cacheNote: cacheNote,
				body: errBody(fmt.Sprintf("swap core %d out of range (platform has %d cores)", sw.Core, e.img.Cores))}
		}
		order := ord.Order(model.CoreID(sw.Core))
		if sw.Pos < 0 || sw.Pos+1 >= len(order) {
			undo()
			return reply{status: http.StatusBadRequest, cacheNote: cacheNote,
				body: errBody(fmt.Sprintf("swap position %d out of range (core %d orders %d tasks)", sw.Pos, sw.Core, len(order)))}
		}
		ord.Swap(model.CoreID(sw.Core), sw.Pos)
		applied++
		if cur, ok := firstEdit[model.CoreID(sw.Core)]; !ok || sw.Pos < cur {
			firstEdit[model.CoreID(sw.Core)] = sw.Pos
		}
	}
	defer undo()

	edits := make([]engine.Edit, 0, len(firstEdit))
	for k := 0; k < e.img.Cores; k++ {
		if pos, ok := firstEdit[model.CoreID(k)]; ok {
			edits = append(edits, engine.Edit{Core: model.CoreID(k), From: pos})
		}
	}
	// The response carries the fingerprint of the *edited* graph — exactly
	// what a cold analyze of that graph would return — computed while the
	// swaps are applied. It is also the memo key: with the image's frozen
	// midstate hasher this costs O(tasks), far below a replay.
	fp := e.img.FingerprintOrders(ord)
	if memo != nil {
		if rep, ok := memo[fp]; ok {
			return rep
		}
	}
	res, err := e.w.Reschedule(ctx, edits...)
	rep := schedReply(ctx, fp, e.img.NumTasks, res, err, cacheNote)
	if memo != nil && rep.status == http.StatusOK {
		memo[fp] = rep
	}
	return rep
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthz.Add(1)
	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: []byte(`{"status":"draining"}`)})
		return
	}
	s.writeReply(w, reply{status: http.StatusOK,
		body: []byte(fmt.Sprintf(`{"status":"ok","workers":%d}`, s.cfg.Workers))})
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReqs.Add(1)
	body, err := s.met.snapshot(s.runner.Queued(), s.runner.Capacity(), s.runner.Completed(), s.images.len())
	if err != nil {
		s.writeReply(w, reply{status: http.StatusInternalServerError, body: errBody(err.Error())})
		return
	}
	s.writeReply(w, reply{status: http.StatusOK, body: body})
}
