package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/ndjson"
	"github.com/mia-rt/mia/internal/wire"
)

// batchRequest is the JSON body of POST /v1/batch: one graph — by value or
// by the fingerprint of an earlier analyze — plus an array of edit
// scenarios to evaluate against it. Exactly one of Hash/Graph must be set.
//
// With Content-Type: application/x-mia-wire the body is instead a binary
// wire blob immediately followed by the JSON object {"items":[...]} — the
// blob's header states its exact size, so the two parts need no separator.
type batchRequest struct {
	Hash  string          `json:"hash,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
	Items []batchItem     `json:"items"`
}

// batchItem is one edit scenario: a swap sequence with the same semantics
// as the unary reschedule endpoint (each batch item is evaluated by exactly
// the code path a unary request takes). An empty swap list re-evaluates the
// baseline orders.
type batchItem struct {
	Swaps []swapEdit `json:"swaps"`
}

// handleBatch serves POST /v1/batch. The graph is resolved and compiled on
// the handler goroutine (same as analyze), then the scenario list is
// admitted to the worker pool as ONE job: a batch occupies one queue slot
// and one worker for its whole duration, so admission control and
// fairness reason about batches the same way they reason about unary
// requests — a full queue answers 429 before the first byte is streamed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batch.Add(1)
	hash, items, errRep := s.parseBatch(r)
	if errRep != nil {
		s.writeReply(w, *errRep)
		return
	}
	s.met.observeBatchItems(len(items))
	s.streamBatch(w, r, hash, items)
}

// parseBatch resolves a batch request body into a registered image
// fingerprint plus the scenario list. On any failure it returns the reply
// to send instead.
func (s *Server) parseBatch(r *http.Request) (string, []batchItem, *reply) {
	fail := func(status int, msg string) (string, []batchItem, *reply) {
		return "", nil, &reply{status: status, body: errBody(msg)}
	}
	var img *engine.Image
	var items []batchItem
	if wire.IsContentType(r.Header.Get("Content-Type")) {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
		if err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		n, err := wire.Size(body)
		if err != nil || n > len(body) {
			return fail(http.StatusBadRequest, "batch body must start with a wire graph blob")
		}
		if img, err = engine.CompileFromWire(body[:n], s.cfg.Sched); err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		s.met.ingestWire.Add(1)
		var rest struct {
			Items []batchItem `json:"items"`
		}
		dec := json.NewDecoder(bytes.NewReader(body[n:]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rest); err != nil {
			return fail(http.StatusBadRequest, "parsing batch items after wire blob: "+err.Error())
		}
		img = s.images.put(img.Fingerprint(), img)
		items = rest.Items
	} else {
		var req batchRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return fail(http.StatusBadRequest, "parsing batch request: "+err.Error())
		}
		var rep *reply
		if img, rep = s.resolveGraph(req.Hash, req.Graph); rep != nil {
			return "", nil, rep
		}
		items = req.Items
	}
	if len(items) == 0 {
		return fail(http.StatusBadRequest, "batch has no items")
	}
	return img.Fingerprint(), items, nil
}

// resolveGraph turns the graph part of a JSON request body — the
// fingerprint of an earlier upload or an inline graph object — into a
// compiled image. An inline graph is compiled and registered, and the
// canonical image the registry returns is used, so concurrent uploads of one
// graph share one image. The body size cap was already applied when the
// enclosing request was read. On failure it returns the reply to send
// instead.
func (s *Server) resolveGraph(hash string, graph json.RawMessage) (*engine.Image, *reply) {
	fail := func(status int, msg string) (*engine.Image, *reply) {
		return nil, &reply{status: status, body: errBody(msg)}
	}
	switch {
	case hash != "" && len(graph) > 0:
		return fail(http.StatusBadRequest, "set either hash or graph, not both")
	case hash != "":
		img, ok := s.images.get(hash)
		if !ok {
			return fail(http.StatusNotFound,
				"unknown graph hash (analyze it first; the registry is an LRU and may have evicted it)")
		}
		return img, nil
	case len(graph) > 0:
		g, err := model.ReadJSON(bytes.NewReader(graph))
		if err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		img, err := engine.Compile(g, s.cfg.Sched)
		if err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		s.met.ingestJSON.Add(1)
		return s.images.put(img.Fingerprint(), img), nil
	default:
		return fail(http.StatusBadRequest, "missing graph: set hash or graph")
	}
}

// streamBatch admits the scenario list as one worker job and streams its
// NDJSON results. The line channel is buffered for the full batch, so the
// worker never blocks on the handler: a slow or gone client cannot pin a
// worker, and on cancellation every line computed so far is still in the
// channel for the handler's final drain.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, hash string, items []batchItem) {
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	lines := make(chan []byte, len(items)+1)
	admitted := s.runner.TrySubmit(func(wk *worker) {
		if s.gate != nil {
			s.gate()
		}
		defer close(lines)
		// Per-batch result memo: scenarios that evaluate to the same
		// configuration (same orders fingerprint) are answered once — see
		// whatIf. Worker-confined, dropped with the batch.
		memo := make(map[string]reply, len(items))
		for i := range items {
			if ctx.Err() != nil {
				return // handler writes the truncation trailer
			}
			if s.itemGate != nil {
				s.itemGate(i)
			}
			swaps := items[i].Swaps
			rep := safeJob(ctx, wk, func(ctx context.Context, wk *worker) reply {
				return wk.whatIf(ctx, s, hash, swaps, memo)
			})
			lines <- batchLine(i, rep)
		}
	})
	if !admitted {
		s.met.shed.Add(1)
		if s.draining() {
			s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
			return
		}
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.writeReply(w, reply{status: http.StatusTooManyRequests, body: errBody("queue full")})
		return
	}

	st := ndjson.Start(w, &s.met.streamedBytes)
	s.met.countResponse(http.StatusOK)
stream:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break stream
			}
			st.Line(line, len(lines) > 0)
		case <-ctx.Done():
			// Interrupted — client disconnect or deadline. Write every line
			// already computed (they sit in the buffered channel), then
			// stop; the in-flight item, if any, is abandoned to the worker,
			// which observes the dead context and returns.
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						break stream
					}
					st.Line(line, true)
				default:
					break stream
				}
			}
		}
	}

	reason := ""
	if st.Lines() < len(items) {
		reason = ndjson.Reason(ctx, s.draining())
	}
	st.Finish(ndjson.Batch(len(items), st.Lines(), reason))
	s.met.observeLatency(time.Since(start))
	s.met.observeCompletion(time.Now())
}

// batchLine encodes a unary-shaped reply as result line i: the schedule
// under "result" on success, the reply's error message otherwise.
func batchLine(i int, rep reply) []byte {
	if rep.status == http.StatusOK {
		return ndjson.AppendResult(nil, i, rep.status, rep.body, "")
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(rep.body, &e) != nil || e.Error == "" {
		e.Error = http.StatusText(rep.status)
	}
	return ndjson.AppendResult(nil, i, rep.status, nil, e.Error)
}
