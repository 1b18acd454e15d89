// Package srv exercises the handlerflow analyzer inside its scope (the
// package path carries the internal/server fragment): every handler must
// write exactly one response status per path.
package srv

import (
	"io"
	"net/http"

	"example.com/hflow/internal/ndjson"
)

// handleMissing forgets to reply on the early-return path.
func handleMissing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		return // want handlerflow:"handler path writes no response status"
	}
	w.WriteHeader(http.StatusOK)
}

// handleDouble writes two explicit statuses on the same path.
func handleDouble(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.WriteHeader(http.StatusTeapot) // want handlerflow:"WriteHeader writes a second response status"
}

// handleImplicit commits an implicit 200 with the body write, then tries to
// set a status — the order bug net/http only logs at runtime.
func handleImplicit(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("hello"))
	w.WriteHeader(http.StatusAccepted) // want handlerflow:"WriteHeader writes a second response status"
}

// reply is the funnel helper: its summary is exactly one commit.
func reply(w http.ResponseWriter, code int, msg string) {
	w.WriteHeader(code)
	w.Write([]byte(msg))
}

// handleFunnel exits through the funnel on every path: clean.
func handleFunnel(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/bad" {
		reply(w, http.StatusBadRequest, "bad request")
		return
	}
	reply(w, http.StatusOK, "ok")
}

// handleDoubleFunnel funnels twice on one path; the helper's summary makes
// the second call a definite second status.
func handleDoubleFunnel(w http.ResponseWriter, r *http.Request) {
	reply(w, http.StatusOK, "ok")
	reply(w, http.StatusOK, "again") // want handlerflow:"srv\\.reply writes a second response status"
}

// handleError mixes the stdlib reply helpers with the funnel: clean.
func handleError(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/missing" {
		http.NotFound(w, r)
		return
	}
	if r.Method == http.MethodPost {
		http.Error(w, "no posts", http.StatusMethodNotAllowed)
		return
	}
	reply(w, http.StatusOK, "ok")
}

// handleClosure binds the writer in a local closure; the closure's summary
// travels to its call sites.
func handleClosure(w http.ResponseWriter, r *http.Request) {
	status := func(code int) {
		w.WriteHeader(code)
	}
	status(http.StatusOK)
	status(http.StatusTeapot) // want handlerflow:"status writes a second response status"
}

// handleMethod exercises the method-handler form.
type api struct{}

func (api) handleZero(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodDelete {
		return // want handlerflow:"handler path writes no response status"
	}
	w.WriteHeader(http.StatusOK)
}

// register exercises the inline-literal handler form.
func register(mux *http.ServeMux) {
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("q") == "" {
			return // want handlerflow:"handler path writes no response status"
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// handleMaybe stays quiet by design: after the merge the write count is
// [0,1], so the final funnel call is only *possibly* a second status, and
// the analyzer reports definite violations only.
func handleMaybe(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/eager" {
		w.WriteHeader(http.StatusOK)
	}
	reply(w, http.StatusOK, "done")
}

// handleLimited pins the MaxBytesReader refinement: wrapping the body hands
// the writer over without writing a status, so the error-path reply is the
// first (and only) commit. Clean.
func handleLimited(w http.ResponseWriter, r *http.Request) {
	if _, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64)); err != nil {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJustified demonstrates the escape hatch.
func handleJustified(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	//mialint:ignore handlerflow -- probe endpoint: the duplicate write exercises the client's superfluous-header tolerance
	w.WriteHeader(http.StatusTeapot)
}

// handleStreamThenError starts a stream through the helper type in another
// package, then tries to reply with an error: the stream already committed
// the 200.
func handleStreamThenError(w http.ResponseWriter, r *http.Request) {
	st := ndjson.Start(w)
	if r.URL.Path == "/late" {
		reply(w, http.StatusInternalServerError, "too late") // want handlerflow:"srv\\.reply writes a second response status"
		return
	}
	st.Finish()
}

// handleStreamFinish starts a stream, writes lines and finishes it: one
// commit on every path. Clean.
func handleStreamFinish(w http.ResponseWriter, r *http.Request) {
	st := ndjson.Start(w)
	st.Line([]byte("{\"index\":0}\n"))
	st.Finish()
}
