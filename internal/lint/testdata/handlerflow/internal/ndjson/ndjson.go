// Package ndjson mirrors the serving tier's stream helper: a type in a
// package outside the handlerflow scope that commits the response status on
// a handler's behalf.
package ndjson

import "net/http"

type Stream struct {
	w        http.ResponseWriter
	finished bool
}

// Start commits the 200 status.
func Start(w http.ResponseWriter) *Stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &Stream{w: w}
}

func (s *Stream) Line(b []byte) {
	if s.finished {
		return
	}
	s.w.Write(b)
}

// Finish writes the trailer once.
func (s *Stream) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.w.Write([]byte("{\"done\":true}\n"))
}
