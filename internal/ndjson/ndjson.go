// Package ndjson owns the serving tier's streamed-response protocol: an
// application/x-ndjson body of newline-terminated lines followed by exactly
// one {"done":true,...} trailer. /v1/batch streams one result line per edit
// scenario and a BatchTrailer; /v1/jobs/{id}/stream streams front updates
// and a JobTrailer. The shard server writes these streams, the router
// relays and splices them, and the load harness checks them; all of them
// go through this package, so the line format, the flush policy, the
// truncation reasons and the single-trailer rule are decided in one place.
package ndjson

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Truncation reasons a trailer can carry.
const (
	ReasonDeadline    = "deadline exceeded"
	ReasonClientGone  = "client gone"
	ReasonDraining    = "draining"
	ReasonInterrupted = "interrupted"
	ReasonShardFailed = "shard failed"
)

// Reason names why a stream stopped early, by fixed precedence — deadline
// beats client gone beats draining — so the same race always reports the
// same reason. With none of them observed the stream was interrupted.
func Reason(ctx context.Context, draining bool) string {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return ReasonDeadline
	case ctx.Err() != nil:
		return ReasonClientGone
	case draining:
		return ReasonDraining
	default:
		return ReasonInterrupted
	}
}

// BatchTrailer ends a /v1/batch stream. Completed counts the result lines
// written above it; a truncated batch names the interruption in Reason.
type BatchTrailer struct {
	Done      bool   `json:"done"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
}

// Batch returns the trailer for a batch of items after completed result
// lines. A non-empty reason marks the batch truncated even when every line
// arrived; an incomplete batch without one is ReasonInterrupted.
func Batch(items, completed int, reason string) BatchTrailer {
	t := BatchTrailer{Done: true, Items: items, Completed: completed,
		Truncated: reason != "" || completed < items, Reason: reason}
	if t.Truncated && t.Reason == "" {
		t.Reason = ReasonInterrupted
	}
	return t
}

// JobTrailer ends a /v1/jobs/{id}/stream stream: the job's terminal status,
// the number of update lines above it, and whether the search stopped
// before running to completion.
type JobTrailer struct {
	Done      bool   `json:"done"`
	Status    string `json:"status"`
	Updates   int    `json:"updates"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
}

// JobLost is the trailer for a job stream whose owning shard went away
// after updates lines: the search's outcome is unknown, so it reads as
// failed, and the reason says the shard, not the search, failed.
func JobLost(updates int) JobTrailer {
	return JobTrailer{Done: true, Status: "failed", Updates: updates, Truncated: true, Reason: ReasonShardFailed}
}

// resultPrefix starts every batch result line. Readers rely on it: the
// router rewrites a line's index by splicing the digits after it.
const resultPrefix = `{"index":`

// AppendResult appends batch result line index — the status the scenario
// would have received as a unary response, then the raw result JSON on
// success or the error message otherwise — with its newline. The bytes equal
// json.Marshal of {index, status, result, error} with empty fields omitted.
func AppendResult(dst []byte, index, status int, result json.RawMessage, errMsg string) []byte {
	dst = append(dst, resultPrefix...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	if len(result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, result...)
	}
	if errMsg != "" {
		msg, _ := json.Marshal(errMsg) // a string always marshals
		dst = append(dst, `,"error":`...)
		dst = append(dst, msg...)
	}
	return append(dst, '}', '\n')
}

// ResultIndex returns the index of a batch result line and the length of
// its {"index":N prefix; ok is false for any line that does not start with
// that prefix.
func ResultIndex(line []byte) (index, prefixLen int, ok bool) {
	if !bytes.HasPrefix(line, []byte(resultPrefix)) {
		return 0, 0, false
	}
	i := len(resultPrefix)
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	index, err := strconv.Atoi(string(line[len(resultPrefix):i]))
	if err != nil {
		return 0, 0, false
	}
	return index, i, true
}

// RewriteIndex returns a copy of a batch result line numbered index instead
// of its own: only the index digits change, every other byte passes through.
// A line without the result prefix is not a result line, and ok is false.
func RewriteIndex(line []byte, index int) (out []byte, ok bool) {
	_, n, ok := ResultIndex(line)
	if !ok {
		return nil, false
	}
	out = make([]byte, 0, len(line)+4)
	out = append(out, resultPrefix...)
	out = strconv.AppendInt(out, int64(index), 10)
	return append(out, line[n:]...), true
}

// IsTrailer reports whether a line is a stream's trailer. Both trailer
// structs encode Done first, so a trailer always starts {"done":true.
func IsTrailer(line []byte) bool {
	return bytes.HasPrefix(line, []byte(`{"done":true`))
}

// Stream is one streamed NDJSON response. Start commits the 200 header;
// Line writes result lines; Finish writes the one trailer. A Stream is used
// by a single goroutine.
type Stream struct {
	w        http.ResponseWriter
	flusher  http.Flusher
	written  *atomic.Int64
	lines    int
	finished bool
}

// Start commits the response as an NDJSON stream: it sets the content type
// and writes the 200 status. When written is non-nil, every byte the stream
// writes is added to it.
func Start(w http.ResponseWriter, written *atomic.Int64) *Stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &Stream{w: w, flusher: flusher, written: written}
}

// Line writes one newline-terminated line and counts it. The flush policy
// is the same for every stream: flush when the producer has no further line
// ready (more is false), so a fast producer does not force one syscall per
// line while a slow one still delivers every line as it lands. Lines after
// the trailer are dropped.
func (s *Stream) Line(line []byte, more bool) {
	if s.finished {
		return
	}
	s.write(line)
	s.lines++
	if !more {
		s.flush()
	}
}

// Lines returns the number of lines written so far, the trailer excluded.
func (s *Stream) Lines() int { return s.lines }

// Finish writes trailer as the stream's last line and flushes. Only the
// first Finish (or FinishRaw) writes; later calls do nothing, so every exit
// path may end the stream without checking whether another already did.
func (s *Stream) Finish(trailer any) {
	b, err := json.Marshal(trailer)
	if err != nil {
		return // the trailer types always marshal
	}
	s.FinishRaw(append(b, '\n'))
}

// FinishRaw is Finish for a trailer that is already encoded, such as one
// relayed verbatim from a shard.
func (s *Stream) FinishRaw(line []byte) {
	if s.finished {
		return
	}
	s.finished = true
	s.write(line)
	s.flush()
}

func (s *Stream) write(b []byte) {
	s.w.Write(b)
	if s.written != nil {
		s.written.Add(int64(len(b)))
	}
}

func (s *Stream) flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

// Reader reads the lines of a stream produced elsewhere.
type Reader struct{ br *bufio.Reader }

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, 32<<10)} }

// Next returns the next complete line, newline included, and whether a
// further complete line is already buffered — the "more" a relay passes to
// Stream.Line. A final line without its newline is incomplete and is
// reported as io.ErrUnexpectedEOF; a clean end of input is io.EOF.
func (r *Reader) Next() (line []byte, more bool, err error) {
	line, err = r.br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, err
	}
	buffered, _ := r.br.Peek(r.br.Buffered())
	return line, bytes.IndexByte(buffered, '\n') >= 0, nil
}

// CheckBatch validates a whole /v1/batch response body as a load client
// sees it: every line must be JSON, every result line must carry status
// 200, and no trailer may be truncated.
func CheckBatch(body []byte) error {
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var l struct {
			Status    int  `json:"status"`
			Done      bool `json:"done"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return err
		}
		if l.Done && l.Truncated {
			return errors.New("batch truncated")
		}
		if !l.Done && l.Status != http.StatusOK {
			return fmt.Errorf("item status %d", l.Status)
		}
	}
	return nil
}
