package ndjson

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleTrailerOnEveryExit drives a stream to each way it can end and
// checks that exactly one trailer — the first one — closes the body, and
// that lines after it are dropped.
func TestSingleTrailerOnEveryExit(t *testing.T) {
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(1, 0))
	defer cancelExpired()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	live := context.Background()

	cases := []struct {
		name     string
		ctx      context.Context
		draining bool
		lines    int
		want     string
	}{
		{"normal end", live, false, 3, `{"done":true,"items":3,"completed":3,"truncated":false}`},
		{"deadline", expired, false, 1, `{"done":true,"items":3,"completed":1,"truncated":true,"reason":"deadline exceeded"}`},
		{"client gone", gone, false, 2, `{"done":true,"items":3,"completed":2,"truncated":true,"reason":"client gone"}`},
		{"draining", live, true, 0, `{"done":true,"items":3,"completed":0,"truncated":true,"reason":"draining"}`},
		{"interrupted", live, false, 2, `{"done":true,"items":3,"completed":2,"truncated":true,"reason":"interrupted"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			var written atomic.Int64
			st := Start(rr, &written)
			for i := 0; i < tc.lines; i++ {
				st.Line(AppendResult(nil, i, http.StatusOK, json.RawMessage(`{}`), ""), false)
			}
			reason := ""
			if st.Lines() < 3 {
				reason = Reason(tc.ctx, tc.draining)
			}
			st.Finish(Batch(3, st.Lines(), reason))
			// A second Finish, a raw trailer and a late line all lose.
			st.Finish(Batch(3, 0, ReasonShardFailed))
			st.FinishRaw([]byte("{\"done\":true}\n"))
			st.Line([]byte("{\"index\":9}\n"), false)

			if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" || rr.Code != http.StatusOK {
				t.Fatalf("header %q status %d", ct, rr.Code)
			}
			lines := strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n")
			if len(lines) != tc.lines+1 {
				t.Fatalf("%d lines, want %d results + 1 trailer:\n%s", len(lines), tc.lines, rr.Body.String())
			}
			if got := lines[tc.lines]; got != tc.want {
				t.Errorf("trailer %s, want %s", got, tc.want)
			}
			if written.Load() != int64(rr.Body.Len()) {
				t.Errorf("written counter %d, body %d bytes", written.Load(), rr.Body.Len())
			}
		})
	}
}

// TestReasonPrecedence: deadline beats client gone beats draining beats
// interrupted, whatever else holds at the same time.
func TestReasonPrecedence(t *testing.T) {
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(1, 0))
	defer cancelExpired()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	cases := []struct {
		ctx      context.Context
		draining bool
		want     string
	}{
		{expired, true, ReasonDeadline},
		{expired, false, ReasonDeadline},
		{gone, true, ReasonClientGone},
		{gone, false, ReasonClientGone},
		{context.Background(), true, ReasonDraining},
		{context.Background(), false, ReasonInterrupted},
	}
	for _, tc := range cases {
		if got := Reason(tc.ctx, tc.draining); got != tc.want {
			t.Errorf("Reason(err=%v, draining=%v) = %q, want %q", tc.ctx.Err(), tc.draining, got, tc.want)
		}
	}
}

// TestBatchTrailer pins the trailer rule: a complete batch without a reason
// is untruncated, a reason always truncates, and an incomplete batch
// without one is interrupted.
func TestBatchTrailer(t *testing.T) {
	cases := []struct {
		items, completed int
		reason           string
		want             BatchTrailer
	}{
		{4, 4, "", BatchTrailer{Done: true, Items: 4, Completed: 4}},
		{4, 4, ReasonShardFailed, BatchTrailer{Done: true, Items: 4, Completed: 4, Truncated: true, Reason: ReasonShardFailed}},
		{4, 2, "", BatchTrailer{Done: true, Items: 4, Completed: 2, Truncated: true, Reason: ReasonInterrupted}},
		{4, 2, ReasonDeadline, BatchTrailer{Done: true, Items: 4, Completed: 2, Truncated: true, Reason: ReasonDeadline}},
	}
	for _, tc := range cases {
		if got := Batch(tc.items, tc.completed, tc.reason); got != tc.want {
			t.Errorf("Batch(%d, %d, %q) = %+v, want %+v", tc.items, tc.completed, tc.reason, got, tc.want)
		}
	}
	b, _ := json.Marshal(JobLost(5))
	if want := `{"done":true,"status":"failed","updates":5,"truncated":true,"reason":"shard failed"}`; string(b) != want {
		t.Errorf("JobLost(5) = %s, want %s", b, want)
	}
}

// TestAppendResultMatchesMarshal: the result-line encoder writes the same
// bytes as json.Marshal of the struct the batch path used to marshal, for
// successes and for errors (HTML-escaped, like json.Marshal does).
func TestAppendResultMatchesMarshal(t *testing.T) {
	type batchLine struct {
		Index  int             `json:"index"`
		Status int             `json:"status"`
		Result json.RawMessage `json:"result,omitempty"`
		Error  string          `json:"error,omitempty"`
	}
	cases := []batchLine{
		{Index: 0, Status: 200, Result: json.RawMessage(`{"makespan":42,"tasks":[1,2,3]}`)},
		{Index: 17, Status: 200},
		{Index: 3, Status: 400, Error: "swap 2: pos 9 out of range"},
		{Index: 1234, Status: 422, Error: `quote " and <html> & "unicode" é`},
		{Index: 5, Status: 599},
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := AppendResult(nil, c.Index, c.Status, c.Result, c.Error)
		if string(got) != string(want) {
			t.Errorf("AppendResult(%+v)\n got %s\nwant %s", c, got, want)
		}
	}
}

// TestRewriteIndex pins the splice: only the index digits change, every
// other byte passes through, and a line without the {"index":N prefix is
// refused rather than re-encoded.
func TestRewriteIndex(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{`{"index":0,"status":200,"result":{"x":1}}`, `{"index":42,"status":200,"result":{"x":1}}`, true},
		{`{"index":17,"status":400,"error":"bad"}`, `{"index":42,"status":400,"error":"bad"}`, true},
		{`{"status":200,"index":3,"result":{}}`, ``, false},
		{`{"index":-1,"status":200}`, ``, false},
		{`{"index":"7","status":200}`, ``, false},
		{`{"done":true,"items":1,"completed":1,"truncated":false}`, ``, false},
	}
	for _, tc := range cases {
		got, ok := RewriteIndex([]byte(tc.in), 42)
		if ok != tc.ok || string(got) != tc.want {
			t.Errorf("RewriteIndex(%s) = %s, %v; want %s, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestReaderMore: Next reports "more" only when a complete further line is
// already buffered, and an unterminated last line is an incomplete stream.
func TestReaderMore(t *testing.T) {
	rd := NewReader(strings.NewReader("a\nb\nc"))
	line, more, err := rd.Next()
	if string(line) != "a\n" || !more || err != nil {
		t.Fatalf("first: %q %v %v", line, more, err)
	}
	line, more, err = rd.Next()
	if string(line) != "b\n" || more || err != nil {
		t.Fatalf("second: %q %v %v (the partial \"c\" is not a ready line)", line, more, err)
	}
	if _, _, err = rd.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial last line: err %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err = NewReader(strings.NewReader("")).Next(); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF", err)
	}
}

// TestCheckBatch pins which whole batch bodies a load client accepts: the
// same set its line-by-line check always accepted, a missing trailer
// included.
func TestCheckBatch(t *testing.T) {
	const ok200 = `{"index":0,"status":200,"result":{}}` + "\n"
	cases := []struct {
		name, body string
		wantErr    string
	}{
		{"complete", ok200 + `{"done":true,"items":1,"completed":1,"truncated":false}` + "\n", ""},
		{"no trailer", ok200, ""},
		{"no trailing newline", ok200 + `{"done":true,"items":1,"completed":1,"truncated":false}`, ""},
		{"truncated", ok200 + `{"done":true,"items":2,"completed":1,"truncated":true,"reason":"client gone"}` + "\n", "batch truncated"},
		{"item error", `{"index":0,"status":400,"error":"bad swap"}` + "\n", "item status 400"},
		{"statusless line", `{}` + "\n", "item status 0"},
		{"empty body", "", "unexpected end of JSON input"},
		{"malformed", `{"index":0,` + "\n", "unexpected end of JSON input"},
	}
	for _, tc := range cases {
		got, ref := errString(CheckBatch([]byte(tc.body))), errString(lineByLineCheck(tc.body))
		if got != tc.wantErr || ref != tc.wantErr {
			t.Errorf("%s: CheckBatch error %q, line-by-line reference %q, want %q", tc.name, got, ref, tc.wantErr)
		}
	}
}

// lineByLineCheck is the load client's original batch check, kept as the
// reference CheckBatch must agree with.
func lineByLineCheck(body string) error {
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		var l struct {
			Status    int  `json:"status"`
			Done      bool `json:"done"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
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

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
