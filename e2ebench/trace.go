package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client's request id to the router, so the
// client span and the router span of one request share an identifier. The
// router does not forward it to the shards, so shard spans carry none.
const requestIDHeader = "X-Bench-Request-Id"

// span is one timed call into a layer, recorded from outside the layer.
// Name is "<layer>.<call>", ID groups the spans of one operation or client
// request (0 when the benchmark cannot see both ends), and Lane separates
// concurrent callers in the trace viewer.
type span struct {
	Name  string
	ID    uint64
	Lane  int
	Start time.Duration // since the tracer's origin
	End   time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }
func (s span) iv() interval       { return interval{s.Start, s.End} }
func (s span) layer() string      { return s.Name[:indexDot(s.Name)] }
func (s span) ms() float64        { return ms(s.dur()) }

func indexDot(name string) int {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return i
		}
	}
	return len(name)
}

// tracer keeps spans in memory while it is on; they are written out once,
// after the run. A nil tracer records nothing, which is how the untraced
// run and the untraced half of a traced run stay free of tracing work.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// set turns recording on or off; it is a no-op on a nil tracer.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// record stores a finished span when tracing is on.
func (t *tracer) record(name string, id uint64, lane int, start, end time.Time) {
	if !t.enabled() {
		return
	}
	s := span{Name: name, ID: id, Lane: lane, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f and records it as a span.
func (t *tracer) timed(name string, id uint64, lane int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, id, lane, start, end)
	return end.Sub(start)
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap returns h with a span around every request it serves, named by the
// prefix and the path's last element ("shard.batch"). The span's id
// is the client's request id when the request carries one, and then its
// lane is offset by the client the id names, so concurrent requests from
// different clients land on different lanes.
func (t *tracer) wrap(prefix string, lane int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(prefix+"."+path.Base(r.URL.Path), id, lane+int(id>>32), start, time.Now())
	})
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open. Each span is a complete ("X") event; its layer
// is the category and its id goes into args.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]uint64 `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{Name: s.Name, Cat: s.layer(), Ph: "X", PID: 1, TID: s.Lane,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3}
		if s.ID != 0 {
			e.Args = map[string]uint64{"id": s.ID}
		}
		events = append(events, e)
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that the other spans of the same request id lying inside it cover. For
// a cold operation those are its decode, compile and analysis spans, for a
// client request the router span.
func selfTimes(spans []span) []time.Duration {
	byID := map[uint64][]int{}
	for i, s := range spans {
		if s.ID != 0 {
			byID[s.ID] = append(byID[s.ID], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var kids []interval
		for _, j := range byID[s.ID] {
			if j != i && spans[j].Start >= s.Start && spans[j].End <= s.End && spans[j].dur() < s.dur() {
				kids = append(kids, spans[j].iv())
			}
		}
		self[i] = selfTime(s.iv(), kids)
	}
	return self
}

// coverage is the share, in percent, of the time of the spans named with
// prefix that their child spans cover.
func coverage(spans []span, prefix string) float64 {
	self := selfTimes(spans)
	var total, covd time.Duration
	for i, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.dur()
			covd += s.dur() - self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covd) / float64(total) * 100
}

// printSpanSummary prints one row per span name: count, median duration,
// total duration and total self time, sorted by name.
func printSpanSummary(w io.Writer, spans []span) {
	selfs := selfTimes(spans)
	by := map[string]sample{}
	self := map[string]time.Duration{}
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], s.ms())
		self[s.Name] += selfs[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "median ms", "total ms", "self ms")
	for _, n := range names {
		s := by[n]
		fmt.Fprintf(w, "  %-28s %8d %12.4f %12.2f %12.2f\n", n, len(s), s.median(), s.sum(), ms(self[n]))
	}
}
