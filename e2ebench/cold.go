package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the incremental backend
	"github.com/mia-rt/mia/internal/wire"
)

const (
	coldLayers, coldLayerSize = 128, 64 // the paper's n = 8192 shape
	coldPool                  = 4       // distinct graphs per run
)

// coldGraph is one pool entry: the generated graph, kept to check the
// schedules against, and its wire blob, the only thing an operation reads.
type coldGraph struct {
	g    *model.Graph
	blob []byte
}

func coldSetup(ctx context.Context, seed int64) ([]coldGraph, error) {
	pool := make([]coldGraph, coldPool)
	for i := range pool {
		p := gen.NewParams(coldLayers, coldLayerSize)
		p.Seed = seed*coldPool + int64(i)
		g, err := gen.Layered(p)
		if err != nil {
			return nil, err
		}
		pool[i] = coldGraph{g: g, blob: wire.EncodeGraph(g)}
	}
	// Warm-up: one full operation, so heap sizing and lazy runtime set-up
	// are not charged to the first timed operation.
	if _, err := coldOp(ctx, engine.MustNew(engine.Incremental), pool[0].blob, nil, 0); err != nil {
		return nil, err
	}
	return pool, nil
}

// coldTimes are the stage times of one operation.
type coldTimes struct{ decode, compile, analyze, total time.Duration }

type coldResult struct {
	res *sched.Result
	t   coldTimes
}

// coldOp is one operation: wire blob to schedule.
func coldOp(ctx context.Context, eng *engine.Engine, blob []byte, tr *tracer, id uint64) (coldResult, error) {
	t0 := time.Now()
	raw, err := wire.Decode(blob)
	if err != nil {
		return coldResult{}, fmt.Errorf("wire.Decode: %w", err)
	}
	t1 := time.Now()
	img, err := engine.CompileRaw(raw, sched.Options{})
	if err != nil {
		return coldResult{}, fmt.Errorf("engine.CompileRaw: %w", err)
	}
	t2 := time.Now()
	res, err := eng.Analyze(ctx, img)
	if err != nil {
		return coldResult{}, fmt.Errorf("Engine.Analyze: %w", err)
	}
	t3 := time.Now()
	tr.record("wire.Decode", id, 1, t0, t1)
	tr.record("engine.CompileRaw", id, 1, t1, t2)
	tr.record("kernel.Analyze", id, 1, t2, t3)
	tr.record("cold.op", id, 0, t0, t3)
	return coldResult{res, coldTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)}}, nil
}

// digest hashes the schedule a result describes: makespan, release dates,
// response times and interference of every task.
func digest(r *sched.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v model.Cycles) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(r.Makespan)
	for _, vs := range [][]model.Cycles{r.Release, r.Response, r.Interference} {
		for _, v := range vs {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cloneResult deep-copies the fields sched.Check reads, so a result can be
// checked after the analyzer that produced it has moved on.
func cloneResult(r *sched.Result) *sched.Result {
	banks := 0
	if len(r.PerBank) > 0 {
		banks = len(r.PerBank[0])
	}
	c := sched.NewResult(r.Algorithm, len(r.Release), banks)
	copy(c.Release, r.Release)
	copy(c.Response, r.Response)
	copy(c.Interference, r.Interference)
	for i := range r.PerBank {
		copy(c.PerBank[i], r.PerBank[i])
	}
	c.Makespan = r.Makespan
	c.Iterations = r.Iterations
	return c
}

func runCold(ctx context.Context, cfg *config, rep *report) error {
	pool, setup, err := timedSetup(func() ([]coldGraph, error) { return coldSetup(ctx, cfg.seed) },
		func([]coldGraph) {})
	if err != nil {
		return err
	}
	rep.setup = setup
	eng := engine.MustNew(engine.Incremental)

	// The first schedule of each pool graph is kept and sched.Check'ed
	// after the timed window; every later schedule of the graph must be
	// bit-identical to it.
	first := make([]*sched.Result, len(pool))
	digests := make([]string, len(pool))
	var dec, comp, ana sample
	var nsPerEvent []float64
	ops := 0
	for _, win := range cfg.windows() {
		cfg.tr.set(win.traced)
		c0 := readCounters()
		start := time.Now()
		n := 0
		for time.Since(start) < win.d {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := ops % len(pool)
			ops++
			n++
			rep.attempted++
			out, err := coldOp(ctx, eng, pool[i].blob, cfg.tr, uint64(ops))
			if err != nil {
				rep.fail("graph %d: %v", i, err)
				continue
			}
			d := digest(out.res)
			switch {
			case first[i] == nil:
				first[i], digests[i] = cloneResult(out.res), d
			case d != digests[i]:
				rep.fail("graph %d: schedule digest %s differs from the first run's %s", i, d[:16], digests[i][:16])
			}
			if win.traced {
				rep.traced.add(out.t.total)
				dec.add(out.t.decode)
				comp.add(out.t.compile)
				ana.add(out.t.analyze)
				nsPerEvent = append(nsPerEvent, float64(out.t.analyze.Nanoseconds())/float64(out.res.Iterations))
			} else {
				rep.op.add(out.t.total)
				rep.work += float64(len(out.res.Release))
			}
		}
		if !win.traced {
			rep.untracedWindow(c0, n)
		}
	}
	cfg.tr.set(false)

	var checkMs sample
	for i, r := range first {
		if r == nil {
			continue // only reachable when every run of the graph failed, already counted
		}
		start := time.Now()
		if err := sched.Check(pool[i].g, sched.Options{}, r); err != nil {
			rep.fail("graph %d: sched.Check: %v", i, err)
		}
		checkMs.add(time.Since(start))
	}

	all := sha256.New()
	for _, d := range digests {
		all.Write([]byte(d))
	}
	events := 0
	if first[0] != nil {
		events = first[0].Iterations
	}
	rep.fact("cold.result_digest", "%x", all.Sum(nil)[:12])
	rep.fact("kernel.events", "%d", events)
	rep.fact("cold.pool", "%d graphs × %d tasks", len(pool), coldLayers*coldLayerSize)

	rep.row("cold.graph_ms.p50", rep.op.median(), "ms", fmt.Sprintf("n=%d", len(rep.op)))
	rep.tailRow("cold.graph_ms", rep.op, 0.95)
	rep.row("cold.tasks_per_s", rep.work/rep.wall.Seconds(), "tasks/s", "")

	if cfg.tr != nil {
		rep.layer["wire.decode_ms"] = dec.median()
		rep.layer["engine.compile_ms"] = comp.median()
		rep.layer["kernel.analyze_ms"] = ana.median()
		rep.layer["kernel.events"] = float64(events)
		rep.layer["kernel.ns_per_event"] = sample(nsPerEvent).median()
		rep.layer["check.ms"] = checkMs.median()
		rep.spans = cfg.tr.all()
		rep.layer["trace.coverage_pct"] = coverage(rep.spans, "cold.op")
		rep.overhead()
	}
	return nil
}
