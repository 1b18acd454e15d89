package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/pareto"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

const (
	paretoLayers, paretoLayerSize = 24, 16 // results/pareto_paper.json's graph
	paretoGraphSeed               = 1
	paretoGoldenSeed              = 42
	paretoJobs                    = 2
	paretoGolden                  = "results/pareto_paper.json"
)

type paretoSetup struct {
	g   *model.Graph
	img *engine.Image
}

func paretoPrepare(ctx context.Context) (paretoSetup, error) {
	p := gen.NewParams(paretoLayers, paretoLayerSize)
	p.Seed = paretoGraphSeed
	g, err := gen.Layered(p)
	if err != nil {
		return paretoSetup{}, err
	}
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		return paretoSetup{}, err
	}
	// Warm-up: a two-generation search starts the evaluation pool's code
	// paths and sizes the heap before the first timed search. Its seed is
	// fixed so that every run's set-up does the same work.
	if _, err := pareto.Search(ctx, img, pareto.Options{Generations: 2, Seed: paretoGoldenSeed, Jobs: paretoJobs}); err != nil {
		return paretoSetup{}, err
	}
	return paretoSetup{g, img}, nil
}

func runPareto(ctx context.Context, cfg *config, rep *report) error {
	golden, err := os.ReadFile(paretoGolden)
	if err != nil {
		return err
	}
	st, setup, err := timedSetup(func() (paretoSetup, error) { return paretoPrepare(ctx) },
		func(paretoSetup) {})
	if err != nil {
		return err
	}
	rep.setup = setup

	var (
		first        *pareto.Result
		firstUpdates int
		searches     int
	)
	for _, win := range cfg.windows() {
		cfg.tr.set(win.traced)
		c0 := readCounters()
		start := time.Now()
		n := 0
		for time.Since(start) < win.d {
			updates := 0
			opts := pareto.Options{Seed: cfg.seed + int64(searches), Jobs: paretoJobs,
				OnFront: func(pareto.FrontUpdate) { updates++ }}
			searches++
			n++
			rep.attempted++
			var res *pareto.Result
			d := cfg.tr.timed("pareto.Search", uint64(searches), 0, func() { res, err = pareto.Search(ctx, st.img, opts) })
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				rep.fail("search seed %d: %v", opts.Seed, err)
				continue
			}
			if res.Evaluations <= 0 || len(res.Front) == 0 {
				rep.fail("search seed %d: %d evaluations, front of %d", opts.Seed, res.Evaluations, len(res.Front))
				continue
			}
			if first == nil {
				first, firstUpdates = res, updates
			}
			if win.traced {
				rep.traced.add(d)
			} else {
				rep.op.add(d)
				rep.work += float64(res.Evaluations)
			}
		}
		if !win.traced {
			rep.untracedWindow(c0, n)
		}
	}
	cfg.tr.set(false)

	// Check pass: the committed front, byte for byte, and the same front
	// fingerprint at Jobs 1 and 2.
	jobs1 := paretoCheck(ctx, st.img, golden, rep)

	if first != nil {
		rep.fact("pareto.evaluations", "%d", first.Evaluations)
		rep.fact("pareto.front_size", "%d", len(first.Front))
		rep.fact("pareto.front_updates", "%d", firstUpdates)
		rep.fact("pareto.front_fingerprint", "%s", first.FrontFingerprint())
	}
	rep.fact("pareto.searches", "%d", searches)

	p50 := rep.op.median()
	rep.row("pareto.search_ms.p50", p50, "ms", fmt.Sprintf("n=%d", len(rep.op)))
	rep.row("pareto.evals_per_s", rep.work/rep.wall.Seconds(), "evaluations/s", "")

	if cfg.tr != nil {
		if first != nil {
			rep.layer["pareto.evaluations"] = float64(first.Evaluations)
			rep.layer["pareto.front_size"] = float64(len(first.Front))
			rep.layer["pareto.front_updates"] = float64(firstUpdates)
		}
		rep.layer["pareto.jobs1_search_ms"] = jobs1
		if p50 > 0 {
			rep.layer["pool.parallel_efficiency"] = jobs1 / (paretoJobs * p50)
		}
		paretoShadow(ctx, st, rep)
		if p50 > 0 && first != nil {
			rep.layer["pareto.kernel_share_est"] = float64(first.Evaluations) *
				rep.layer["kernel.analyze_ms.n384"] / (paretoJobs * p50)
		}
		rep.layer["trace.coverage_pct"] = 100 // the operation is the one pareto.Search span
		rep.overhead()
		rep.spans = cfg.tr.all()
	}
	return nil
}

// paretoCheck reproduces the committed front at Jobs = 2 and at Jobs = 1 and
// returns the Jobs = 1 search time in milliseconds.
func paretoCheck(ctx context.Context, img *engine.Image, golden []byte, rep *report) float64 {
	var fps [2]string
	var jobs1 float64
	for i, jobs := range []int{paretoJobs, 1} {
		rep.attempted++
		start := time.Now()
		res, err := pareto.Search(ctx, img, pareto.Options{Seed: paretoGoldenSeed, Jobs: jobs})
		if err != nil {
			rep.fail("golden search at Jobs %d: %v", jobs, err)
			continue
		}
		if jobs == 1 {
			jobs1 = ms(time.Since(start))
		}
		fps[i] = res.FrontFingerprint()
		if i == 0 && !bytes.Equal(res.Encode(), golden) {
			rep.fail("golden search at Jobs %d does not reproduce %s", jobs, paretoGolden)
		}
	}
	if fps[0] != fps[1] {
		rep.fail("front fingerprint at Jobs %d (%.16s) differs from Jobs 1 (%.16s)", paretoJobs, fps[0], fps[1])
	}
	rep.fact("pareto.golden_fingerprint", "%s", fps[0])
	return jobs1
}

// paretoShadow times the layers a search is made of, outside the search, on
// the search's own image: a cold analysis, a compile and an order
// fingerprint.
func paretoShadow(ctx context.Context, st paretoSetup, rep *report) {
	eng := engine.MustNew(engine.Incremental)
	var ana, comp, fp sample
	for i := 0; i < 30; i++ {
		start := time.Now()
		if _, err := eng.Analyze(ctx, st.img); err != nil {
			rep.fail("shadow analysis: %v", err)
			return
		}
		ana.add(time.Since(start))
		start = time.Now()
		if _, err := engine.Compile(st.g, sched.Options{}); err != nil {
			rep.fail("shadow compile: %v", err)
			return
		}
		comp.add(time.Since(start))
	}
	ord := st.img.NewOrders()
	for i := 0; i < 300; i++ {
		start := time.Now()
		_ = st.img.FingerprintOrders(ord)
		fp.add(time.Since(start))
	}
	rep.layer["kernel.analyze_ms.n384"] = ana.median()
	rep.layer["engine.compile_ms.n384"] = comp.median()
	rep.layer["engine.fingerprint_orders_us"] = fp.median() * 1e3
}
