package pareto

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/objective"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// materialized is one evaluation by the reference path worker.analyze is
// checked against (see materialize).
type materialized struct {
	fp     string
	img    *engine.Image
	res    *sched.Result
	err    error
	values []float64
}

// materialize evaluates a genome through a model.Graph: the genome applied
// to a mutable copy of the image's graph, demand re-derived from the bank
// table for structural genomes, then a full Compile and a cold analysis.
func materialize(ctx context.Context, base *model.Graph, img *engine.Image, g *Genome, objs []objective.Objective) materialized {
	gg := base.Clone()
	for id, core := range g.Assign {
		gg.Task(model.TaskID(id)).Core = core
	}
	for k := range g.Orders {
		gg.SetOrder(model.CoreID(k), g.Orders[k])
	}
	if g.structural {
		tab := append([]model.BankID(nil), img.BankTable...)
		if g.Policy != PolicyBaseline {
			tab = g.Policy.Table(gg.Cores, gg.Banks)
		}
		gg.CompileDemands(func(k model.CoreID) model.BankID { return tab[k] })
	}
	m := materialized{fp: gg.Fingerprint(), values: infValues(len(objs))}
	m.img, m.err = engine.Compile(gg, img.Opts)
	if m.err != nil {
		return m
	}
	if m.res, m.err = engine.MustNew(engine.Incremental).Analyze(ctx, m.img); m.err == nil {
		m.values = scores(objs, objective.Eval{Img: m.img, Res: m.res})
	}
	return m
}

// sameResult describes the first difference between two results, or "".
func sameResult(got, want *sched.Result) string {
	switch {
	case !reflect.DeepEqual(got.Release, want.Release):
		return "release dates"
	case !reflect.DeepEqual(got.Interference, want.Interference):
		return "interference"
	case !reflect.DeepEqual(got.Response, want.Response):
		return "response times"
	case !reflect.DeepEqual(got.PerBank, want.PerBank):
		return "per-bank interference"
	case got.Makespan != want.Makespan:
		return "makespan"
	case got.Iterations != want.Iterations:
		return "iterations"
	}
	return ""
}

// oracleCase is one image the flat evaluation is checked on, with the graph
// the materializing oracle starts from.
type oracleCase struct {
	name string
	base *model.Graph
	img  *engine.Image
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	p := gen.NewParams(24, 16)
	p.Seed = 1
	p.Cores, p.Banks = 16, 16
	g := gen.MustLayered(p)
	raw, err := wire.Decode(wire.EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	wireGraph, err := raw.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var cases []oracleCase
	for _, c := range []struct {
		name    string
		base    *model.Graph
		compile func() (*engine.Image, error)
	}{
		{"smoke", smokeGraph(), func() (*engine.Image, error) { return engine.Compile(smokeGraph(), sched.Options{}) }},
		{"24x16", g, func() (*engine.Image, error) { return engine.Compile(g, sched.Options{}) }},
		{"24x16-wire", wireGraph, func() (*engine.Image, error) {
			return engine.CompileFromWire(wire.EncodeGraph(g), sched.Options{})
		}},
	} {
		img, err := c.compile()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, oracleCase{c.name, c.base, img})
	}
	return cases
}

// oracleGenomes is how many mutator-drawn genomes each image is checked on.
const oracleGenomes = 500

// TestFlatEvaluationMatchesMaterialized is the differential oracle for the
// search's evaluation path: on genomes drawn from the real mutator, one
// long-lived worker (order overlay for order-only genomes, flat placement
// for structural ones) must agree with materializing and recompiling each
// genome's graph on the fingerprint, the validity verdict, every objective
// value and every Result array — on a JSON-compiled and a wire-ingested
// image alike.
func TestFlatEvaluationMatchesMaterialized(t *testing.T) {
	ctx := context.Background()
	objs := objective.Default()
	eng := engine.MustNew(engine.Incremental)
	for _, c := range oracleCases(t) {
		wk := &worker{img: c.img, eng: eng, w: eng.NewWarm(c.img), objs: objs}
		check := func(label string, g *Genome) bool {
			want := materialize(ctx, c.base, c.img, g, objs)
			img, fp, res, err := wk.analyze(ctx, g)
			if fp != want.fp {
				t.Fatalf("%s %s: fingerprint %s, materialized %s", c.name, label, fp, want.fp)
			}
			if (err == nil) != (want.err == nil) {
				t.Fatalf("%s %s: flat error %v, materialized error %v", c.name, label, err, want.err)
			}
			if err != nil {
				return false
			}
			if d := sameResult(res, want.res); d != "" {
				t.Fatalf("%s %s: %s differ", c.name, label, d)
			}
			got := scores(objs, objective.Eval{Img: img, Res: res})
			if !reflect.DeepEqual(got, want.values) {
				t.Fatalf("%s %s: objectives %v, materialized %v", c.name, label, got, want.values)
			}
			return true
		}

		mut := newMutator(c.img)
		rng := rand.New(rand.NewSource(1))
		base := baselineGenome(c.img)
		var structural, orderOnly, invalid int
		g := base
		for i := 0; i < oracleGenomes; i++ {
			if rng.Intn(4) == 0 {
				g = base
			}
			g = mut.mutate(g, rng)
			if g.structural {
				structural++
			} else {
				orderOnly++
			}
			if !check(fmt.Sprintf("genome %d", i), g) {
				invalid++
			}
		}
		if structural == 0 || orderOnly == 0 {
			t.Fatalf("%s: drew %d structural and %d order-only genomes, want both kinds", c.name, structural, orderOnly)
		}
		t.Logf("%s: %d structural, %d order-only, %d invalid or unschedulable", c.name, structural, orderOnly, invalid)

		// A same-core order that contradicts an edge: rejected by
		// validation, scored +Inf, and fingerprinted as the graph it
		// describes.
		bad := contradictingGenome(t, c.img)
		if check("contradicting order", bad) {
			t.Fatalf("%s: genome ordering a task before its same-core predecessor evaluated as valid", c.name)
		}
		out := wk.eval(ctx, bad)
		if out.valid {
			t.Fatalf("%s: contradicting genome marked valid", c.name)
		}
		for _, v := range out.values {
			if !math.IsInf(v, 1) {
				t.Fatalf("%s: contradicting genome scored %v, want all +Inf", c.name, out.values)
			}
		}
		if want := materialize(ctx, c.base, c.img, bad, objs); out.fp != want.fp {
			t.Fatalf("%s: contradicting genome fingerprint %s, materialized %s", c.name, out.fp, want.fp)
		}
	}
}

// contradictingGenome returns a structural genome equal to the baseline
// except that one core orders the target of a same-core edge before its
// source.
func contradictingGenome(t *testing.T, img *engine.Image) *Genome {
	t.Helper()
	g := baselineGenome(img)
	for _, e := range img.Edges() {
		k := img.CoreOf[e.From]
		if img.CoreOf[e.To] != k {
			continue
		}
		ord := g.Orders[k]
		from, to := -1, -1
		for i, id := range ord {
			switch id {
			case e.From:
				from = i
			case e.To:
				to = i
			}
		}
		ord[from], ord[to] = ord[to], ord[from]
		g.structural = true
		return g
	}
	t.Fatal("no same-core edge")
	return nil
}
