package engine_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/sched/fixpoint"
	"github.com/mia-rt/mia/internal/sched/incremental"
)

// diffCorpus mirrors the incremental scheduler's differential corpus: both
// benchmark families across platform geometries, bank layouts, and seeds,
// ≥ 200 instances. The engine façade must be unobservable — every backend,
// warm or cold, must produce bit-identical results to the package-level
// Schedule entry points on every instance.
func diffCorpus() []gen.Params {
	shapes := []struct {
		family       string
		layers, size int
	}{
		{"LS", 8, 4}, {"LS", 12, 4}, {"LS", 6, 8},
		{"NL", 4, 8}, {"NL", 4, 12}, {"NL", 6, 10},
	}
	platforms := []struct {
		cores, banks int
		shared       bool
	}{
		{4, 4, false},
		{8, 8, false},
		{4, 1, true},
	}
	var corpus []gen.Params
	for _, sh := range shapes {
		for _, pl := range platforms {
			for seed := int64(1); seed <= 12; seed++ {
				p := gen.NewParams(sh.layers, sh.size)
				p.Seed = seed
				p.Cores, p.Banks, p.SharedBank = pl.cores, pl.banks, pl.shared
				corpus = append(corpus, p)
			}
		}
	}
	return corpus
}

// corpusOpts rotates arbiters and competitor-merging modes across the
// corpus so every combination appears many times without multiplying the
// runtime.
func corpusOpts(ci int) sched.Options {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewWeightedRR(1, func(c model.CoreID) int64 { return int64(c)%2 + 1 }),
	}
	return sched.Options{Arbiter: arbiters[ci%len(arbiters)], SeparateCompetitors: ci%2 == 1}
}

// identical asserts every analyzed quantity matches bit-for-bit: releases,
// responses, makespan, iteration count, and the per-bank interference
// split, so an image-port bug cannot hide in an aggregate.
func identical(t *testing.T, label string, got, want *sched.Result) {
	t.Helper()
	if d := got.Diff(want); d != "" {
		t.Fatalf("%s: schedules diverge: %s", label, d)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %d vs %d", label, got.Makespan, want.Makespan)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, got.Iterations, want.Iterations)
	}
	for i := range got.Interference {
		if got.Interference[i] != want.Interference[i] {
			t.Fatalf("%s: task %d interference %d vs %d", label, i, got.Interference[i], want.Interference[i])
		}
		for b := range got.PerBank[i] {
			if got.PerBank[i][b] != want.PerBank[i][b] {
				t.Fatalf("%s: task %d bank %d: %d vs %d", label, i, b, got.PerBank[i][b], want.PerBank[i][b])
			}
		}
	}
}

// TestEngineBitIdenticalToDirectPath is the tentpole's safety net: over the
// full differential corpus, for both algorithms, the engine path (one
// Compile, then Analyze / warm Analyze / zero-edit Reschedule / AnalyzeCold
// over the shared image) is bit-identical to the package-level Schedule
// wrappers.
func TestEngineBitIdenticalToDirectPath(t *testing.T) {
	ctx := context.Background()
	inc := engine.MustNew(engine.Incremental)
	fix := engine.MustNew(engine.Fixpoint)
	corpus := diffCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want ≥ 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v separate=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank, opts.SeparateCompetitors)

		img, err := engine.Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}

		// Incremental: direct wrapper vs engine cold vs warm vs replay.
		direct, err := incremental.Schedule(g, opts)
		if err != nil {
			t.Fatalf("%s: direct incremental: %v", label, err)
		}
		cold, err := inc.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("%s: engine incremental: %v", label, err)
		}
		identical(t, label+" engine-cold", cold, direct)

		w := inc.NewWarm(img)
		warm, err := w.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: warm analyze: %v", label, err)
		}
		identical(t, label+" warm-first", warm, direct)
		replay, err := w.Reschedule(ctx) // zero edits: replay from the last checkpoint
		if err != nil {
			t.Fatalf("%s: zero-edit replay: %v", label, err)
		}
		identical(t, label+" warm-replay", replay, direct)
		coldAgain, err := w.AnalyzeCold(ctx)
		if err != nil {
			t.Fatalf("%s: analyze cold: %v", label, err)
		}
		identical(t, label+" warm-cold-oracle", coldAgain, direct)

		// Fixpoint baseline: direct wrapper vs engine path.
		fdirect, err := fixpoint.Schedule(g, opts)
		if err != nil {
			t.Fatalf("%s: direct fixpoint: %v", label, err)
		}
		fcold, err := fix.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("%s: engine fixpoint: %v", label, err)
		}
		identical(t, label+" fixpoint", fcold, fdirect)
	}
}

// legalSwap returns one adjacent swap site of g not contradicted by a
// direct dependency, or ok=false when none exists.
func legalSwap(g *model.Graph) (core model.CoreID, pos int, ok bool) {
	dep := make(map[[2]model.TaskID]bool, len(g.Edges()))
	for _, e := range g.Edges() {
		dep[[2]model.TaskID{e.From, e.To}] = true
	}
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		for p := 0; p+1 < len(order); p++ {
			if !dep[[2]model.TaskID{order[p], order[p+1]}] {
				return model.CoreID(k), p, true
			}
		}
	}
	return 0, 0, false
}

// TestEditedRescheduleMatchesDirectPath drives the warm edit path: apply an
// adjacent swap to the analyzer's order overlay, Reschedule with the edit
// hint, and require bit-identity with a cold direct Schedule of the edited
// graph — plus fingerprint equality between the overlay hash and the edited
// graph's canonical hash (the serving layer's response key).
func TestEditedRescheduleMatchesDirectPath(t *testing.T) {
	ctx := context.Background()
	inc := engine.MustNew(engine.Incremental)
	for ci, p := range diffCorpus() {
		if ci%4 != 0 {
			continue // a quarter of the corpus keeps the edit path fast but broad
		}
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		core, pos, ok := legalSwap(g)
		if !ok {
			continue
		}
		label := fmt.Sprintf("corpus[%d] swap core %d pos %d", ci, core, pos)

		img, err := engine.Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}
		w := inc.NewWarm(img)
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatalf("%s: baseline analyze: %v", label, err)
		}

		edited := g.Clone()
		edited.SwapOrder(core, pos)
		want, err := incremental.Schedule(edited, opts)
		if err != nil {
			t.Fatalf("%s: direct edited: %v", label, err)
		}

		ord := w.Orders()
		ord.Swap(core, pos)
		if gotFP, wantFP := img.FingerprintOrders(ord), edited.Fingerprint(); gotFP != wantFP {
			t.Fatalf("%s: overlay fingerprint %s != edited graph fingerprint %s", label, gotFP, wantFP)
		}
		got, err := w.Reschedule(ctx, engine.Edit{Core: core, From: pos})
		if err != nil {
			t.Fatalf("%s: edited reschedule: %v", label, err)
		}
		identical(t, label, got, want)

		// Undo restores the baseline bit-for-bit, including the hash.
		ord.Swap(core, pos)
		if gotFP := img.FingerprintOrders(ord); gotFP != img.Fingerprint() {
			t.Fatalf("%s: undo did not restore the baseline fingerprint", label)
		}
		back, err := w.Reschedule(ctx, engine.Edit{Core: core, From: pos})
		if err != nil {
			t.Fatalf("%s: undo reschedule: %v", label, err)
		}
		base, err := incremental.Schedule(g, opts)
		if err != nil {
			t.Fatalf("%s: direct baseline: %v", label, err)
		}
		identical(t, label+" undo", back, base)
	}
}

// TestImageFingerprintMatchesGraph pins the hash bridge over the whole
// corpus: an image's fingerprint equals the source graph's canonical
// fingerprint, so image registries and graph registries key identically —
// and so does the flat placement of the image's own configuration, whose
// demand is re-derived under the same bank table the graph was compiled
// with.
func TestImageFingerprintMatchesGraph(t *testing.T) {
	for ci, p := range diffCorpus() {
		g := gen.MustLayered(p)
		img, err := engine.Compile(g, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := g.Fingerprint()
		if img.Fingerprint() != want {
			t.Fatalf("instance %d: image fingerprint %s != graph fingerprint %s", ci, img.Fingerprint(), want)
		}
		placed := img.Place(img.CoreOf, img.NewOrders().View(), img.BankTable)
		if placed.Fingerprint() != want {
			t.Fatalf("instance %d: identity Place fingerprint diverges", ci)
		}
	}
}

// TestShortDemandRowFingerprint pins the canonical row width: Graph.Validate
// accepts a demand row shorter than Banks (a nil Demand included), and the
// graph, its flat form and its image must all hash it as the zero-extended
// full-width row — the router places uploads by the graph's fingerprint and
// shards key images by the image's.
func TestShortDemandRowFingerprint(t *testing.T) {
	p := gen.NewParams(6, 8)
	p.Cores, p.Banks = 8, 8
	g := gen.MustLayered(p)
	want := g.Fingerprint()
	truncated := 0
	for _, task := range g.Tasks() {
		n := len(task.Demand)
		for n > 0 && task.Demand[n-1] == 0 {
			n--
		}
		if n < len(task.Demand) {
			task.Demand = task.Demand[:n]
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no demand row ends in a zero; pick another instance")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	if fp != want {
		t.Errorf("Graph.Fingerprint with %d short rows = %s, want the full-width %s", truncated, fp, want)
	}
	if got := g.Raw().Fingerprint(); got != fp {
		t.Errorf("RawGraph.Fingerprint = %s, graph's %s", got, fp)
	}
	if got := img.Fingerprint(); got != fp {
		t.Errorf("Image.Fingerprint = %s, graph's %s", got, fp)
	}
}

// TestCompileIsolatesImage pins Compile's copy contract: mutating the
// source graph afterwards — an order swap, a WCET edit, an in-place demand
// scale as the sensitivity search does it, an edge volume — reaches
// neither the image's arrays nor its fingerprints.
func TestCompileIsolatesImage(t *testing.T) {
	g := gen.MustLayered(diffCorpus()[0])
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	want := img.WireBytes()

	for k := 0; k < g.Cores; k++ {
		if len(g.Order(model.CoreID(k))) >= 2 {
			g.SwapOrder(model.CoreID(k), 0)
			break
		}
	}
	g.Task(0).WCET += 17
	for _, task := range g.Tasks() {
		for b := range task.Demand {
			task.Demand[b] *= 3
		}
	}
	g.Edges()[0].Words += 5
	if g.Fingerprint() == fp {
		t.Fatal("the mutations did not change the graph")
	}

	if got := img.WireBytes(); string(got) != string(want) {
		t.Error("mutating the source graph changed the image's arrays")
	}
	if img.Fingerprint() != fp {
		t.Errorf("image fingerprint %s, want the compile-time %s", img.Fingerprint(), fp)
	}
	if got := img.FingerprintOrders(img.NewOrders()); got != fp {
		t.Errorf("image baseline overlay fingerprint %s, want %s", got, fp)
	}
}
