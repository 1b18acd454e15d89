package engine_test

import (
	"context"
	"errors"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/sched/incremental"
)

// TestSequentialCancellationKeepsWarmState pins the cancellation contract
// of the sequential warm analyzer: every call installs its own context's
// cancellation, so
//   - a Reschedule under an expired context returns ErrCanceled and keeps
//     the committed baseline (Warm stays true), and the next
//     background-context Reschedule of the same edit is bit-identical to a
//     cold Schedule of the edited graph;
//   - an Analyze under an expired context drops the baseline (Warm turns
//     false), and the next call runs cold, commits afresh and is correct.
func TestSequentialCancellationKeepsWarmState(t *testing.T) {
	p := gen.NewParams(8, 16)
	p.Seed = 3
	p.Cores, p.Banks = 8, 4
	g := gen.MustLayered(p)
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	bg := context.Background()
	expired, cancel := context.WithCancel(bg)
	cancel()

	if _, err := w.Analyze(bg); err != nil {
		t.Fatal(err)
	}
	if !w.Warm() {
		t.Fatal("Analyze did not commit a baseline")
	}

	// A deep swap whose edited graph is schedulable, so the replay restores
	// a late checkpoint instead of falling back to a cold run.
	edit, want := deepSchedulableSwap(t, g)
	w.Orders().Swap(edit.Core, edit.From)

	if _, err := w.Reschedule(expired, edit); !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("Reschedule under expired ctx: got %v, want ErrCanceled", err)
	}
	if !w.Warm() {
		t.Fatal("a canceled Reschedule dropped the warm baseline")
	}
	res, err := w.Reschedule(bg, edit)
	if err != nil {
		t.Fatalf("Reschedule after cancel: %v", err)
	}
	if d := res.Diff(want); d != "" {
		t.Fatalf("Reschedule after cancel diverges from cold Schedule: %s", d)
	}

	if _, err := w.Analyze(expired); !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("Analyze under expired ctx: got %v, want ErrCanceled", err)
	}
	if w.Warm() {
		t.Fatal("a canceled Analyze left a warm baseline")
	}
	res, err = w.Reschedule(bg, edit)
	if err != nil {
		t.Fatalf("first call after canceled Analyze: %v", err)
	}
	if d := res.Diff(want); d != "" {
		t.Fatalf("cold run after canceled Analyze diverges: %s", d)
	}
	if !w.Warm() {
		t.Fatal("the cold run after a canceled Analyze did not commit a baseline")
	}
}

// deepSchedulableSwap picks the latest dependency-free adjacent swap of g
// whose edited graph schedules, returning it as an edit and the cold
// Schedule of the edited graph. g is left unchanged.
func deepSchedulableSwap(t *testing.T, g *model.Graph) (engine.Edit, *sched.Result) {
	t.Helper()
	dep := make(map[[2]model.TaskID]bool, len(g.Edges()))
	for _, e := range g.Edges() {
		dep[[2]model.TaskID{e.From, e.To}] = true
	}
	for k := 0; k < g.Cores; k++ {
		core := model.CoreID(k)
		order := g.Order(core)
		for pos := len(order) - 2; pos > 0; pos-- {
			if dep[[2]model.TaskID{order[pos], order[pos+1]}] {
				continue
			}
			g.SwapOrder(core, pos)
			res, err := incremental.Schedule(g, sched.Options{})
			g.SwapOrder(core, pos)
			if err == nil {
				return engine.Edit{Core: core, From: pos}, res
			}
		}
	}
	t.Fatal("no schedulable deep swap")
	return engine.Edit{}, nil
}
