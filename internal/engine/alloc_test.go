package engine_test

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
)

// allocImage compiles the steady-state workload for the engine-level
// allocation guards: big enough that the event loop dominates, small enough
// to keep the guard fast.
func allocImage(t testing.TB) *engine.Image {
	t.Helper()
	p := gen.NewParams(8, 16)
	p.Seed = 3
	p.Cores, p.Banks = 8, 4
	img, err := engine.Compile(gen.MustLayered(p), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestWarmAnalyzeSteadyStateAllocationFree pins the façade's allocation
// contract: once a warm analyzer's pooled buffers have grown to their
// high-water mark, repeated Analyze calls through the engine interface —
// adapter, context plumbing and all — perform zero heap allocations.
func TestWarmAnalyzeSteadyStateAllocationFree(t *testing.T) {
	img := allocImage(t)
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	ctx := context.Background()
	// Two warm-ups: the first grows the buffers, the second runs with the
	// steady-state checkpoint stride derived from the first run.
	for i := 0; i < 2; i++ {
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state engine Analyze allocates %.1f objects per run, want 0", avg)
	}
}

// TestWarmRescheduleSteadyStateAllocationFree pins the same contract for
// the neighborhood-evaluation cycle through the façade: overlay swap, warm
// Reschedule, swap back — exactly how the serving layer drives it.
func TestWarmRescheduleSteadyStateAllocationFree(t *testing.T) {
	img := allocImage(t)
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	ctx := context.Background()
	if _, err := w.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	core, pos, ok := legalSwapImage(img)
	if !ok {
		t.Fatal("no legal swap site")
	}
	ord := w.Orders()
	edits := []engine.Edit{{Core: core, From: pos}}
	cycle := func() {
		ord.Swap(core, pos)
		if _, err := w.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
		ord.Swap(core, pos)
		if _, err := w.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: replay suffix may grow buffer high-water marks
	avg := testing.AllocsPerRun(10, cycle)
	if avg != 0 {
		t.Fatalf("steady-state swap/Reschedule cycle allocates %.1f objects per run, want 0", avg)
	}
}
