package main

import (
	"context"
	"math/rand"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Every swap the generator can emit must analyze without error, warm and
// cold alike, and the two must agree.
func TestSwapSitesAllAnalyze(t *testing.T) {
	ctx := context.Background()
	eng := engine.MustNew(engine.Incremental)
	for _, shape := range []struct{ layers, size, cores int }{{4, 8, 4}, {6, 32, 16}, {5, 12, 3}} {
		for seed := int64(1); seed <= 3; seed++ {
			p := gen.NewParams(shape.layers, shape.size)
			p.Cores, p.Banks, p.Seed = shape.cores, shape.cores, seed
			g := gen.MustLayered(p)
			sites, err := swapSites(g)
			if err != nil {
				t.Fatal(err)
			}
			img, err := engine.Compile(g, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w := eng.NewWarm(img)
			if _, err := w.Analyze(ctx); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, core := range sites {
				for _, s := range core {
					n++
					ord := w.Orders()
					ord.Swap(model.CoreID(s.Core), s.Pos)
					warm, err := w.Reschedule(ctx, engine.Edit{Core: model.CoreID(s.Core), From: s.Pos})
					if err != nil {
						t.Fatalf("%dx%d seed %d swap %+v: %v", shape.layers, shape.size, seed, s, err)
					}
					wd := digest(warm)
					cold, err := w.AnalyzeCold(ctx)
					if err != nil {
						t.Fatalf("%dx%d seed %d swap %+v cold: %v", shape.layers, shape.size, seed, s, err)
					}
					if digest(cold) != wd {
						t.Fatalf("swap %+v: warm and cold schedules differ", s)
					}
					ord.Swap(model.CoreID(s.Core), s.Pos)
				}
			}
			if n == 0 {
				t.Fatalf("%dx%d seed %d: no sites", shape.layers, shape.size, seed)
			}
		}
	}
}

func TestPickSwapsDistinct(t *testing.T) {
	p := gen.NewParams(8, 64)
	p.Seed = 5
	sites, err := swapSites(gen.MustLayered(p))
	if err != nil {
		t.Fatal(err)
	}
	valid := map[site]bool{}
	for _, core := range sites {
		for _, s := range core {
			valid[s] = true
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		seen := map[site]bool{}
		for _, s := range pickSwaps(rng, sites, serveItems) {
			if !valid[s] || seen[s] {
				t.Fatalf("pick %+v: valid %v, repeated %v", s, valid[s], seen[s])
			}
			seen[s] = true
		}
		if len(seen) != serveItems {
			t.Fatalf("picked %d swaps, want %d", len(seen), serveItems)
		}
	}
}
