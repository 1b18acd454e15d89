// Benchmarks regenerating the paper's evaluation artifacts with the Go
// testing harness — one benchmark family per Figure 3 panel (E3/E4), the
// headline configurations (E5), the scalability claim (E6), and the
// design-choice ablations (E7/E8). The full sweep with regression fits and
// timeout handling lives in cmd/miabench; these benches provide the
// `go test -bench` view of the same experiments.
//
// Baseline ("Old") sizes are capped so a default `go test -bench=.` run
// finishes in minutes; the incremental algorithm ("New") runs the same and
// larger sizes.
package mia_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/noc"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/sched/fixpoint"
	"github.com/mia-rt/mia/internal/sched/incremental"
	"github.com/mia-rt/mia/internal/sim"
)

// panelGraph generates one instance of a Figure 3 panel family at the given
// total size.
func panelGraph(b *testing.B, family string, fixed, tasks int) *model.Graph {
	b.Helper()
	if tasks%fixed != 0 {
		b.Fatalf("%d tasks not a multiple of %d", tasks, fixed)
	}
	var p gen.Params
	if family == "LS" {
		p = gen.NewParams(tasks/fixed, fixed)
	} else {
		p = gen.NewParams(fixed, tasks/fixed)
	}
	g, err := gen.Layered(p)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSchedule(b *testing.B, g *model.Graph, run func(*model.Graph, sched.Options) (*sched.Result, error), opts sched.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPanel runs one Figure 3 panel family: the incremental algorithm
// ("New", matching the paper's Python implementation of the contribution)
// and the fixed-point baseline ("Old", the RTNS 2016 analysis).
func benchPanel(b *testing.B, family string, fixed int, newSizes, oldSizes []int) {
	b.Helper()
	rr := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	b.Run("New", func(b *testing.B) {
		for _, n := range newSizes {
			g := panelGraph(b, family, fixed, n)
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchSchedule(b, g, incremental.Schedule, rr)
			})
		}
	})
	b.Run("Old", func(b *testing.B) {
		for _, n := range oldSizes {
			g := panelGraph(b, family, fixed, n)
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchSchedule(b, g, fixpoint.Schedule, rr)
			})
		}
	})
}

// E3: Figure 3, fixed-layer-size panels.

func BenchmarkLS4(b *testing.B) {
	benchPanel(b, "LS", 4, []int{64, 256, 1024, 4096}, []int{64, 128, 256})
}

func BenchmarkLS16(b *testing.B) {
	benchPanel(b, "LS", 16, []int{64, 256, 1024, 4096}, []int{64, 128, 256})
}

func BenchmarkLS64(b *testing.B) {
	benchPanel(b, "LS", 64, []int{128, 512, 2048, 8192}, []int{128, 256})
}

// E4: Figure 3, fixed-number-of-layers panels.

func BenchmarkNL4(b *testing.B) {
	benchPanel(b, "NL", 4, []int{64, 256, 1024, 4096}, []int{64, 128, 256})
}

func BenchmarkNL16(b *testing.B) {
	benchPanel(b, "NL", 16, []int{64, 256, 1024, 4096}, []int{64, 128, 256})
}

func BenchmarkNL64(b *testing.B) {
	benchPanel(b, "NL", 64, []int{128, 512, 2048, 8192}, []int{128, 256})
}

// E5: the two configurations quoted in the paper's text — LS64 @ 256 tasks
// (≈270× reported) and NL64 @ 384 tasks (≈593× reported). Comparing the
// New and Old times of the same sub-benchmark reproduces the ratio.
func BenchmarkHeadlineLS64_256(b *testing.B) {
	g := panelGraph(b, "LS", 64, 256)
	rr := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	b.Run("New", func(b *testing.B) { benchSchedule(b, g, incremental.Schedule, rr) })
	b.Run("Old", func(b *testing.B) { benchSchedule(b, g, fixpoint.Schedule, rr) })
}

func BenchmarkHeadlineNL64_384(b *testing.B) {
	g := panelGraph(b, "NL", 64, 384)
	rr := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	b.Run("New", func(b *testing.B) { benchSchedule(b, g, incremental.Schedule, rr) })
	b.Run("Old", func(b *testing.B) { benchSchedule(b, g, fixpoint.Schedule, rr) })
}

// E6: the conclusion's scalability claim — more than 8000 tasks in
// reasonable time (incremental only; the baseline needs hours there).
func BenchmarkScale8192(b *testing.B) {
	g := panelGraph(b, "LS", 64, 8192)
	benchSchedule(b, g, incremental.Schedule, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
}

// E7: ablation of the Section II.C merging hypothesis — treating same-core
// interferers as one big task (default) versus separately.
func BenchmarkAblationMerge(b *testing.B) {
	p := gen.NewParams(16, 16)
	p.Cores, p.Banks, p.SharedBank = 4, 1, true // many tasks per core, one bank
	g := gen.MustLayered(p)
	b.Run("Merged", func(b *testing.B) {
		benchSchedule(b, g, incremental.Schedule, sched.Options{})
	})
	b.Run("Separate", func(b *testing.B) {
		benchSchedule(b, g, incremental.Schedule, sched.Options{SeparateCompetitors: true})
	})
}

// E8: ablation of the additivity fast path — the same round-robin bound
// with and without the O(1) incremental update the additive property
// enables (Section II.C: "exploiting this could simplify and speed up the
// algorithm").
func BenchmarkAblationAdditive(b *testing.B) {
	g := panelGraph(b, "LS", 16, 2048)
	b.Run("FastPath", func(b *testing.B) {
		benchSchedule(b, g, incremental.Schedule, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	})
	b.Run("General", func(b *testing.B) {
		benchSchedule(b, g, incremental.Schedule,
			sched.Options{Arbiter: arbiter.NonAdditive{Inner: arbiter.NewRoundRobin(1)}})
	})
}

// E1 at benchmark scale: the worked example, as a nanobenchmark of the
// whole pipeline.
func BenchmarkFigure1(b *testing.B) {
	g := gen.Figure1()
	benchSchedule(b, g, incremental.Schedule, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
}

// E9's engine: the cycle-level simulator on a mid-size workload.
func BenchmarkSimulator(b *testing.B) {
	p := gen.NewParams(8, 8)
	g := gen.MustLayered(p)
	res, err := incremental.Schedule(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, res.Release, sim.Config{Pattern: sim.Front}); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-cluster composition: per-cluster analyses + NoC bounds to a global
// fixed point.
func BenchmarkMultiCluster(b *testing.B) {
	mk := func(seed int64) *model.Graph {
		p := gen.NewParams(4, 8)
		p.Seed = seed
		p.Cores, p.Banks = 8, 8
		return gen.MustLayered(p)
	}
	system := &noc.System{
		Topology: noc.MPPA256(),
		Graphs: map[noc.ClusterID]*model.Graph{
			0: mk(1), 1: mk(2), 4: mk(3), 5: mk(4),
		},
		Edges: []noc.InterEdge{
			{FromCluster: 0, FromTask: 31, ToCluster: 1, ToTask: 0, Flow: noc.Flow{Burst: 8, Rate: 0.2, PacketFlits: 32}},
			{FromCluster: 1, FromTask: 31, ToCluster: 5, ToTask: 0, Flow: noc.Flow{Burst: 8, Rate: 0.2, PacketFlits: 32}},
			{FromCluster: 4, FromTask: 31, ToCluster: 5, ToTask: 1, Flow: noc.Flow{Burst: 8, Rate: 0.2, PacketFlits: 32}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Analyze(context.Background(), sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
