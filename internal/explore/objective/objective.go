// Package objective defines the pluggable evaluation criteria of the
// design-space search framework: each Objective maps one analyzed candidate
// — a compiled problem image plus the schedule the engine computed for it —
// to a scalar score to minimize. The NSGA-II portfolio search (package
// pareto) optimizes a vector of them at once, reporting the Pareto front.
//
// All objectives are computed from ONE analysis per candidate: the engine
// run produces the schedule (makespan, per-bank interference split), and the
// candidate's compiled image carries the structural quantities (per-bank
// demand under the candidate's mapping and bank policy, core assignment,
// DAG edge volumes). Nothing here re-runs the analysis.
//
// Determinism: every objective iterates tasks, banks, and edges in fixed
// index order, so scores — including the float64 accumulations — are pure
// functions of the candidate, bit-identical across runs, worker counts, and
// evaluation order. That is the premise of the byte-identical Pareto fronts
// the pareto package pins.
package objective

import (
	"fmt"
	"sort"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Eval is one analyzed candidate: the compiled image the analysis ran on
// and its schedule. Res is nil when the candidate is unschedulable (or
// structurally invalid); objectives must treat that as the worst possible
// score, which the search layers encode as "never enters a Pareto front".
type Eval struct {
	Img *engine.Image
	Res *sched.Result
}

// Valid reports whether the candidate produced a schedule at all.
func (e Eval) Valid() bool { return e.Res != nil }

// Objective scores one analyzed candidate; lower is better. Implementations
// must be stateless and safe for concurrent use.
type Objective interface {
	// Name is the stable identifier used in CLIs, job requests, and
	// serialized fronts.
	Name() string
	// Score maps an analyzed candidate to a scalar to minimize. Score is
	// only called on valid evals (Res != nil).
	Score(e Eval) float64
}

// Makespan is the paper's objective: the global worst-case response time
// max_i (release_i + response_i).
type Makespan struct{}

// Name implements Objective.
func (Makespan) Name() string { return "makespan" }

// Score implements Objective.
func (Makespan) Score(e Eval) float64 { return float64(e.Res.Makespan) }

// PeakBankInterference is the SINTEO-style memory objective: the largest
// per-bank interference total, max_b Σ_i PerBank[i][b]. Minimizing it
// spreads contention across banks instead of letting one DDR/SMEM bank
// become the fleet-wide bottleneck.
type PeakBankInterference struct{}

// Name implements Objective.
func (PeakBankInterference) Name() string { return "peak-interference" }

// Score implements Objective.
func (PeakBankInterference) Score(e Eval) float64 {
	banks := e.Img.Banks
	var peak float64
	for b := 0; b < banks; b++ {
		var sum float64
		for i := range e.Res.PerBank {
			sum += float64(e.Res.PerBank[i][b])
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak
}

// BankVariance measures bank-load balance: the population variance of the
// per-bank total access demand under the candidate's mapping and bank
// policy. A perfectly balanced configuration scores 0; concentration on few
// banks scores high. This is the workload-variance half of the SINTEO
// trade-off pair, computed from the image's compiled demand matrix — it
// needs no schedule beyond validity.
type BankVariance struct{}

// Name implements Objective.
func (BankVariance) Name() string { return "bank-variance" }

// Score implements Objective.
func (BankVariance) Score(e Eval) float64 {
	banks := e.Img.Banks
	if banks == 0 {
		return 0
	}
	load := make([]float64, banks)
	for i := 0; i < e.Img.NumTasks; i++ {
		row := e.Img.DemandRow(model.TaskID(i))
		for b, d := range row {
			load[b] += float64(d)
		}
	}
	var mean float64
	for _, l := range load {
		mean += l
	}
	mean /= float64(banks)
	var v float64
	for _, l := range load {
		d := l - mean
		v += d * d
	}
	return v / float64(banks)
}

// CommAffinity is the Zaourar–Jan communication-affinity objective: the
// DAG's edge volumes weighted by placement distance. An edge whose endpoints
// share a core costs nothing (the data never crosses the bus for
// synchronization), a cross-core edge whose endpoint cores share a bank
// costs its word volume once, and a cross-core cross-bank edge costs it
// twice. Minimizing it clusters heavily communicating tasks onto cores
// sharing banks and pushes antagonists apart.
type CommAffinity struct{}

// Name implements Objective.
func (CommAffinity) Name() string { return "comm-affinity" }

// Score implements Objective.
func (CommAffinity) Score(e Eval) float64 {
	var cost float64
	for _, edge := range e.Img.Edges() {
		from := e.Img.CoreOf[edge.From]
		to := e.Img.CoreOf[edge.To]
		if from == to {
			continue
		}
		w := float64(edge.Words)
		cost += w
		if e.Img.BankTable[from] != e.Img.BankTable[to] {
			cost += w
		}
	}
	return cost
}

// registry maps stable names to objective values. Objectives are stateless,
// so one shared value per name suffices.
var registry = map[string]Objective{
	Makespan{}.Name():             Makespan{},
	PeakBankInterference{}.Name(): PeakBankInterference{},
	BankVariance{}.Name():         BankVariance{},
	CommAffinity{}.Name():         CommAffinity{},
}

// ByName resolves a registered objective.
func ByName(name string) (Objective, error) {
	if o, ok := registry[name]; ok {
		return o, nil
	}
	names := Names()
	return nil, fmt.Errorf("objective: unknown objective %q (registered: %v)", name, names)
}

// Names returns the registered objective names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	//mialint:ignore determinism -- iteration order cannot be observed: names are sorted before being returned
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Default is the Pareto search's default objective vector: the trade-off
// triple of the ROADMAP's item 3 deliverable.
func Default() []Objective {
	return []Objective{Makespan{}, PeakBankInterference{}, BankVariance{}}
}

// NamesOf renders an objective vector's names in order.
func NamesOf(objs []Objective) []string {
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name()
	}
	return names
}
