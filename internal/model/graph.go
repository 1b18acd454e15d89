package model

import (
	"fmt"
	"sort"
)

// Edge is a data dependency between two tasks. The consumer cannot start
// before the producer has finished. Words is the communication volume: the
// number of words the producer writes into the consumer's memory bank, which
// the demand compiler charges to the producer's per-bank access vector
// (matching the write counts drawn on the DAG edges of the paper's Figure 1).
type Edge struct {
	From  TaskID
	To    TaskID
	Words Accesses
}

// Graph is an immutable-after-build task graph: a DAG of tasks with a core
// mapping, a per-core execution order, and compiled per-bank memory demands.
// Build one with Builder (programmatic), FromJSON (files) or the generators
// in internal/gen.
//
// Graphs are not safe for concurrent mutation, but all schedulers treat them
// as read-only, so a single Graph may be analyzed by several goroutines.
type Graph struct {
	Cores int // number of processing elements
	Banks int // number of arbitrated memory banks

	tasks []*Task
	edges []Edge

	succs [][]TaskID // adjacency, indexed by TaskID
	preds [][]TaskID // reverse adjacency, indexed by TaskID

	// order[k] is the execution order of the tasks mapped to core k: the
	// "stack" S_k of Algorithm 1. order is always a partition of the task
	// set consistent with the mapping.
	order [][]TaskID

	// bankOf maps each core to the bank holding its reserved data, as
	// configured at demand-compilation time.
	bankOf func(CoreID) BankID
}

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns the task with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error (IDs are dense and stable).
func (g *Graph) Task(id TaskID) *Task { return g.tasks[id] }

// Tasks returns the task slice indexed by TaskID. Callers must not mutate it.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Edges returns all dependency edges. Callers must not mutate the slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Successors returns the IDs of the tasks that depend on id.
func (g *Graph) Successors(id TaskID) []TaskID { return g.succs[id] }

// Predecessors returns the IDs of the tasks id depends on.
func (g *Graph) Predecessors(id TaskID) []TaskID { return g.preds[id] }

// Order returns the execution order of the tasks mapped to core k. The
// returned slice must not be mutated.
func (g *Graph) Order(k CoreID) []TaskID { return g.order[k] }

// OnCore returns the IDs of all tasks mapped to core k, in execution order.
func (g *Graph) OnCore(k CoreID) []TaskID { return g.order[k] }

// BankOf returns the bank that holds core k's reserved data under the policy
// used at demand-compilation time. Before CompileDemands it defaults to the
// shared-bank policy (every core on bank 0).
func (g *Graph) BankOf(k CoreID) BankID {
	if g.bankOf == nil {
		return 0
	}
	return g.bankOf(k)
}

// SetOrder overrides the execution order of core k. The slice must contain
// exactly the tasks mapped to k; Validate reports violations.
func (g *Graph) SetOrder(k CoreID, order []TaskID) {
	g.order[k] = append([]TaskID(nil), order...)
}

// SwapOrder exchanges the tasks at positions pos and pos+1 of core k's
// execution order in place, without copying the order slice. It is the
// allocation-free adjacent-swap move: a swap is undone by calling
// SwapOrder again with the same arguments. The caller is
// responsible for position bounds and for re-validating dependency
// consistency.
func (g *Graph) SwapOrder(k CoreID, pos int) {
	o := g.order[k]
	o[pos], o[pos+1] = o[pos+1], o[pos]
}

// rebuildAdjacency recomputes succs/preds from the edge list. Adjacency lists
// are sorted by TaskID so that every traversal in the repository is
// deterministic.
func (g *Graph) rebuildAdjacency() {
	g.succs = make([][]TaskID, len(g.tasks))
	g.preds = make([][]TaskID, len(g.tasks))
	for _, e := range g.edges {
		g.succs[e.From] = append(g.succs[e.From], e.To)
		g.preds[e.To] = append(g.preds[e.To], e.From)
	}
	for i := range g.tasks {
		sortTaskIDs(g.succs[i])
		sortTaskIDs(g.preds[i])
	}
}

// defaultOrder assigns each core the topological order of its tasks, which
// is always deadlock-free with respect to same-core dependencies.
func (g *Graph) defaultOrder() error {
	topo, err := g.TopoSort()
	if err != nil {
		return err
	}
	g.order = make([][]TaskID, g.Cores)
	for _, id := range topo {
		k := g.tasks[id].Core
		g.order[k] = append(g.order[k], id)
	}
	return nil
}

// Clone returns a deep copy of the graph. Schedulers never mutate graphs, but
// preprocessing passes (e.g. demand recompilation under a different bank
// policy) work on clones to keep the original intact.
//
// The copy is slab-backed: tasks, demand vectors, adjacency lists and order
// lists each live in one flat allocation, with per-row views carved out at
// full-capacity bounds so an in-place mutation of one row can never grow
// into its neighbor. Adjacency is copied rather than rebuilt — the source
// lists are already sorted by construction (rebuildAdjacency), so a copy is
// identical and skips the per-task re-sorting an edge-list rebuild pays.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Cores:  g.Cores,
		Banks:  g.Banks,
		bankOf: g.bankOf,
		edges:  append([]Edge(nil), g.edges...),
	}
	n := len(g.tasks)
	slab := make([]Task, n)
	c.tasks = make([]*Task, n)
	demTotal := 0
	for _, t := range g.tasks {
		demTotal += len(t.Demand)
	}
	dem := make([]Accesses, demTotal)
	off := 0
	for i, t := range g.tasks {
		slab[i] = *t
		if t.Demand != nil {
			row := dem[off : off+len(t.Demand) : off+len(t.Demand)]
			copy(row, t.Demand)
			slab[i].Demand = row
			off += len(t.Demand)
		}
		c.tasks[i] = &slab[i]
	}
	c.succs = cloneIDLists(g.succs)
	c.preds = cloneIDLists(g.preds)
	c.order = cloneIDLists(g.order)
	return c
}

// cloneIDLists deep-copies a list-of-ID-lists into one flat backing slab
// with capacity-clamped row views.
func cloneIDLists(src [][]TaskID) [][]TaskID {
	total := 0
	for _, l := range src {
		total += len(l)
	}
	flat := make([]TaskID, total)
	out := make([][]TaskID, len(src))
	off := 0
	for i, l := range src {
		row := flat[off : off+len(l) : off+len(l)]
		copy(row, l)
		out[i] = row
		off += len(l)
	}
	return out
}

// TotalWCET returns the sum of all task WCETs: the sequential lower bound on
// any single-core execution and a convenient scale for deadlines.
func (g *Graph) TotalWCET() Cycles {
	var sum Cycles
	for _, t := range g.tasks {
		sum += t.WCET
	}
	return sum
}

// MaxMinRelease returns the largest minimal release date in the graph.
func (g *Graph) MaxMinRelease() Cycles {
	var m Cycles
	for _, t := range g.tasks {
		if t.MinRelease > m {
			m = t.MinRelease
		}
	}
	return m
}

// Stats summarizes a graph for logging and benchmark tables.
type Stats struct {
	Tasks     int
	Edges     int
	Cores     int
	Banks     int
	TotalWCET Cycles
	MaxDegree int
}

// Stats computes summary statistics of the graph.
func (g *Graph) Stats() Stats {
	s := Stats{
		Tasks:     len(g.tasks),
		Edges:     len(g.edges),
		Cores:     g.Cores,
		Banks:     g.Banks,
		TotalWCET: g.TotalWCET(),
	}
	for i := range g.tasks {
		if d := len(g.succs[i]) + len(g.preds[i]); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// String renders a one-line graph summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{tasks=%d edges=%d cores=%d banks=%d}",
		len(g.tasks), len(g.edges), g.Cores, g.Banks)
}

func sortTaskIDs(ids []TaskID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
