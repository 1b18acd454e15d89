// Package engine turns a validated task graph into an immutable,
// struct-of-arrays problem image and fronts the analysis algorithms with a
// single façade. Compile once, analyze many times: the image is the
// compile-once/run-many contract that lets sweep workers, search
// evaluators, and server-side warm schedulers share one problem instance
// per graph fingerprint instead of defensively deep-cloning graphs.
//
// An Image is immutable after Compile returns. Nothing in this repository
// writes to its arrays, every accessor returns either a value or a slice
// view the caller must treat as read-only, and the mutable piece of an
// analysis — the per-core execution orders a search permutes — lives in a
// separate per-analyzer Orders overlay. That is what makes sharing sound:
// any number of goroutines may analyze the same Image concurrently, each
// with its own Orders and its own backend state, with no locks. Each
// analysis itself is sequential: concurrency lives between analyses.
package engine

import (
	"sync"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Image is the compiled, immutable form of one analysis problem: the graph
// flattened into dense int-indexed arrays, adjacency in CSR form, per-bank
// demand in one flat backing array, and the analysis options normalized
// (arbiter and deadline resolved). All exported fields and every slice
// returned by an accessor are read-only by contract.
//
// Invariants established by Compile and CompileRaw and relied on by every
// backend:
//
//   - the source graph passed validation: dense task IDs, acyclic
//     dependencies, per-core orders consistent with same-core edges, all
//     magnitudes within model.MaxInput;
//   - Demand rows are zero-extended to exactly Banks entries, so
//     DemandRow(id)[b] is the task's demand on bank b with no bounds
//     checks against ragged per-task rows;
//   - CSR neighbor lists are sorted by task ID (counting-sorted from the
//     edge list), so iteration order — and therefore every accumulated
//     result — is deterministic;
//   - Opts.Arbiter is non-nil and Opts.Deadline is positive (Infinity
//     when the caller set none).
type Image struct {
	NumTasks int
	Cores    int
	Banks    int

	// Per-task scalars, indexed by model.TaskID.
	WCET       []model.Cycles
	MinRelease []model.Cycles
	CoreOf     []model.CoreID
	Local      []model.Accesses

	// Demand is the per-bank access demand of every task in one flat
	// task-major backing array: task id's row is
	// Demand[id*Banks : (id+1)*Banks], zero-extended to full width.
	Demand []model.Accesses

	// DemandMask is the bitset form of Demand, one bit per bank: bit b of
	// task id's MaskWords-word row is set iff Demand[id*Banks+b] > 0. Two
	// tasks interfere on exactly the banks in the AND of their rows, so
	// the interference kernels intersect masks word-at-a-time (64 banks
	// per compare — the cache-block unit of the blocked passes) and only
	// touch the demand matrix on set bits, in ascending bank order.
	DemandMask []uint64
	// MaskWords is the per-task word count of DemandMask: ⌈Banks/64⌉.
	MaskWords int

	// CSR adjacency: task id's successors are
	// Succ[SuccStart[id]:SuccStart[id+1]], likewise Pred for the reverse
	// edges. Both neighbor lists are sorted by task ID.
	SuccStart []int32
	Succ      []model.TaskID
	PredStart []int32
	Pred      []model.TaskID

	// Baseline per-core execution orders in CSR form: core k's order is
	// OrderIDs[OrderStart[k]:OrderStart[k+1]]. Analyses that permute
	// orders work on a mutable copy — see NewOrders.
	OrderStart []int32
	OrderIDs   []model.TaskID

	// BankTable maps each core to its private bank.
	BankTable []model.BankID

	// Opts are the compiled analysis options with Arbiter and Deadline
	// resolved to their effective values.
	Opts sched.Options

	// raw is the flat form the image was built from; the arrays above
	// alias it. Only Edges, the fingerprints and WireBytes read it.
	raw *model.RawGraph

	fpOnce sync.Once
	fp     string

	// oh fingerprints order overlays from a frozen digest midstate, built
	// once per image: servers and explorers hash an overlay per evaluated
	// scenario, and the static graph sections dominate a full rehash.
	ohOnce sync.Once
	oh     *model.OrderHasher
}

// Compile validates g and builds an image from its flat form (see
// model.Graph.Raw). The flat form is a copy, so later mutations of g (order
// swaps, demand edits) do not reach the image; recompile to pick them up.
// Validation errors are returned as-is from model.Graph.Validate.
func Compile(g *model.Graph, opts sched.Options) (*Image, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return build(g.Raw(), opts), nil
}

// DemandRow returns task id's per-bank demand: exactly Banks entries,
// zero-extended. Read-only.
//
//mia:hotpath
func (img *Image) DemandRow(id model.TaskID) []model.Accesses {
	return img.Demand[int(id)*img.Banks : (int(id)+1)*img.Banks]
}

// DemandMaskRow returns task id's per-bank demand bitset: MaskWords words,
// bit b set iff the task demands bank b. Read-only.
//
//mia:hotpath
func (img *Image) DemandMaskRow(id model.TaskID) []uint64 {
	return img.DemandMask[int(id)*img.MaskWords : (int(id)+1)*img.MaskWords]
}

// Succs returns task id's successors sorted by ID. Read-only.
//
//mia:hotpath
func (img *Image) Succs(id model.TaskID) []model.TaskID {
	return img.Succ[img.SuccStart[id]:img.SuccStart[id+1]]
}

// Preds returns task id's predecessors sorted by ID. Read-only.
//
//mia:hotpath
func (img *Image) Preds(id model.TaskID) []model.TaskID {
	return img.Pred[img.PredStart[id]:img.PredStart[id+1]]
}

// PredCount returns the number of direct predecessors of task id.
//
//mia:hotpath
func (img *Image) PredCount(id model.TaskID) int {
	return int(img.PredStart[id+1] - img.PredStart[id])
}

// Order returns core k's baseline execution order. Read-only; analyses
// that permute orders use a NewOrders overlay instead.
//
//mia:hotpath
func (img *Image) Order(k model.CoreID) []model.TaskID {
	return img.OrderIDs[img.OrderStart[k]:img.OrderStart[k+1]]
}

// Edges returns the dependency edges of the compiled graph. Read-only.
func (img *Image) Edges() []model.Edge { return img.raw.Edges }

// Fingerprint returns the canonical content hash of the compiled graph
// with its baseline orders (see model.Graph.Fingerprint). Computed once,
// lazily; safe for concurrent use. It equals the source graph's
// Fingerprint whichever path built the image — model.RawGraph.Fingerprint
// replicates model.Graph.Fingerprint byte for byte.
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() { img.fp = img.raw.Fingerprint() })
	return img.fp
}

// FingerprintOrders returns the canonical content hash the compiled graph
// would have if its per-core orders were replaced by o: byte-identical to
// cloning the graph, applying the same permutation, and fingerprinting it.
// The static graph sections are hashed once per image (frozen digest
// midstate); each call pays only for the orders section.
//
//mia:hotpath
func (img *Image) FingerprintOrders(o *Orders) string {
	return img.orderHasher().Sum(o.view)
}

// orderHasher lazily builds the image's frozen-midstate hasher. Off the
// hot path proper: the once-guard's fast path is a single atomic load and
// its closure does not escape, so steady-state calls stay allocation-free.
func (img *Image) orderHasher() *model.OrderHasher {
	//mialint:ignore hotpathalloc -- once-guard: the fast path is one atomic load and the non-escaping closure runs at most once per image
	img.ohOnce.Do(func() { img.oh = img.raw.OrderHasher() })
	return img.oh
}

// Place returns the flat form of the image's problem under another
// placement: task id runs on core assign[id], core k executes orders[k],
// and core k's reserved data lives on bank table[k] (folded modulo Banks,
// as Graph.CompileDemands folds its policy). Demand is re-derived by
// RawGraph.CompileDemands from the image's Local accesses and edge
// volumes, exactly as recompiling the materialized graph under table
// would. The result shares the image's read-only WCET, MinRelease, Local
// and Edges; Core, the order CSR, BankTable and Demand are fresh.
//
// assign must name cores in [0, Cores), orders must have Cores entries,
// and table Cores non-negative entries. Nothing else is checked here:
// CompileRaw validates the result (orders against assign and edges), and
// its Fingerprint is the recompiled graph's whether or not it is valid.
func (img *Image) Place(assign []model.CoreID, orders [][]model.TaskID, table []model.BankID) *model.RawGraph {
	raw := &model.RawGraph{
		Cores:      img.Cores,
		Banks:      img.Banks,
		WCET:       img.WCET,
		MinRelease: img.MinRelease,
		Local:      img.Local,
		Edges:      img.Edges(),
		Core:       append([]model.CoreID(nil), assign...),
		Demand:     make([]model.Accesses, img.NumTasks*img.Banks),
		OrderStart: make([]int32, img.Cores+1),
		OrderIDs:   make([]model.TaskID, 0, img.NumTasks),
		BankTable:  make([]model.BankID, img.Cores),
	}
	for k := 0; k < img.Cores; k++ {
		raw.OrderIDs = append(raw.OrderIDs, orders[k]...)
		raw.OrderStart[k+1] = int32(len(raw.OrderIDs))
		raw.BankTable[k] = model.BankID(int(table[k]) % img.Banks)
	}
	raw.CompileDemands()
	return raw
}
