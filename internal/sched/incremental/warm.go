package incremental

import (
	"context"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// maxCheckpoints bounds the warm analyzer's checkpoint store. When a run
// records more, every other checkpoint is dropped and the recording stride
// doubles, so memory stays O(maxCheckpoints · state size) while the replay
// distance from the nearest checkpoint stays O(events / maxCheckpoints).
const maxCheckpoints = 64

// warm is this backend's engine.Warm: a reusable analyzer bound to one
// compiled image that snapshots its cursor state at event boundaries during
// full runs, and can then re-analyze a mutated variant of the execution
// orders by restoring the latest snapshot unaffected by the mutation and
// replaying only the suffix.
//
// The intended client is design-space exploration and warm serving, where
// neighboring candidates differ from the incumbent by a single adjacent swap
// in one core's execution order: a cold analysis costs O(n²) while the
// replay of the suffix behind the swapped position costs O(suffix²), which
// is the same incremental-reuse idea that lets the paper's algorithm beat
// the global fixed-point. Soundness is inherited from the monotonicity
// hypothesis (Section II.C): the schedule prefix produced before the first
// event that could observe the mutated order positions is *exact*, not
// approximate, so a restored prefix plus a replayed suffix is bit-identical
// to a cold run (enforced by the differential tests in warmstart_test.go).
//
// All buffers — working state, result, and checkpoints — are owned by the
// analyzer and reused across calls, so the steady-state event loop runs
// allocation-free (pinned by the engine's AllocsPerRun guards).
// Consequently the returned *sched.Result is overwritten by the next call;
// callers that need to keep one must copy it.
//
// Between calls the caller may mutate ONLY the Orders overlay. Every call
// installs the context's cancellation (or the image's compiled
// Options.Cancel for a non-cancellable context) for its own duration, so an
// expired channel from an earlier request never poisons later runs. A
// canceled call returns sched.ErrCanceled and never corrupts the warm
// state: a canceled Analyze leaves the analyzer without a baseline (the
// next call runs cold), and a canceled Reschedule leaves the committed
// checkpoints untouched.
type warm struct {
	img *engine.Image
	ord *engine.Orders
	st  *state

	snaps  []snapshot // committed checkpoints, in cursor order
	stride int        // record every stride-th event
	tick   int        // event counter of the recording run

	recording bool // checkpoint hook active (cold Analyze runs only)
	base      bool // snaps describe the orders as of the last Analyze

	lastEvents int // event count of the last successful cold run
}

// newWarm builds an analyzer over img owning a private order overlay.
func newWarm(img *engine.Image) *warm {
	ord := img.NewOrders()
	w := &warm{img: img, ord: ord, st: newState(img, ord), stride: 1}
	w.st.ckpt = w.checkpoint
	return w
}

// Orders implements engine.Warm: the overlay is the single source of order
// truth for every run.
func (w *warm) Orders() *engine.Orders { return w.ord }

// Warm implements engine.Warm: whether a successful Analyze has committed
// checkpoints, so the next Reschedule replays instead of running cold.
func (w *warm) Warm() bool { return w.base }

// Analyze implements engine.Warm: it analyzes the current orders cold from
// t=0, rebuilding the checkpoint store as it goes, and commits them as the
// warm-start baseline for subsequent Reschedule calls.
func (w *warm) Analyze(ctx context.Context) (*sched.Result, error) {
	w.st.cancel = w.img.CancelWith(ctx)
	w.st.reset()
	w.snaps = w.snaps[:0]
	w.tick = 0
	// Size the stride from the previous run so a steady-state run records
	// ~maxCheckpoints evenly spaced checkpoints instead of recording densely
	// and compacting repeatedly.
	if w.lastEvents > 0 {
		if stride := (w.lastEvents + maxCheckpoints - 1) / maxCheckpoints; stride > 1 {
			w.stride = stride
		}
	}
	w.recording = true
	res, err := w.st.run()
	w.recording = false
	w.base = err == nil
	if err == nil {
		w.lastEvents = w.st.events
	}
	return res, err
}

// AnalyzeCold implements engine.Warm: a run from t=0 without recording
// checkpoints and without committing a baseline — the oracle path for
// differential comparisons against Reschedule. The committed warm
// baseline, if any, survives.
func (w *warm) AnalyzeCold(ctx context.Context) (*sched.Result, error) {
	w.st.cancel = w.img.CancelWith(ctx)
	w.st.reset()
	return w.st.run()
}

// Reschedule implements engine.Warm: it re-analyzes after the orders were
// mutated at the given divergence sites, relative to the orders committed
// by the last successful Analyze. It restores the latest checkpoint that
// provably precedes every site's first possible influence on the schedule
// and replays only the remaining events; when no checkpoint qualifies (a
// mutation at the very front of an order), it falls back to a cold replay.
// Either way the result is bit-identical to a cold analysis of the mutated
// orders — only cheaper.
//
// The checkpoint store is never modified: after the caller undoes its
// mutation (restoring the committed orders), further Reschedule calls
// against the same baseline remain valid, which is exactly the
// apply-evaluate-undo pattern of neighborhood search. An unschedulable or
// canceled run likewise leaves the baseline intact. If no valid baseline
// exists (never analyzed, or the last Analyze failed), Reschedule behaves
// as Analyze, committing the current orders.
//
//mia:hotpath warm replay entry: 0 allocs/op pinned by the engine alloc guards
func (w *warm) Reschedule(ctx context.Context, edits ...engine.Edit) (*sched.Result, error) {
	if !w.base {
		return w.Analyze(ctx)
	}
	w.st.cancel = w.img.CancelWith(ctx)
	for i := len(w.snaps) - 1; i >= 0; i-- {
		if snapSafe(&w.snaps[i], edits) {
			w.st.restore(&w.snaps[i])
			return w.st.run()
		}
	}
	w.st.reset()
	return w.st.run()
}

// Close joins the parked worker goroutines of the parallel exchange kernel,
// when the compiled options enabled one (Options.Parallelism > 1);
// engine.CloseWarm reaches it through the optional-Close assertion. The
// analyzer — checkpoints, warm baseline and all — remains fully usable: the
// next parallel run simply respawns the workers.
func (w *warm) Close() { w.st.close() }

// checkpoint is the state's event-boundary hook: during recording runs it
// captures every stride-th event into the store, compacting (drop every
// other checkpoint, double the stride) when the store outgrows its bound.
//
//mia:hotpath
func (w *warm) checkpoint() {
	if !w.recording {
		return
	}
	if w.tick%w.stride == 0 {
		w.push().capture(w.st)
		if len(w.snaps) > maxCheckpoints {
			w.compact()
		}
	}
	w.tick++
}

// push extends the checkpoint list by one entry, reviving the buffers of a
// previously truncated entry when the backing array still holds one.
func (w *warm) push() *snapshot {
	if len(w.snaps) < cap(w.snaps) {
		w.snaps = w.snaps[:len(w.snaps)+1]
	} else {
		w.snaps = append(w.snaps, snapshot{})
	}
	return &w.snaps[len(w.snaps)-1]
}

// compact halves the checkpoint density in place: entry i takes the value of
// entry 2i by swapping (not copying), so the displaced entries — and their
// buffers — remain in the backing array beyond the new length for push to
// revive.
func (w *warm) compact() {
	n := len(w.snaps)
	for i := 1; 2*i < n; i++ {
		w.snaps[i], w.snaps[2*i] = w.snaps[2*i], w.snaps[i]
	}
	w.snaps = w.snaps[:(n+1)/2]
	w.stride *= 2
}

// snapSafe reports whether a checkpoint provably precedes any influence of
// the given divergence sites on the schedule. Order position From of core
// Core is first consulted when the core sits idle with its head index at
// From, so the checkpoint is safe for that edit while the head index is
// still below From, or equals From with the task at From-1 still alive (the
// head has then never been consulted while the core was idle: consultation
// only happens in openAt on idle cores, and the core has been busy since the
// head index reached From). Head indices only grow and an idle core at From
// stays idle until From opens, so safety is a prefix property over the run —
// the latest safe checkpoint is the best restart point.
//
//mia:hotpath
func snapSafe(sn *snapshot, edits []engine.Edit) bool {
	for _, e := range edits {
		h := sn.headIdx[e.Core]
		if h > e.From || (h == e.From && sn.slots[e.Core].task == model.NoTask) {
			return false
		}
	}
	return true
}

// snapshot captures the complete mutable state of a run immediately before
// the event at cursor t is processed: restoring it and re-entering the event
// loop replays the event at t and everything after with no special casing.
// All slices are full-length copies into buffers owned by the snapshot and
// reused across captures.
type snapshot struct {
	t      model.Cycles
	events int
	closed int
	relPtr int

	headIdx  []int
	depsLeft []int
	slots    []slotSnap

	release      []model.Cycles
	interference []model.Cycles
	response     []model.Cycles
	perBank      []model.Cycles // flat task-major copy of Result.PerBank
}

// slotSnap is the deep copy of one core's slot. The competitor index is not
// captured: it is derivable from comp and rebuilt on restore, which keeps
// checkpoints O(entries) instead of O(cores·banks).
type slotSnap struct {
	task   model.TaskID
	finish model.Cycles
	comp   [][]arbiter.Request
	terms  [][]model.Cycles
}

// capture deep-copies the state into the snapshot, reusing its buffers.
//
//mia:hotpath buffers are revived across captures; first capture warms them
func (sn *snapshot) capture(s *state) {
	sn.t, sn.events, sn.closed, sn.relPtr = s.t, s.events, s.closed, s.relPtr
	sn.headIdx = append(sn.headIdx[:0], s.headIdx...)
	sn.depsLeft = append(sn.depsLeft[:0], s.depsLeft...)
	if sn.slots == nil {
		//mialint:ignore hotpathalloc -- one-time buffer birth on a snapshot entry's first capture; nil-guarded, steady-state captures reuse
		sn.slots = make([]slotSnap, len(s.slots))
	}
	for k := range s.slots {
		sl, ss := &s.slots[k], &sn.slots[k]
		ss.task, ss.finish = sl.task, sl.finish
		if ss.comp == nil {
			//mialint:ignore hotpathalloc -- one-time buffer birth on a snapshot entry's first capture; nil-guarded, steady-state captures reuse
			ss.comp = make([][]arbiter.Request, len(sl.comp))
			//mialint:ignore hotpathalloc -- one-time buffer birth on a snapshot entry's first capture; nil-guarded, steady-state captures reuse
			ss.terms = make([][]model.Cycles, len(sl.terms))
		}
		for b := range sl.comp {
			ss.comp[b] = append(ss.comp[b][:0], sl.comp[b]...)
			ss.terms[b] = append(ss.terms[b][:0], sl.terms[b]...)
		}
	}
	sn.release = append(sn.release[:0], s.res.Release...)
	sn.interference = append(sn.interference[:0], s.res.Interference...)
	sn.response = append(sn.response[:0], s.res.Response...)
	sn.perBank = append(sn.perBank[:0], s.res.FlatPerBank()...)
}

// restore copies the snapshot back into the working state, rebuilding the
// per-core competitor index from the restored competitor sets.
//
//mia:hotpath
func (s *state) restore(sn *snapshot) {
	s.t, s.events, s.closed, s.relPtr = sn.t, sn.events, sn.closed, sn.relPtr
	copy(s.headIdx, sn.headIdx)
	copy(s.depsLeft, sn.depsLeft)
	for k := range s.slots {
		sl, ss := &s.slots[k], &sn.slots[k]
		sl.task, sl.finish = ss.task, ss.finish
		for b := range sl.comp {
			for _, r := range sl.comp[b] {
				sl.compIdx[b][r.Core] = -1
			}
			sl.comp[b] = append(sl.comp[b][:0], ss.comp[b]...)
			sl.terms[b] = append(sl.terms[b][:0], ss.terms[b]...)
			if s.fast && !s.separate {
				for i, r := range sl.comp[b] {
					sl.compIdx[b][r.Core] = int32(i)
				}
			}
		}
	}
	copy(s.res.Release, sn.release)
	copy(s.res.Interference, sn.interference)
	copy(s.res.Response, sn.response)
	copy(s.res.FlatPerBank(), sn.perBank)
}
