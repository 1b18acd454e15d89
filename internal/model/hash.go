package model

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// fingerprintVersion is folded into every fingerprint so the hash changes
// whenever the canonical serialization below changes shape. Bump it when
// adding or reordering fields.
const fingerprintVersion = 1

// Fingerprint returns the canonical content hash of the graph: a hex-encoded
// SHA-256 over the platform shape, every task's scheduling-relevant fields
// (WCET, core, minimal release, compiled per-bank demand zero-extended to
// Banks entries), the dependency edges with their volumes, the per-core
// execution orders, and the core→bank assignment. Two graphs with equal
// fingerprints are indistinguishable to every scheduler in this repository
// — same inputs, same analysis, same Result — which is what lets the
// analysis service key warm scheduler checkpoints and cached parsed graphs
// by fingerprint alone.
//
// Task names are deliberately excluded (they are diagnostics, not inputs),
// as is everything derivable from the hashed fields (adjacency, stats).
func (g *Graph) Fingerprint() string {
	w := wordWriter{h: sha256.New()}
	g.hashStatic(&w)
	hashOrders(&w, g.order)
	for k := 0; k < g.Cores; k++ {
		w.put(int64(g.BankOf(CoreID(k))))
	}
	return w.sum()
}

// hashStatic feeds the order-independent prefix of the canonical
// serialization — version, platform shape, tasks, edges — into w. The
// orders section and the bank table follow it, in that order.
func (g *Graph) hashStatic(w *wordWriter) {
	w.put(fingerprintVersion)
	w.put(int64(g.Cores))
	w.put(int64(g.Banks))

	w.put(int64(len(g.tasks)))
	for _, t := range g.tasks {
		w.put(int64(t.WCET))
		w.put(int64(t.Core))
		w.put(int64(t.MinRelease))
		w.put(int64(t.Local))
		// A short (or nil) row hashes like its zero-extended full-width
		// form, which is how Raw lays it out.
		width := max(len(t.Demand), g.Banks)
		w.put(int64(width))
		for _, d := range t.Demand {
			w.put(int64(d))
		}
		for b := len(t.Demand); b < width; b++ {
			w.put(0)
		}
	}

	w.put(int64(len(g.edges)))
	for _, e := range g.edges {
		w.put(int64(e.From))
		w.put(int64(e.To))
		w.put(int64(e.Words))
	}
}

// hashOrders feeds the orders section of the canonical serialization.
func hashOrders(w *wordWriter, orders [][]TaskID) {
	w.put(int64(len(orders)))
	for _, order := range orders {
		w.put(int64(len(order)))
		for _, id := range order {
			w.put(int64(id))
		}
	}
}

// OrderHasher fingerprints order overlays of one fixed graph. It snapshots
// the SHA-256 midstate after the static sections (platform shape, tasks,
// edges) once, so each Sum hashes only the orders section and the bank
// table — the per-scenario cost of fingerprinting an edit drops from
// O(graph) to O(tasks). Sum(orders) is byte-identical to the Fingerprint of
// the graph with its orders replaced by orders; the differential suites pin
// this.
//
// An OrderHasher is immutable after construction and safe for concurrent
// Sum calls.
type OrderHasher struct {
	state []byte  // marshaled digest midstate after the static sections
	bank  []int64 // bank-table suffix hashed after the orders section
}

// OrderHasher returns a reusable overlay fingerprinter for this graph. The
// stdlib SHA-256 digest implements encoding.BinaryMarshaler and never fails
// to marshal; a failure here is a broken invariant, not an input condition.
func (r *RawGraph) OrderHasher() *OrderHasher {
	w := wordWriter{h: sha256.New()}
	r.hashStatic(&w)
	w.flush()
	//mialint:ignore hotpathalloc -- constructor: freezing the midstate allocates by design; hot paths reach it only through the per-image once-guard
	bank := make([]int64, r.Cores)
	for k := range bank {
		bank[k] = int64(r.BankTable[k])
	}
	m, ok := w.h.(encoding.BinaryMarshaler)
	if !ok {
		panic("model: sha256 digest does not marshal")
	}
	state, err := m.MarshalBinary()
	if err != nil {
		//mialint:ignore hotpathalloc -- panic path for a broken marshal invariant; never taken in steady state
		panic("model: marshaling sha256 midstate: " + err.Error())
	}
	//mialint:ignore hotpathalloc -- constructor: the frozen hasher is built once per graph and reused by every Sum
	return &OrderHasher{state: state, bank: bank}
}

// Sum returns the fingerprint of the graph with its orders replaced by
// orders, resuming from the frozen midstate.
//
//mia:hotpath
func (oh *OrderHasher) Sum(orders [][]TaskID) string {
	h := sha256.New()
	restoreMidstate(h, oh.state)
	w := wordWriter{h: h}
	hashOrders(&w, orders)
	for _, b := range oh.bank {
		w.put(b)
	}
	return w.sum()
}

// restoreMidstate rewinds a fresh digest to a frozen midstate. Restoring a
// state the same stdlib digest produced never fails; a failure here is a
// broken invariant, not an input condition.
func restoreMidstate(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		//mialint:ignore hotpathalloc -- panic path for a broken midstate invariant; never taken in steady state
		panic("model: restoring sha256 midstate: " + err.Error())
	}
}

// wordWriter feeds the canonical serialization into a digest as
// fixed-width little-endian words, so field boundaries are unambiguous
// regardless of value magnitude. Words collect in a fixed buffer that
// reaches the digest one block per Write: a fingerprint costs the same
// handful of allocations at any graph size, where a Write per word would
// heap-allocate every word's bytes (they escape through hash.Hash). Call
// flush before marshaling the digest; sum flushes itself.
type wordWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte // a multiple of the SHA-256 block size
}

// put appends one word, handing a full buffer to the digest first.
func (w *wordWriter) put(v int64) {
	if w.n == len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(v))
	w.n += 8
}

// flush writes the buffered words to the digest.
func (w *wordWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// sum flushes and returns the hex-encoded digest.
func (w *wordWriter) sum() string {
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}
