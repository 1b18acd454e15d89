package model_test

import (
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
)

// layered builds a gen graph of layers×size tasks on a cores×banks platform.
func layered(layers, size, cores, banks int, seed int64) *model.Graph {
	p := gen.NewParams(layers, size)
	p.Seed = seed
	p.Cores, p.Banks = cores, banks
	return gen.MustLayered(p)
}

func orders(g *model.Graph) [][]model.TaskID {
	o := make([][]model.TaskID, g.Cores)
	for k := range o {
		o[k] = append([]model.TaskID(nil), g.Order(model.CoreID(k))...)
	}
	return o
}

// TestFingerprintPinnedBytes pins the canonical serialization to literal
// digests. Fingerprints are warm-cache keys, router placement keys and part
// of golden fronts, so any encoder change must leave these bytes alone;
// every hashing entry point — graph, flat form and the order hasher —
// must produce them.
func TestFingerprintPinnedBytes(t *testing.T) {
	const (
		base    = "0a9622215446911a20a856da0fea2b371aae2966a1963df946d7b1d49bd44aef"
		swapped = "178a211e01d677b409d0c8a85a30f3066ba640e939633c7c2a8f245671250a66"
		paper   = "6579e679ab76cdaecfe4eaf82be94b490622632da4fe7b3e008b9c480f89e8d0"
	)
	g := layered(5, 4, 4, 4, 11)
	r := g.Raw()
	o := orders(g)
	for name, got := range map[string]string{
		"Graph.Fingerprint":    g.Fingerprint(),
		"RawGraph.Fingerprint": r.Fingerprint(),
		"OrderHasher.Sum":      r.OrderHasher().Sum(o),
	} {
		if got != base {
			t.Errorf("%s = %s, want %s", name, got, base)
		}
	}
	o[0][0], o[0][1] = o[0][1], o[0][0]
	c := overlay(g, o)
	for name, got := range map[string]string{
		"Graph.Fingerprint":    c.Fingerprint(),
		"RawGraph.Fingerprint": c.Raw().Fingerprint(),
		"OrderHasher.Sum":      r.OrderHasher().Sum(o),
	} {
		if got != swapped {
			t.Errorf("swapped %s = %s, want %s", name, got, swapped)
		}
	}
	if got := layered(24, 16, 16, 16, 1).Fingerprint(); got != paper {
		t.Errorf("24x16 Fingerprint = %s, want %s", got, paper)
	}
}

// maxFingerprintAllocs bounds one fingerprint's allocations: the digest,
// the word buffer, the sum and its hex string.
const maxFingerprintAllocs = 6

// TestFingerprintAllocsIndependentOfSize pins the buffered encoder: a
// fingerprint allocates the same small constant at n = 20 and n = 8192,
// where a per-word digest Write would allocate every hashed word.
func TestFingerprintAllocsIndependentOfSize(t *testing.T) {
	small, large := layered(5, 4, 4, 4, 11), layered(512, 16, 16, 16, 1)
	type probe struct {
		name string
		run  func(g *model.Graph) func()
	}
	probes := []probe{
		{"Graph.Fingerprint", func(g *model.Graph) func() {
			return func() { _ = g.Fingerprint() }
		}},
		{"RawGraph.Fingerprint", func(g *model.Graph) func() {
			r := g.Raw()
			return func() { _ = r.Fingerprint() }
		}},
		{"OrderHasher.Sum", func(g *model.Graph) func() {
			oh, o := g.Raw().OrderHasher(), orders(g)
			return func() { _ = oh.Sum(o) }
		}},
	}
	for _, p := range probes {
		a := testing.AllocsPerRun(5, p.run(small))
		b := testing.AllocsPerRun(5, p.run(large))
		if a != b || a > maxFingerprintAllocs {
			t.Errorf("%s allocates %.0f objects at n=%d and %.0f at n=%d, want the same ≤ %d",
				p.name, a, small.NumTasks(), b, large.NumTasks(), maxFingerprintAllocs)
		}
	}
}

// TestRawCompileDemandsMatchesGraph pins the flat demand rule to
// Graph.CompileDemands: under every policy, and after remapping tasks, the
// flat form's re-derived Demand equals the graph's compiled rows.
func TestRawCompileDemandsMatchesGraph(t *testing.T) {
	g := layered(6, 8, 8, 4, 5)
	policies := map[string]func(model.CoreID) model.BankID{
		"shared":   model.SharedBank,
		"per-core": model.BankPerCore, // folded: 8 cores on 4 banks
		"striped3": model.StripedBanks(3),
	}
	for remap := 0; remap < 2; remap++ {
		if remap == 1 {
			for id := 0; id < g.NumTasks(); id += 3 {
				t := g.Task(model.TaskID(id))
				t.Core = (t.Core + 1) % model.CoreID(g.Cores)
			}
		}
		for name, policy := range policies {
			g.CompileDemands(policy)
			r := g.Raw()
			want := append([]model.Accesses(nil), r.Demand...)
			for i := range r.Demand {
				r.Demand[i] = 7 // stale contents must be overwritten
			}
			r.CompileDemands()
			for i := range want {
				if r.Demand[i] != want[i] {
					t.Fatalf("%s (remap %d): task %d bank %d: flat %d, graph %d",
						name, remap, i/g.Banks, i%g.Banks, r.Demand[i], want[i])
				}
			}
		}
	}
}
