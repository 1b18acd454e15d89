package model_test

import (
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
)

// rawTestGraphs returns a labeled spread of graphs covering both bank
// policies, multiple platform shapes, and the hand-written paper figures.
func rawTestGraphs(t *testing.T) map[string]*model.Graph {
	t.Helper()
	graphs := map[string]*model.Graph{
		"figure1":  gen.Figure1(),
		"figure2":  gen.Figure2(),
		"avionics": gen.Avionics(),
	}
	shapes := []struct {
		name   string
		layers int
		size   int
		cores  int
		banks  int
		shared bool
	}{
		{"ls8x4", 8, 4, 4, 4, false},
		{"ls6x8", 6, 8, 8, 8, false},
		{"nl4x12", 4, 12, 4, 1, true},
		{"nl6x10", 6, 10, 16, 16, false},
	}
	for _, s := range shapes {
		p := gen.NewParams(s.layers, s.size)
		p.Cores, p.Banks, p.SharedBank = s.cores, s.banks, s.shared
		p.Seed = int64(31 + s.layers*s.size)
		graphs[s.name] = gen.MustLayered(p)
	}
	return graphs
}

func TestRawFingerprintMatchesGraph(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		r := g.Raw()
		if got, want := r.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: raw fingerprint %s, graph fingerprint %s", name, got, want)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s: raw of valid graph fails Validate: %v", name, err)
		}
	}
}

func TestRawGraphRoundTrip(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		back, err := g.Raw().Graph()
		if err != nil {
			t.Fatalf("%s: Raw().Graph(): %v", name, err)
		}
		if got, want := back.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: round-tripped fingerprint %s, want %s", name, got, want)
		}
		if got, want := back.NumTasks(), g.NumTasks(); got != want {
			t.Errorf("%s: round-tripped %d tasks, want %d", name, got, want)
		}
		for k := 0; k < g.Cores; k++ {
			if got, want := back.BankOf(model.CoreID(k)), g.BankOf(model.CoreID(k)); got != want {
				t.Errorf("%s: core %d bank %d after round trip, want %d", name, k, got, want)
			}
		}
	}
}

// overlay returns the reference an overlay hash is held to: a clone of g
// with its per-core orders replaced by orders.
func overlay(g *model.Graph, orders [][]model.TaskID) *model.Graph {
	c := g.Clone()
	for k, order := range orders {
		c.SetOrder(model.CoreID(k), order)
	}
	return c
}

// TestRawFingerprintWithMatchesGraphOrders checks that an order overlay
// hashes the same through the flat and the graph form, both for the
// graph's own orders and for a swapped overlay, and that the swap changes
// the hash.
func TestRawFingerprintWithMatchesGraphOrders(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		orders := make([][]model.TaskID, g.Cores)
		for k := range orders {
			orders[k] = append([]model.TaskID(nil), g.Order(model.CoreID(k))...)
		}
		c := overlay(g, orders)
		if got, want := c.Raw().Fingerprint(), c.Fingerprint(); got != want {
			t.Errorf("%s: flat overlay fingerprint %s, graph %s", name, got, want)
		}
		if got, want := c.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: baseline overlay fingerprint %s, want %s", name, got, want)
		}
		swapped := false
		for k := range orders {
			if len(orders[k]) >= 2 {
				orders[k][0], orders[k][1] = orders[k][1], orders[k][0]
				swapped = true
				break
			}
		}
		if !swapped {
			continue
		}
		c = overlay(g, orders)
		got, want := c.Raw().Fingerprint(), c.Fingerprint()
		if got != want {
			t.Errorf("%s: swapped flat overlay fingerprint %s, graph %s", name, got, want)
		}
		if got == g.Fingerprint() {
			t.Errorf("%s: swapped overlay fingerprint did not change", name)
		}
	}
}

// TestOrderHasherMatchesFingerprint pins the frozen-midstate fast path:
// OrderHasher.Sum must be byte-identical to fingerprinting a graph clone
// carrying the same orders, for baseline and edited overlays, and a hasher
// must stay reusable across many Sum calls.
func TestOrderHasherMatchesFingerprint(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		oh := g.Raw().OrderHasher()
		orders := make([][]model.TaskID, g.Cores)
		for k := range orders {
			orders[k] = append([]model.TaskID(nil), g.Order(model.CoreID(k))...)
		}
		for round := 0; round < 3; round++ {
			c := overlay(g, orders)
			want := c.Fingerprint()
			if got := oh.Sum(orders); got != want {
				t.Errorf("%s round %d: OrderHasher %s, want %s", name, round, got, want)
			}
			if round == 0 && want != g.Fingerprint() {
				t.Errorf("%s: baseline overlay hash %s differs from Fingerprint %s", name, want, g.Fingerprint())
			}
			if round == 1 && want == g.Fingerprint() {
				t.Errorf("%s round %d: swapped overlay fingerprint did not change", name, round)
			}
			// Mutate the overlay for the next round: swap the first core
			// with at least two tasks.
			for k := range orders {
				if len(orders[k]) >= 2 {
					orders[k][0], orders[k][1] = orders[k][1], orders[k][0]
					break
				}
			}
		}
	}
}

// TestRawGraphCopies verifies mutation isolation in both directions: Raw()
// does not alias the graph, and Graph() does not alias the RawGraph.
func TestRawGraphCopies(t *testing.T) {
	g := gen.Figure1()
	r := g.Raw()
	fp := g.Fingerprint()

	r.WCET[0] += 17
	r.OrderIDs[0], r.OrderIDs[1] = r.OrderIDs[1], r.OrderIDs[0]
	if g.Fingerprint() != fp {
		t.Fatalf("mutating RawGraph changed the source graph")
	}

	r2 := g.Raw()
	back, err := r2.Graph()
	if err != nil {
		t.Fatalf("Graph(): %v", err)
	}
	back.Task(0).WCET += 29
	for k := 0; k < back.Cores; k++ {
		if len(back.Order(model.CoreID(k))) >= 2 {
			back.SwapOrder(model.CoreID(k), 0)
			break
		}
	}
	if got := r2.Fingerprint(); got != fp {
		t.Fatalf("mutating materialized graph changed the RawGraph: %s != %s", got, fp)
	}
}

func TestRawValidateRejects(t *testing.T) {
	base := func() *model.RawGraph { return gen.Figure1().Raw() }
	cases := []struct {
		name   string
		break_ func(*model.RawGraph)
		want   string
	}{
		{"wcet overflow", func(r *model.RawGraph) { r.WCET[0] = model.MaxInput + 1 }, "MaxInput"},
		{"negative wcet", func(r *model.RawGraph) { r.WCET[0] = -1 }, "negative WCET"},
		{"release overflow", func(r *model.RawGraph) { r.MinRelease[0] = model.MaxInput + 1 }, "MaxInput"},
		{"local overflow", func(r *model.RawGraph) { r.Local[0] = model.MaxInput + 1 }, "MaxInput"},
		{"demand overflow", func(r *model.RawGraph) { r.Demand[0] = model.MaxInput + 1 }, "MaxInput"},
		{"negative demand", func(r *model.RawGraph) { r.Demand[0] = -3 }, "negative demand"},
		{"core out of range", func(r *model.RawGraph) { r.Core[0] = model.CoreID(r.Cores) }, "platform has"},
		{"edge volume overflow", func(r *model.RawGraph) { r.Edges[0].Words = model.MaxInput + 1 }, "MaxInput"},
		{"edge self-loop", func(r *model.RawGraph) { r.Edges[0].To = r.Edges[0].From }, "self-dependency"},
		{"edge target range", func(r *model.RawGraph) { r.Edges[0].To = model.TaskID(r.NumTasks()) }, "out of range"},
		{"bank table range", func(r *model.RawGraph) { r.BankTable[0] = model.BankID(r.Banks) }, "platform has"},
		{"cycle", func(r *model.RawGraph) {
			e := r.Edges[0]
			r.Edges = append(r.Edges, model.Edge{From: e.To, To: e.From})
		}, "cycle"},
		{"order duplicate", func(r *model.RawGraph) {
			for k := 0; k < r.Cores; k++ {
				if s, e := r.OrderStart[k], r.OrderStart[k+1]; e-s >= 2 {
					r.OrderIDs[s+1] = r.OrderIDs[s]
					return
				}
			}
		}, "twice"},
		{"order csr span", func(r *model.RawGraph) { r.OrderStart[r.Cores] = 0 }, "span"},
		{"demand length", func(r *model.RawGraph) { r.Demand = r.Demand[:len(r.Demand)-1] }, "demand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.break_(r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRawValidateAgreesWithGraphValidate feeds the same broken value through
// both validators: whatever RawGraph.Validate rejects on the flat form,
// Graph.Validate must also reject after materialization (and vice versa for
// the accepted baseline) — the wire decoder's vetting must be exactly as
// strict as the JSON path's.
func TestRawValidateAgreesWithGraphValidate(t *testing.T) {
	r := gen.Figure2().Raw()
	if err := r.Validate(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	r.WCET[2] = model.MaxInput + 1
	if err := r.Validate(); err == nil {
		t.Fatal("raw Validate accepted past-MaxInput WCET")
	}
	if _, err := r.Graph(); err == nil {
		t.Fatal("Graph() materialized a graph with past-MaxInput WCET")
	}
}
