package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/wire"
)

// TestWireIngestBitIdentical is the wire path's round-trip property test:
// over the full differential corpus, an image ingested from a binary wire
// blob (Graph → wire.EncodeGraph → CompileFromWire) is indistinguishable
// from one compiled off the JSON ingestion path (WriteJSON → ReadJSON →
// Compile) — same Fingerprint, and bit-identical analysis output from both
// backends, cold and warm.
func TestWireIngestBitIdentical(t *testing.T) {
	ctx := context.Background()
	backends := map[string]engine.Backend{
		"incremental": engine.MustNew(engine.Incremental),
		"fixpoint":    engine.MustNew(engine.Fixpoint),
	}
	corpus := diffCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want ≥ 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank)

		// JSON leg: serialize, re-read, compile — the service's JSON path.
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", label, err)
		}
		gj, err := model.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadJSON: %v", label, err)
		}
		jsonImg, err := engine.Compile(gj, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}

		// Wire leg: binary blob, zero-graph ingest.
		wireImg, err := engine.CompileFromWire(wire.EncodeGraph(g), opts)
		if err != nil {
			t.Fatalf("%s: CompileFromWire: %v", label, err)
		}

		if got, want := wireImg.Fingerprint(), jsonImg.Fingerprint(); got != want {
			t.Fatalf("%s: wire fingerprint %s, json %s", label, got, want)
		}

		for name, be := range backends {
			wantCold, err := be.Analyze(ctx, jsonImg)
			if err != nil {
				t.Fatalf("%s/%s: json cold: %v", label, name, err)
			}
			gotCold, err := be.Analyze(ctx, wireImg)
			if err != nil {
				t.Fatalf("%s/%s: wire cold: %v", label, name, err)
			}
			identical(t, label+"/"+name+"/cold", gotCold, wantCold)

			ww := be.NewWarm(wireImg)
			gotWarm, err := ww.Analyze(ctx)
			if err != nil {
				t.Fatalf("%s/%s: wire warm: %v", label, name, err)
			}
			identical(t, label+"/"+name+"/warm", gotWarm, wantCold)

			// Warm replay after an edit on both images must agree too —
			// the wire image's order overlay machinery is the same code,
			// but the CSR baselines it copies from were built differently.
			if core, pos, ok := legalSwapImage(wireImg); ok {
				wj := be.NewWarm(jsonImg)
				if _, err := wj.Analyze(ctx); err != nil {
					t.Fatalf("%s/%s: json warm baseline: %v", label, name, err)
				}
				wj.Orders().Swap(core, pos)
				ww.Orders().Swap(core, pos)
				edit := engine.Edit{Core: core, From: pos}
				wantEdit, err := wj.Reschedule(ctx, edit)
				if err != nil {
					t.Fatalf("%s/%s: json reschedule: %v", label, name, err)
				}
				gotEdit, err := ww.Reschedule(ctx, edit)
				if err != nil {
					t.Fatalf("%s/%s: wire reschedule: %v", label, name, err)
				}
				identical(t, label+"/"+name+"/edited", gotEdit, wantEdit)
				if got, want := wireImg.FingerprintOrders(ww.Orders()), jsonImg.FingerprintOrders(wj.Orders()); got != want {
					t.Fatalf("%s/%s: edited fingerprints diverge: %s vs %s", label, name, got, want)
				}
			}
		}
	}
}

// legalSwapImage finds an adjacent swap that keeps same-core dependency
// order intact on a compiled image: positions pos/pos+1 on some core with
// no dependency between the swapped tasks.
func legalSwapImage(img *engine.Image) (model.CoreID, int, bool) {
	for k := 0; k < img.Cores; k++ {
		order := img.Order(model.CoreID(k))
		for pos := 0; pos+1 < len(order); pos++ {
			a, b := order[pos], order[pos+1]
			dep := false
			for _, s := range img.Succs(a) {
				if s == b {
					dep = true
					break
				}
			}
			if !dep {
				return model.CoreID(k), pos, true
			}
		}
	}
	return 0, 0, false
}

// TestWireBytesRoundTrip: a compiled image re-encodes to a blob that
// decodes into an equivalent image, regardless of which path built it —
// the image↔wire invariant of DESIGN §3.8.
func TestWireBytesRoundTrip(t *testing.T) {
	g := gen.MustLayered(diffCorpus()[0])
	opts := corpusOpts(0)

	jsonImg, err := engine.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	wireImg, err := engine.CompileFromWire(jsonImg.WireBytes(), opts)
	if err != nil {
		t.Fatalf("CompileFromWire of WireBytes: %v", err)
	}
	if got, want := wireImg.Fingerprint(), jsonImg.Fingerprint(); got != want {
		t.Fatalf("WireBytes round trip fingerprint %s, want %s", got, want)
	}
	// Second generation: wire-built image re-encodes to the same bytes.
	if !bytes.Equal(wireImg.WireBytes(), jsonImg.WireBytes()) {
		t.Fatal("wire-built image re-encodes to different bytes than its source")
	}
	// The graph materialized from the blob is equal to the original.
	raw, err := wire.Decode(jsonImg.WireBytes())
	if err != nil {
		t.Fatal(err)
	}
	mg, err := raw.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mg.Fingerprint(), g.Fingerprint(); got != want {
		t.Fatalf("materialized graph fingerprint %s, want %s", got, want)
	}
}

// TestCompileFromWireRejects: the ingest path refuses what the JSON path
// refuses, at the same layer (decode, before any image exists).
func TestCompileFromWireRejects(t *testing.T) {
	if _, err := engine.CompileFromWire([]byte("junk"), corpusOpts(0)); err == nil {
		t.Fatal("CompileFromWire accepted junk")
	}
	r := gen.Figure1().Raw()
	r.WCET[0] = model.MaxInput + 1
	if _, err := engine.CompileFromWire(wire.Encode(r), corpusOpts(0)); err == nil {
		t.Fatal("CompileFromWire accepted a past-MaxInput WCET")
	}
}
