package skysr

import (
	"math"
	"path/filepath"
	"testing"
)

// identicalAnswers requires bit-identical results: same routes, same PoIs,
// same score bits.
func identicalAnswers(t *testing.T, tag string, want, got *Answer) {
	t.Helper()
	if len(want.Routes) != len(got.Routes) {
		t.Fatalf("%s: %d routes != %d routes", tag, len(got.Routes), len(want.Routes))
	}
	for i := range want.Routes {
		w, g := want.Routes[i], got.Routes[i]
		if math.Float64bits(w.LengthScore) != math.Float64bits(g.LengthScore) ||
			math.Float64bits(w.SemanticScore) != math.Float64bits(g.SemanticScore) {
			t.Fatalf("%s route %d: scores (%v,%v) != (%v,%v)", tag, i,
				g.LengthScore, g.SemanticScore, w.LengthScore, w.SemanticScore)
		}
		if len(w.PoIs) != len(g.PoIs) {
			t.Fatalf("%s route %d: PoI count differs", tag, i)
		}
		for j := range w.PoIs {
			if w.PoIs[j] != g.PoIs[j] {
				t.Fatalf("%s route %d: PoI %d: %d != %d", tag, i, j, g.PoIs[j], w.PoIs[j])
			}
		}
	}
}

// binaryTextPlans are the two serving plans the binary-vs-text identity
// tests sweep.
var binaryTextPlans = map[string]SearchOptions{
	"plain":          {},
	"category-index": {UseCategoryIndex: true},
}

// compareOpenedEngines runs destination queries (and their plain twins)
// against an engine opened from a binary file and one opened from the
// text form of the same dataset, under both serving plans, and requires
// bit-identical answers. It returns how many answers carried routes.
func compareOpenedEngines(t *testing.T, binEng, textEng *Engine, queries []Query, destSeed int64) int {
	t.Helper()
	nonEmpty := 0
	for i, q := range queries {
		dq := q
		dq.HasDestination = true
		dq.Destination = textEng.RandomVertex(destSeed + int64(i))
		for _, query := range []Query{dq, q} {
			for name, opts := range binaryTextPlans {
				want, err := textEng.SearchWith(query, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := binEng.SearchWith(query, opts)
				if err != nil {
					t.Fatal(err)
				}
				identicalAnswers(t, "binary-vs-text/"+name, want, got)
				if len(got.Routes) > 0 {
					nonEmpty++
				}
			}
		}
	}
	return nonEmpty
}

// TestBinaryRoundTripThroughEngine: an engine opened from SaveBinary's
// memory-mapped file answers destination queries bit-identically to one
// opened from Save's text file, under plain BSSR and the category-index
// plan.
func TestBinaryRoundTripThroughEngine(t *testing.T) {
	eng, err := Generate("nyc", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "nyc.skysrb")
	textPath := filepath.Join(dir, "nyc.skysr")
	if err := eng.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(textPath); err != nil {
		t.Fatal(err)
	}
	binEng, err := Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	textEng, err := Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(6, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	if compareOpenedEngines(t, binEng, textEng, queries, 50) == 0 {
		t.Fatal("no query returned routes; the comparison is vacuous")
	}
}

// TestLegacyOverlayBinaryDatasetAnswersLikeText opens a committed binary
// file written while the format still embedded a contraction-hierarchy
// overlay (skysr-gen -preset tokyo -scale 0.005 -binary -ch). The reader
// skips the overlay, and the engine must answer exactly like one opened
// from the dataset's text twin (same preset, scale and seed).
func TestLegacyOverlayBinaryDatasetAnswersLikeText(t *testing.T) {
	dir := filepath.Join("internal", "dataset", "testdata")
	binEng, err := Open(filepath.Join(dir, "legacy-ch.skysrb"))
	if err != nil {
		t.Fatal(err)
	}
	textEng, err := Open(filepath.Join(dir, "legacy-ch.skysr"))
	if err != nil {
		t.Fatal(err)
	}
	if binEng.NumVertices() != textEng.NumVertices() || binEng.NumPoIs() != textEng.NumPoIs() {
		t.Fatalf("shape differs: binary %d/%d, text %d/%d vertices/PoIs",
			binEng.NumVertices(), binEng.NumPoIs(), textEng.NumVertices(), textEng.NumPoIs())
	}
	queries, err := textEng.Workload(8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := compareOpenedEngines(t, binEng, textEng, queries, 70)
	if n == 0 {
		t.Fatal("no query returned routes; the comparison is vacuous")
	}
	t.Logf("%d non-empty answers compared", n)
}
