package skysr

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"skysr/internal/graph"
)

// constantProfileBatch builds an UpdateBatch that attaches a constant
// profile — equal to the pair's minimum weight — to every edge of the
// engine's dataset. The resulting engine is semantically identical to
// the original but runs every search through the TimeDependent metric.
func constantProfileBatch(eng *Engine) *UpdateBatch {
	b := new(UpdateBatch)
	type pair = [2]VertexID
	minW := map[pair]float64{}
	var order []pair
	for v := VertexID(0); int(v) < eng.NumVertices(); v++ {
		ts, ws := eng.Neighbors(v)
		for i, t := range ts {
			u, w := v, t
			if u > w {
				u, w = w, u
			}
			key := pair{u, w}
			if old, ok := minW[key]; !ok {
				minW[key] = ws[i]
				order = append(order, key)
			} else if ws[i] < old {
				minW[key] = ws[i]
			}
		}
	}
	for _, key := range order {
		b.SetEdgeProfile(key[0], key[1], []float64{0}, []float64{minW[key]})
	}
	return b
}

// timedepProfiles are the serving profiles the identity tests sweep.
var timedepProfiles = map[string]SearchOptions{
	"plain":          {},
	"share-cache":    {ShareCache: true},
	"category-index": {UseCategoryIndex: true},
}

// tdAnswersEqual compares two answers bit-exactly (routes, ranks, scores).
func tdAnswersEqual(t *testing.T, label string, got, want *Answer) {
	t.Helper()
	if len(got.Routes) != len(want.Routes) {
		t.Fatalf("%s: %d routes, want %d", label, len(got.Routes), len(want.Routes))
	}
	for i := range want.Routes {
		g, w := got.Routes[i], want.Routes[i]
		if g.Rank != w.Rank || g.LengthScore != w.LengthScore || g.SemanticScore != w.SemanticScore {
			t.Fatalf("%s: route %d = (%d, %v, %v), want (%d, %v, %v)",
				label, i, g.Rank, g.LengthScore, g.SemanticScore, w.Rank, w.LengthScore, w.SemanticScore)
		}
		if len(g.PoIs) != len(w.PoIs) {
			t.Fatalf("%s: route %d PoI count %d vs %d", label, i, len(g.PoIs), len(w.PoIs))
		}
		for j := range w.PoIs {
			if g.PoIs[j] != w.PoIs[j] {
				t.Fatalf("%s: route %d PoI %d: %d vs %d", label, i, j, g.PoIs[j], w.PoIs[j])
			}
		}
	}
}

// TestConstantProfilesByteIdenticalToStatic is the metric-layer identity
// property at the engine level: a TimeDependent dataset whose profiles
// are all constant answers byte-identically to the Static original, on
// every preset, under every serving profile, through Search, SearchBatch
// and SearchTopK, at several departure times.
func TestConstantProfilesByteIdenticalToStatic(t *testing.T) {
	for _, preset := range Presets() {
		static, err := Generate(preset, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		timedep, err := Generate(preset, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := timedep.ApplyUpdates(constantProfileBatch(timedep)); err != nil {
			t.Fatal(err)
		}
		if !timedep.HasTimeProfiles() {
			t.Fatal("constant-profile engine reports no profiles")
		}
		queries, err := static.Workload(6, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range timedepProfiles {
			for _, depart := range []float64{0, timedep.TimePeriod() / 3} {
				opts := opts
				opts.DepartAt = depart
				for _, q := range queries {
					want, err := static.SearchWith(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := timedep.SearchWith(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := preset + "/" + name + "/Search"
					tdAnswersEqual(t, label, got, want)

					wantK, err := static.SearchTopK(q, 4, opts)
					if err != nil {
						t.Fatal(err)
					}
					gotK, err := timedep.SearchTopK(q, 4, opts)
					if err != nil {
						t.Fatal(err)
					}
					tdAnswersEqual(t, preset+"/"+name+"/SearchTopK", gotK, wantK)
				}
				wantB, err := static.SearchBatch(queries, BatchOptions{Workers: 2, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := timedep.SearchBatch(queries, BatchOptions{Workers: 2, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantB {
					tdAnswersEqual(t, preset+"/"+name+"/SearchBatch", gotB[i], wantB[i])
				}
			}
		}
	}
}

// TestTimeProfileUpdates exercises the live-update path: the min-weight
// row carry rule, round-tripping through Save/Open, and typed rejection
// of invalid profiles.
func TestTimeProfileUpdates(t *testing.T) {
	eng, err := Generate("tokyo", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Build index rows so the carry rule is observable.
	if _, err := eng.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	rowsBefore := eng.CategoryIndexStats().RowsBuilt
	if rowsBefore == 0 {
		t.Fatal("no index rows to carry")
	}

	// Pick a real edge.
	var u, v VertexID
	var w float64
	ts, ws := eng.Neighbors(0)
	if len(ts) == 0 {
		t.Fatal("vertex 0 has no edges")
	}
	u, v, w = 0, ts[0], ws[0]

	// A profile whose minimum equals the edge weight cannot shrink any
	// lower-bound distance: all rows carry.
	res, err := eng.ApplyUpdates(new(UpdateBatch).SetEdgeProfile(u, v,
		[]float64{0, 30000, 40000}, []float64{w, 3 * w, w}))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfilesSet != 1 || res.IndexInvalidated || res.GraphRebuilt {
		t.Fatalf("min-preserving profile: %+v", res)
	}
	if res.RowsCarried != rowsBefore {
		t.Fatalf("carried %d rows, want %d", res.RowsCarried, rowsBefore)
	}
	if !eng.HasTimeProfiles() || eng.NumTimeProfiles() != 1 {
		t.Fatalf("profile count = %d", eng.NumTimeProfiles())
	}

	// A profile that lowers the minimum can shrink any distance: every
	// row is invalidated.
	res, err = eng.ApplyUpdates(new(UpdateBatch).SetEdgeProfile(u, v,
		[]float64{0, 30000}, []float64{w / 2, w}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexInvalidated {
		t.Fatalf("min-lowering profile carried rows: %+v", res)
	}

	// Clearing keeps the lower-bound weight: rows carry again.
	res, err = eng.ApplyUpdates(new(UpdateBatch).ClearEdgeProfile(u, v))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfilesCleared != 1 || res.IndexInvalidated {
		t.Fatalf("clear: %+v", res)
	}
	if eng.HasTimeProfiles() {
		t.Fatal("profile survived clearing")
	}

	// Invalid profiles reject the batch with the typed error and leave
	// the engine untouched.
	epoch := eng.Epoch()
	_, err = eng.ApplyUpdates(new(UpdateBatch).SetEdgeProfile(u, v,
		[]float64{0, 1}, []float64{1e9, 0})) // slope ≪ −1
	if !errors.Is(err, graph.ErrBadProfile) {
		t.Fatalf("non-FIFO profile: %v", err)
	}
	_, err = eng.ApplyUpdates(new(UpdateBatch).SetEdgeProfile(u, v,
		[]float64{5, 1}, []float64{1, 1}))
	if !errors.Is(err, graph.ErrBadProfile) {
		t.Fatalf("unsorted profile: %v", err)
	}
	_, err = eng.ApplyUpdates(new(UpdateBatch).SetEdgeProfile(u, v,
		[]float64{0}, []float64{-1}))
	if !errors.Is(err, graph.ErrBadProfile) {
		t.Fatalf("negative cost: %v", err)
	}
	if eng.Epoch() != epoch {
		t.Fatal("failed batch advanced the epoch")
	}
}

// TestTimeDependentRoundTripAndEffect attaches rush-hour profiles, saves
// and reopens the dataset, verifies the reopened engine answers
// identically, and checks time-dependence is actually observable: some
// query is more expensive at rush hour than at free flow, and never
// cheaper than the static lower bound.
func TestTimeDependentRoundTripAndEffect(t *testing.T) {
	eng, err := Generate("tokyo", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Generate("tokyo", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.AttachTimeProfiles(0.6, 17)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || eng.NumTimeProfiles() != n {
		t.Fatalf("attached %d profiles, engine reports %d", n, eng.NumTimeProfiles())
	}

	path := filepath.Join(t.TempDir(), "td.skysr")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumTimeProfiles() != n {
		t.Fatalf("reopened engine has %d profiles, want %d", reopened.NumTimeProfiles(), n)
	}

	queries, err := eng.Workload(10, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	peak := eng.TimePeriod() * 0.32 // inside the generated morning peak
	differ := false
	for _, q := range queries {
		for _, depart := range []float64{0, peak} {
			want, err := eng.SearchAt(q, depart, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := reopened.SearchAt(q, depart, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tdAnswersEqual(t, "reopened", got, want)
			// Travel times never beat the static lower-bound graph.
			lb, err := static.SearchWith(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Routes) > 0 && len(lb.Routes) > 0 &&
				want.Routes[0].LengthScore < lb.Routes[0].LengthScore-1e-9 {
				t.Fatalf("rush-hour best %v beats static lower bound %v",
					want.Routes[0].LengthScore, lb.Routes[0].LengthScore)
			}
		}
		free, err := eng.SearchAt(q, 0, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rush, err := eng.SearchAt(q, peak, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(free.Routes) > 0 && len(rush.Routes) > 0 &&
			free.Routes[0].LengthScore != rush.Routes[0].LengthScore {
			differ = true
		}
	}
	if !differ {
		t.Error("no query's best route length changed between free flow and rush hour")
	}

	// Naive baselines refuse time-dependent datasets.
	if _, err := eng.SearchWith(queries[0], SearchOptions{Algorithm: NaiveDijkstra}); err == nil {
		t.Error("naive baseline accepted a time-dependent dataset")
	}
	// Invalid departure times are rejected.
	if _, err := eng.SearchAt(queries[0], -5, SearchOptions{}); err == nil {
		t.Error("negative departure accepted")
	}
}

// TestAttachTimeProfilesDeterministic pins determinism: same seed, same
// profile set.
func TestAttachTimeProfilesDeterministic(t *testing.T) {
	a, _ := Generate("nyc", 0.05, 9)
	b, _ := Generate("nyc", 0.05, 9)
	na, err := a.AttachTimeProfiles(0.4, 99)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.AttachTimeProfiles(0.4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("profile counts differ: %d vs %d", na, nb)
	}
	rng := rand.New(rand.NewSource(1))
	q, err := a.Workload(3, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	depart := rng.Float64() * a.TimePeriod()
	for _, query := range q {
		ra, err := a.SearchAt(query, depart, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.SearchAt(query, depart, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tdAnswersEqual(t, "deterministic", ra, rb)
	}
}
