package core

import (
	"math/rand"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestIndexPreservesExactness: the §9 preprocessing index must never
// change results, with every other optimization on or off.
func TestIndexPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 20, 16)
		idx := index.Build(d)
		cats := pickCats(rng, f, 2+rng.Intn(2))
		start := graph.VertexID(rng.Intn(20))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, start, seq, route.AggProduct)
		for name, opts := range optionVariants() {
			opts.Index = idx
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(start, cats...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s+index: mismatch\ngot:  %v\nwant: %v",
					trial, name, res.Routes, want.Routes())
			}
		}
	}
}

// TestCategoryIndexPreservesExactness: the category-index profile — index
// rows built per category, §5.3.3 bounds derived from lookups, tightened
// expansion radii — must return the exact brute-force skyline under every
// optimization variant, on directed and undirected graphs.
func TestCategoryIndexPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 12; trial++ {
		d := randomDataset(rng, f, 24, 18)
		idx := index.New(d, 0)
		cats := pickCats(rng, f, 2+rng.Intn(3))
		start := graph.VertexID(rng.Intn(24))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, start, seq, route.AggProduct)
		for name, opts := range optionVariants() {
			opts.Index = idx
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(start, cats...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s+catindex: mismatch\ngot:  %v\nwant: %v",
					trial, name, res.Routes, want.Routes())
			}
		}
	}
}

// TestCategoryIndexAnswersIdenticalToBaseline: beyond score equality, the
// indexed profile must return byte-identical answers — same PoI ids in the
// same order with bit-equal scores — as the no-index default.
func TestCategoryIndexAnswersIdenticalToBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	f := taxonomy.Generated(4, 2, 3)
	for trial := 0; trial < 15; trial++ {
		d := randomDataset(rng, f, 40, 25)
		idx := index.New(d, 0)
		cats := pickCats(rng, f, 2+rng.Intn(3))
		start := graph.VertexID(rng.Intn(40))

		base := NewSearcher(d, f.WuPalmer, DefaultOptions())
		want, err := base.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		got, err := s.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Routes) != len(want.Routes) {
			t.Fatalf("trial %d: %d routes vs %d", trial, len(got.Routes), len(want.Routes))
		}
		for i := range want.Routes {
			if got.Routes[i].Length() != want.Routes[i].Length() ||
				got.Routes[i].Semantic() != want.Routes[i].Semantic() {
				t.Fatalf("trial %d route %d: scores differ bit-for-bit", trial, i)
			}
			gp, wp := got.Routes[i].PoIs(), want.Routes[i].PoIs()
			for j := range wp {
				if gp[j] != wp[j] {
					t.Fatalf("trial %d route %d: PoIs %v vs %v", trial, i, gp, wp)
				}
			}
		}
	}
}

// TestCategoryIndexBudgetFallback: when the budget denies rows, queries
// must transparently fall back to the per-query path with exact answers.
func TestCategoryIndexBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 24, 16)
		idx := index.New(d, int64(d.Graph.NumVertices())*4) // one row only
		cats := pickCats(rng, f, 3)
		start := graph.VertexID(rng.Intn(24))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, start, seq, route.AggProduct)
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: budget fallback mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want.Routes())
		}
	}
}

// TestIndexPrunes verifies the index actually removes work on a workload
// where it can (a spread-out dataset with distant category clusters).
func TestIndexPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := taxonomy.Generated(3, 2, 3)
	var prunedTotal int64
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 60, 30)
		idx := index.Build(d)
		cats := pickCats(rng, f, 3)
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		prunedTotal += res.Stats.PrunedByIndex
	}
	// Not every instance prunes, but across ten random instances the
	// index should fire at least once.
	if prunedTotal == 0 {
		t.Log("index never pruned on this workload (acceptable but unusual)")
	}
}

// TestIndexNeverIncreasesWork: settled vertices with the index must be ≤
// without (it only removes expansions).
func TestIndexNeverIncreasesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := taxonomy.Generated(3, 2, 3)
	var with, without int64
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 50, 30)
		idx := index.Build(d)
		cats := pickCats(rng, f, 3)
		opts := DefaultOptions()
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		without += res.Stats.SettledVertices

		opts.Index = idx
		s2 := NewSearcher(d, f.WuPalmer, opts)
		res2, err := s2.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		with += res2.Stats.SettledVertices
	}
	if with > without {
		t.Errorf("index increased settled vertices: %d > %d", with, without)
	}
}

func TestPathFilterAblationPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 18, 14)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, 0, seq, route.AggProduct)
		opts := DefaultOptions()
		opts.DisablePathFilter = true
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d no-filter: mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want.Routes())
		}
	}
}

func TestTraceEventsPaperExample(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	var events []Event
	opts := DefaultOptions()
	opts.Trace = func(e Event) { events = append(events, e) }
	s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	counts := map[EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	// The trace must be consistent with the stats.
	if int64(counts[EventPop]) != res.Stats.RoutesPopped {
		t.Errorf("pop events %d != RoutesPopped %d", counts[EventPop], res.Stats.RoutesPopped)
	}
	if int64(counts[EventEnqueue]) != res.Stats.RoutesEnqueued {
		t.Errorf("enqueue events %d != RoutesEnqueued %d", counts[EventEnqueue], res.Stats.RoutesEnqueued)
	}
	if int64(counts[EventMDijkstraRun]) != res.Stats.MDijkstraRuns {
		t.Errorf("run events %d != MDijkstraRuns %d", counts[EventMDijkstraRun], res.Stats.MDijkstraRuns)
	}
	if int64(counts[EventCacheHit]) != res.Stats.CacheHits {
		t.Errorf("cache events %d != CacheHits %d", counts[EventCacheHit], res.Stats.CacheHits)
	}
	if int64(counts[EventPruneThreshold]) != res.Stats.PrunedThreshold {
		t.Errorf("prune events %d != PrunedThreshold %d", counts[EventPruneThreshold], res.Stats.PrunedThreshold)
	}
	// Table 4's trace has pruned fetches (steps 6, 9 and 12's route died
	// earlier or at fetch): at least one threshold prune must fire.
	if counts[EventPruneThreshold] == 0 {
		t.Error("expected threshold prunes on the Table 4 trace")
	}
	// Exactly 2 accepted skyline updates survive to the final S... more
	// may be accepted then evicted; but at least the 2 winners were
	// accepted.
	if counts[EventSkylineUpdate] < 2 {
		t.Errorf("skyline updates = %d, want ≥ 2", counts[EventSkylineUpdate])
	}
	// Event kinds render.
	for k := EventPop; k <= EventCacheHit; k++ {
		if k.String() == "" {
			t.Errorf("event kind %d has no name", k)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestTable4SkylineEvolution follows the skyline set through the Table 4
// trace: ⟨p10,p12,p13⟩ must evict ⟨p2,p5,p8⟩ (step 5), ⟨p1,p9,p8⟩ must
// evict ⟨p2,p5,p7⟩ (step 8), and ⟨p6,p9,p8⟩ must evict ⟨p1,p9,p8⟩
// (step 11).
func TestTable4SkylineEvolution(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	var accepted [][]graph.VertexID
	opts := DefaultOptions()
	opts.Trace = func(e Event) {
		if e.Kind == EventSkylineUpdate {
			accepted = append(accepted, e.Route.PoIs())
		}
	}
	s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	if _, err := s.QueryCategories(vq, cats...); err != nil {
		t.Fatal(err)
	}
	want := [][]graph.VertexID{
		{10, 12, 13}, // step 5
		{1, 9, 8},    // step 8
		{6, 9, 8},    // step 11
	}
	if len(accepted) != len(want) {
		t.Fatalf("accepted sequence %v, want %v", accepted, want)
	}
	for i := range want {
		for j := range want[i] {
			if accepted[i][j] != want[i][j] {
				t.Fatalf("accepted sequence %v, want %v", accepted, want)
			}
		}
	}
}
