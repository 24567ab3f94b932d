package core

import (
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/topk"
)

// The destination-prune differential suite. Every weight, profile
// breakpoint and departure time below is a multiple of 1/64 and every
// profile slope is −1, 0 or +1, so each float sum and profile evaluation
// the engine and the oracles perform is exact: score ties are true ties,
// and any disagreement is a pruning bug rather than a reassociation
// artefact.

// dyadic returns a random multiple of 1/64 in [lo, hi].
func dyadic(rng *rand.Rand, lo, hi float64) float64 {
	return (lo*64 + float64(rng.Intn(int((hi-lo)*64)+1))) / 64
}

// dyadicProfile returns a FIFO trapezoid profile over the period with
// lower bound c: flat at c, a slope-1 rise of height h, flat at c+h, a
// slope −1 fall back to c.
func dyadicProfile(rng *rand.Rand, period, c float64) graph.Profile {
	h := dyadic(rng, 0.25, 4)
	a := dyadic(rng, 0, period/2-h-1)
	b := a + h + dyadic(rng, 0.25, period/2-h-1)
	return graph.Profile{Times: []float64{a, a + h, b, b + h}, Costs: []float64{c, c + h, c + h, c}}
}

// dyadicDataset builds a random dataset with dyadic weights: a random
// spanning tree plus as many random extra edges, and PoIs attached to
// random vertices. Directed graphs get independently drawn arcs for each
// direction of the tree and the PoI attachments (extra arcs stay one-way,
// so some vertices may not reach the destination). With period > 0
// roughly half the edges carry a dyadicProfile.
func dyadicDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, directed bool, period float64) *dataset.Dataset {
	b := graph.NewBuilder(directed)
	if period > 0 {
		if err := b.SetTimePeriod(period); err != nil {
			panic(err)
		}
	}
	edge := func(u, v graph.VertexID, lo, hi float64) {
		w := dyadic(rng, lo, hi)
		idx := b.AddEdge(u, v, w)
		if period > 0 && rng.Intn(2) == 0 {
			if err := b.SetEdgeProfile(idx, dyadicProfile(rng, period, w)); err != nil {
				panic(err)
			}
		}
	}
	both := func(u, v graph.VertexID, lo, hi float64) {
		edge(u, v, lo, hi)
		if directed {
			edge(v, u, lo, hi)
		}
	}
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		both(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1, 10)
	}
	for e := 0; e < vertices; e++ {
		if u, v := rng.Intn(vertices), rng.Intn(vertices); u != v {
			edge(graph.VertexID(u), graph.VertexID(v), 1, 10)
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		both(attach, p, 0.125, 1)
	}
	return dataset.MustNew("dyadic", b.Build(), f)
}

// samePoints reports that routes carry exactly the given score points.
func samePoints(routes []*route.Route, want []topk.Point) bool {
	if len(routes) != len(want) {
		return false
	}
	for i, r := range routes {
		if r.Length() != want[i].Length || r.Semantic() != want[i].Semantic {
			return false
		}
	}
	return true
}

// TestDestinationPruneMatchesBruteForceDyadic drives 520 random
// destination queries on directed and undirected dyadic graphs through
// every plan the destination prune touches and checks each answer against
// the brute-force oracles: the plain and category-index plans, top-k for
// k = 2..4, and one SharedCache searcher reused across destination and
// no-destination queries, where a published destination-cut entry would
// starve a later no-destination query of candidates. That last check
// compares against the same plan without the SharedCache, which isolates
// sharing from the brute-force gap the path filter has when the start is
// a PoI reused later in the route (see ROADMAP).
func TestDestinationPruneMatchesBruteForceDyadic(t *testing.T) {
	const datasets, casesPerDataset = 130, 2
	f := taxonomy.Generated(3, 2, 3)
	var cases, prunedByDest, sharedHits int64
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < datasets; trial++ {
			d := dyadicDataset(rng, f, 20, 16, directed, 0)
			n := d.Graph.NumVertices()
			ci := index.Build(d)
			withIndex := DefaultOptions()
			withIndex.Index = ci
			withShared := withIndex
			withShared.Shared = NewSharedCache(0)
			shared := NewSearcher(d, f.WuPalmer, withShared)
			for c := 0; c < casesPerDataset; c++ {
				cases++
				cats := pickCats(rng, f, 2+rng.Intn(2))
				seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
				start := graph.VertexID(rng.Intn(n))
				dest := graph.VertexID(rng.Intn(n))
				fail := func(plan string, got []*route.Route, want any) {
					t.Helper()
					t.Fatalf("directed=%v trial %d case %d %s: start %d dest %d cats %v\n got %v\nwant %v",
						directed, trial, c, plan, start, dest, cats, got, want)
				}

				want := osr.BruteForceSkySRWithDestination(d, start, seq, route.AggProduct, dest)
				for plan, opts := range map[string]Options{"default": DefaultOptions(), "category-index": withIndex} {
					res, err := NewSearcher(d, f.WuPalmer, opts).QueryWithDestination(start, seq, dest)
					if err != nil {
						t.Fatal(err)
					}
					if !sameSkyline(res.Routes, want) {
						fail(plan, res.Routes, want.Routes())
					}
					prunedByDest += res.Stats.PrunedByDest
				}

				res, err := shared.QueryWithDestination(start, seq, dest)
				if err != nil {
					t.Fatal(err)
				}
				if !sameSkyline(res.Routes, want) {
					fail("shared/dest", res.Routes, want.Routes())
				}
				sharedHits += res.Stats.SharedCacheHits
				res, err = shared.Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := NewSearcher(d, f.WuPalmer, withIndex).Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				if !sameSkyline(res.Routes, skylineOf(plain.Routes)) {
					fail("shared/no-dest", res.Routes, plain.Routes)
				}
				sharedHits += res.Stats.SharedCacheHits

				for k := 2; k <= 4; k++ {
					opts := DefaultOptions()
					opts.TopK = k
					res, err := NewSearcher(d, f.WuPalmer, opts).QueryWithDestination(start, seq, dest)
					if err != nil {
						t.Fatal(err)
					}
					if wantK := topk.BruteForce(d, start, seq, k, route.AggProduct, dest); !samePoints(res.Routes, wantK) {
						fail("top-k", res.Routes, wantK)
					}
				}
			}
		}
	}
	if cases < 500 || prunedByDest == 0 || sharedHits == 0 {
		t.Fatalf("suite too weak: %d cases, %d destination prunes, %d shared hits", cases, prunedByDest, sharedHits)
	}
}

// TestDestinationPruneTimeDependentDyadic checks the prune under
// time-dependence: the table holds lower-bound distances, so every
// variant (index plans included) must still return the exact skyline of
// the time-expanded brute force for random departures.
func TestDestinationPruneTimeDependentDyadic(t *testing.T) {
	const period = 64
	f := taxonomy.Generated(2, 2, 3)
	var cases, prunedByDest int64
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(73))
		for trial := 0; trial < 40; trial++ {
			cases++
			d := dyadicDataset(rng, f, 16, 10, directed, period)
			cats := pickCats(rng, f, 2)
			seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
			n := d.Graph.NumVertices()
			start, dest := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			depart := dyadic(rng, 0, period)
			scorer := route.NewScorer(route.AggProduct, len(seq))
			want := route.NewSkyline()
			bruteTDRoutes(d, seq, start, dest, depart, scorer, func(r *route.Route) { want.Update(r, 0) })
			for name, opts := range tdVariants(d, cats) {
				opts.DepartAt = depart
				res, err := NewSearcher(d, d.Forest.WuPalmer, opts).QueryWithDestination(start, seq, dest)
				if err != nil {
					t.Fatalf("directed=%v trial %d %s: %v", directed, trial, name, err)
				}
				if !sameSkyline(res.Routes, want) {
					t.Fatalf("directed=%v trial %d %s: start %d dest %d depart %v\n got %v\nwant %v",
						directed, trial, name, start, dest, depart, res.Routes, want.Routes())
				}
				prunedByDest += res.Stats.PrunedByDest
			}
		}
	}
	if prunedByDest == 0 {
		t.Fatalf("no destination prune fired in %d cases", cases)
	}
}
