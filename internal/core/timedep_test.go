package core

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/topk"
)

// tdDataset builds a small random connected dataset whose edges carry
// random FIFO travel-time profiles with probability frac. The period is
// sized comparable to route travel times, so the clock genuinely moves
// across profile segments within one route.
func tdDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, period, frac float64) *dataset.Dataset {
	b := graph.NewBuilder(false)
	if err := b.SetTimePeriod(period); err != nil {
		panic(err)
	}
	profile := func(idx int) {
		if rng.Float64() < frac {
			p := gen.RandomFIFOProfile(rng, period, 1+rng.Intn(5), 12)
			if err := b.SetEdgeProfile(idx, p); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		profile(b.AddEdge(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1+rng.Float64()*9))
	}
	for e := 0; e < vertices; e++ {
		u, v := rng.Intn(vertices), rng.Intn(vertices)
		if u != v {
			profile(b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1+rng.Float64()*9))
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		profile(b.AddEdge(attach, p, 0.1+rng.Float64()))
	}
	return dataset.MustNew("td-rand", b.Build(), f)
}

// refTDDist is the reference time-dependent single-source shortest
// travel-time computation: a plain O(V²) label-setting Dijkstra with
// cost-at-arrival evaluation, structurally independent of the engine's
// workspace/heap machinery.
func refTDDist(g *graph.Graph, src graph.VertexID, depart float64) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u := graph.VertexID(-1)
		best := math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best, u = dist[v], graph.VertexID(v)
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		ts, _ := g.Neighbors(u)
		base := g.ArcBase(u)
		for i, t := range ts {
			nd := dist[u] + g.CostAt(base+int32(i), depart+dist[u])
			if nd < dist[t] {
				dist[t] = nd
			}
		}
	}
}

// bruteTDRoutes enumerates every feasible sequenced route for an ordered
// query — all assignments of distinct semantically matching PoIs to
// positions, each leg priced by the reference time-dependent Dijkstra at
// its actual departure time — and feeds them to visit. dest of
// graph.NoVertex means no destination leg.
func bruteTDRoutes(d *dataset.Dataset, seq route.Sequence, start, dest graph.VertexID, depart float64, scorer route.Scorer, visit func(*route.Route)) {
	g := d.Graph
	var rec func(r *route.Route, from graph.VertexID, t float64)
	rec = func(r *route.Route, from graph.VertexID, t float64) {
		pos := r.Size()
		if pos == len(seq) {
			if dest != graph.NoVertex {
				leg := refTDDist(g, from, t)[dest]
				if math.IsInf(leg, 1) {
					return
				}
				r = r.AddLength(leg)
			}
			visit(r)
			return
		}
		dist := refTDDist(g, from, t)
		origin := pos == 0
		for _, p := range g.PoIVertices() {
			if r.Contains(p) || math.IsInf(dist[p], 1) {
				continue
			}
			if p == from && !origin {
				continue
			}
			sim := seq[pos].Sim(g.Categories(p))
			if sim <= 0 {
				continue
			}
			rec(r.Extend(scorer, p, dist[p], sim), p, t+dist[p])
		}
	}
	rec(route.Empty(scorer), start, depart)
}

// bruteTDUnordered is bruteTDRoutes for the unordered (trip planning)
// query: every PoI may serve any still-uncovered position it matches.
func bruteTDUnordered(d *dataset.Dataset, seq route.Sequence, start graph.VertexID, depart float64, scorer route.Scorer, visit func(*route.Route)) {
	g := d.Graph
	full := uint32(1)<<len(seq) - 1
	var rec func(r *route.Route, mask uint32, from graph.VertexID, t float64)
	rec = func(r *route.Route, mask uint32, from graph.VertexID, t float64) {
		if mask == full {
			visit(r)
			return
		}
		dist := refTDDist(g, from, t)
		origin := r.Size() == 0
		for _, p := range g.PoIVertices() {
			if r.Contains(p) || math.IsInf(dist[p], 1) {
				continue
			}
			if p == from && !origin {
				continue
			}
			cats := g.Categories(p)
			for pos := range seq {
				if mask&(1<<uint(pos)) != 0 {
					continue
				}
				if sim := seq[pos].Sim(cats); sim > 0 {
					rec(r.Extend(scorer, p, dist[p], sim), mask|1<<uint(pos), p, t+dist[p])
				}
			}
		}
	}
	rec(route.Empty(scorer), 0, start, depart)
}

// tdVariants are the option configurations the time-dependent exactness
// tests sweep, including the category-index serving plan.
func tdVariants(d *dataset.Dataset, cats []taxonomy.CategoryID) map[string]Options {
	variants := map[string]Options{
		"none":     WithoutOptimizations(),
		"all":      DefaultOptions(),
		"no-cache": DefaultOptions(),
	}
	v := variants["no-cache"]
	v.Caching = false
	variants["no-cache"] = v

	ci := index.Build(d)
	for _, c := range cats {
		ci.Prewarm(c)
	}
	withCat := DefaultOptions()
	withCat.Index = ci
	variants["category-index"] = withCat
	return variants
}

// TestTimeDependentMatchesBruteForce is the time-dependent counterpart of
// the central exactness test: on random FIFO graphs, every optimization
// configuration (including the index serving profiles) must return
// exactly the skyline of the brute-force time-expanded enumeration, for
// several departure times.
func TestTimeDependentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 10; trial++ {
		d := tdDataset(rng, f, 18, 12, 60, 0.6)
		size := 2 + trial%2
		cats := pickCats(rng, f, size)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		departs := []float64{0, rng.Float64() * 60, 55 + rng.Float64()*10}
		for _, depart := range departs {
			scorer := route.NewScorer(route.AggProduct, size)
			want := route.NewSkyline()
			bruteTDRoutes(d, seq, start, graph.NoVertex, depart, scorer, func(r *route.Route) {
				want.Update(r)
			})
			for name, opts := range tdVariants(d, cats) {
				opts.DepartAt = depart
				s := NewSearcher(d, d.Forest.WuPalmer, opts)
				res, err := s.Query(start, seq)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				if !sameSkyline(res.Routes, want) {
					t.Fatalf("trial %d depart %v %s: skyline mismatch\n got %v\nwant %v",
						trial, depart, name, res.Routes, want.Routes())
				}
			}
		}
	}
}

// TestTimeDependentDestinationMatchesBruteForce covers the §6
// destination variant under time-dependence: the final leg must be the
// exact travel time at the route's arrival, not the lower bound.
func TestTimeDependentDestinationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 8; trial++ {
		d := tdDataset(rng, f, 16, 10, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		dest := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		scorer := route.NewScorer(route.AggProduct, len(seq))
		want := route.NewSkyline()
		bruteTDRoutes(d, seq, start, dest, depart, scorer, func(r *route.Route) {
			want.Update(r)
		})
		for name, opts := range tdVariants(d, cats) {
			opts.DepartAt = depart
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.QueryWithDestination(start, seq, dest)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: destination skyline mismatch\n got %v\nwant %v",
					trial, name, res.Routes, want.Routes())
			}
		}
	}
}

// TestTimeDependentUnorderedMatchesBruteForce covers the unordered trip
// planning query under time-dependence.
func TestTimeDependentUnorderedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := tdDataset(rng, f, 14, 8, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		scorer := route.NewScorer(route.AggProduct, len(seq))
		want := route.NewSkyline()
		bruteTDUnordered(d, seq, start, depart, scorer, func(r *route.Route) {
			want.Update(r)
		})
		for _, name := range []string{"none", "all"} {
			opts := WithoutOptimizations()
			if name == "all" {
				opts = DefaultOptions()
			}
			opts.DepartAt = depart
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.QueryUnordered(start, seq)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: unordered skyline mismatch\n got %v\nwant %v",
					trial, name, res.Routes, want.Routes())
			}
		}
	}
}

// TestTimeDependentTopKMatchesBruteForce checks ranked enumeration under
// time-dependence: the k-band of the brute-force enumeration must match
// the search's top-k answer.
func TestTimeDependentTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := tdDataset(rng, f, 16, 10, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		for _, k := range []int{2, 3} {
			scorer := route.NewScorer(route.AggProduct, len(seq))
			want := topk.NewSkyband(k)
			bruteTDRoutes(d, seq, start, graph.NoVertex, depart, scorer, func(r *route.Route) {
				want.Update(r)
			})
			opts := DefaultOptions()
			opts.DepartAt = depart
			opts.TopK = k
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.Query(start, seq)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			wr := want.Routes()
			if len(res.Routes) != len(wr) {
				t.Fatalf("trial %d k=%d: %d routes, want %d\n got %v\nwant %v",
					trial, k, len(res.Routes), len(wr), res.Routes, wr)
			}
			for i := range wr {
				if math.Abs(res.Routes[i].Length()-wr[i].Length()) > 1e-9 ||
					math.Abs(res.Routes[i].Semantic()-wr[i].Semantic()) > 1e-9 {
					t.Fatalf("trial %d k=%d: rank %d (%v) != brute (%v)",
						trial, k, i+1, res.Routes[i], wr[i])
				}
			}
		}
	}
}

// TestConstantProfilesMatchStatic pins the metric-layer identity at the
// core level: a dataset whose every edge carries a constant profile equal
// to its weight answers bit-identically to the unprofiled dataset, for
// every optimization configuration and departure time.
func TestConstantProfilesMatchStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 20, 14)
		g := d.Graph
		var specs []graph.ProfileChange
		seen := map[[2]graph.VertexID]bool{}
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				if u > v || seen[[2]graph.VertexID{u, v}] {
					continue
				}
				seen[[2]graph.VertexID{u, v}] = true
				// Parallel edges collapse onto one profile; the pair's
				// minimum weight keeps every shortest distance intact.
				w, _ := g.EdgeWeight(u, v)
				specs = append(specs, graph.ProfileChange{U: u, V: v, Profile: graph.ConstantProfile(w)})
			}
		}
		cg, err := g.Apply(graph.Edits{SetProfiles: specs})
		if err != nil {
			t.Fatal(err)
		}
		if !cg.HasTimeProfiles() {
			t.Fatal("constant-profile graph reports no profiles")
		}
		cd, err := dataset.New(d.Name, cg, f)
		if err != nil {
			t.Fatal(err)
		}
		cats := pickCats(rng, f, 3)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(g.NumVertices()))
		for name, opts := range optionVariants() {
			for _, depart := range []float64{0, 12345.5} {
				opts.DepartAt = depart
				want, err := NewSearcher(d, d.Forest.WuPalmer, opts).Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewSearcher(cd, cd.Forest.WuPalmer, opts).Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Routes) != len(want.Routes) {
					t.Fatalf("trial %d %s depart %v: %d routes vs %d", trial, name, depart, len(got.Routes), len(want.Routes))
				}
				for i := range want.Routes {
					if got.Routes[i].Length() != want.Routes[i].Length() ||
						got.Routes[i].Semantic() != want.Routes[i].Semantic() ||
						got.Routes[i].Last() != want.Routes[i].Last() {
						t.Fatalf("trial %d %s depart %v: route %d differs: %v vs %v",
							trial, name, depart, i, got.Routes[i], want.Routes[i])
					}
				}
			}
		}
	}
}

// TestTimeDependentFIFOMonotonic checks the search-level FIFO arrival
// property on random profiles: departing later never arrives earlier,
// for every reachable vertex.
func TestTimeDependentFIFOMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := taxonomy.Generated(2, 2, 2)
	for trial := 0; trial < 8; trial++ {
		d := tdDataset(rng, f, 20, 6, 60, 0.7)
		g := d.Graph
		m := g.Metric()
		ws := dijkstra.New(g)
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		t1 := rng.Float64() * 60
		t2 := t1 + rng.Float64()*30
		arrivals := func(depart float64) []float64 {
			out := make([]float64, g.NumVertices())
			for i := range out {
				out[i] = math.Inf(1)
			}
			ws.Run(dijkstra.Options{
				Sources: []graph.VertexID{src}, Metric: m, DepartAt: depart,
				OnSettle: func(v graph.VertexID, dd float64) dijkstra.Control {
					out[v] = depart + dd
					return dijkstra.Continue
				},
			})
			return out
		}
		a1, a2 := arrivals(t1), arrivals(t2)
		for v := range a1 {
			if a2[v] < a1[v]-1e-9 {
				t.Fatalf("trial %d: FIFO violated at vertex %d: depart %v arrives %v, depart %v arrives %v",
					trial, v, t1, a1[v], t2, a2[v])
			}
		}
		// Cross-check the engine Dijkstra against the reference.
		ref := refTDDist(g, src, t1)
		for v := range ref {
			got := a1[v] - t1
			if math.IsInf(ref[v], 1) != math.IsInf(got, 1) || (!math.IsInf(ref[v], 1) && math.Abs(got-ref[v]) > 1e-9) {
				t.Fatalf("trial %d: TD distance mismatch at %d: got %v want %v", trial, v, got, ref[v])
			}
		}
	}
}

// TestDepartAtValidation rejects non-finite and negative departures.
func TestDepartAtValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 10, 4)
	seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, pickCats(rng, f, 2)...)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		opts := DefaultOptions()
		opts.DepartAt = bad
		s := NewSearcher(d, d.Forest.WuPalmer, opts)
		if _, err := s.Query(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by Query", bad)
		}
		if _, err := s.QueryUnordered(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by QueryUnordered", bad)
		}
		if _, err := s.QueryRated(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by QueryRated", bad)
		}
	}
}
