package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/topk"
)

func TestUnorderedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 14, 10)
		cats := pickCats(rng, f, 2)
		start := graph.VertexID(rng.Intn(14))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceUnordered(d, start, seq, route.AggProduct)
		for name, opts := range optionVariants() {
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryUnordered(start, seq)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: unordered mismatch\ngot:  %v\nwant: %v",
					trial, name, res.Routes, want.Routes())
			}
		}
	}

	// Three positions, so masks with two open positions share one sweep
	// entry; directed graphs; repeated categories; and a start vertex that
	// is itself a matching PoI, swept both as the query origin (where it
	// is a candidate) and as a later route's end (where it is not).
	// Dyadic weights make every length sum exact, so the top-k band and
	// the Caching on/off comparison demand identical score points.
	var indexPruned int64
	for trial := 0; trial < 24; trial++ {
		d := dyadicDataset(rng, f, 16, 12, trial%2 == 1, 0)
		cats := pickCats(rng, f, 3)
		if trial%3 == 1 {
			cats[2] = cats[0]
		}
		start := graph.VertexID(rng.Intn(16))
		if trial%4 >= 2 {
			pois := d.Graph.PoIVertices()
			start = pois[rng.Intn(len(pois))]
			cats[1] = d.Graph.Categories(start)[0]
		}
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceUnordered(d, start, seq, route.AggProduct)
		points := map[bool][]topk.Point{}
		variants := optionVariants()
		// The category index's next-hop prune and NNinit fast path, over
		// the open positions of each route.
		withIndex := DefaultOptions()
		withIndex.Index = index.Build(d)
		variants["index"] = withIndex
		for name, opts := range variants {
			res, err := NewSearcher(d, f.WuPalmer, opts).QueryUnordered(start, seq)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s (cats %v, start %d): unordered mismatch\ngot:  %v\nwant: %v",
					trial, name, cats, start, res.Routes, want.Routes())
			}
			if name == "all" || name == "no-cache" {
				points[opts.Caching] = routePoints(res.Routes)
			}
			indexPruned += res.Stats.PrunedByIndex
		}
		if !reflect.DeepEqual(points[true], points[false]) {
			t.Fatalf("trial %d: Caching on %v, off %v", trial, points[true], points[false])
		}

		// Top-k: the band over every visit order's achieved points.
		var all []topk.Point
		for _, p := range permutations(len(cats)) {
			order := make([]taxonomy.CategoryID, len(p))
			for i, j := range p {
				order[i] = cats[j]
			}
			permSeq := route.NewCategorySequence(f, f.WuPalmer, order...)
			all = append(all, topk.BruteForce(d, start, permSeq, 2, route.AggProduct, graph.NoVertex)...)
		}
		opts := DefaultOptions()
		opts.TopK = 2
		res, err := NewSearcher(d, f.WuPalmer, opts).QueryUnordered(start, seq)
		if err != nil {
			t.Fatal(err)
		}
		if got, band := routePoints(res.Routes), topk.Band(all, 2); !reflect.DeepEqual(got, band) {
			t.Fatalf("trial %d top-2: points %v, want %v", trial, got, band)
		}
		for _, r := range res.Routes {
			if r.Size() != len(seq) {
				t.Fatalf("trial %d top-2: route %v visits %d PoIs, want one per position", trial, r, r.Size())
			}
		}
	}
	if indexPruned == 0 {
		t.Fatal("the index prune never fired on an unordered query")
	}
}

// routePoints returns the routes' score points.
func routePoints(routes []*route.Route) []topk.Point {
	var out []topk.Point
	for _, r := range routes {
		out = append(out, topk.Point{Length: r.Length(), Semantic: r.Semantic()})
	}
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestUnorderedSweepRadiusReRun drives unorderedNext directly on a line
// graph: a request beyond the cached entry's radius re-runs the sweep and
// replaces the entry with the complete, larger candidate set, and a
// smaller request is then served from it, cut at its own radius.
func TestUnorderedSweepRadiusReRun(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	b := fb.MustAddRoot("B")
	f := fb.Build()
	// v0 ─1─ p1(A) ─1─ p2(B) ─1─ p3(A) ─1─ p4(B)
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geoPoint(0))
	prev := v0
	var pois []graph.VertexID
	for i, c := range []taxonomy.CategoryID{a, b, a, b} {
		p := gb.AddPoI(geoPoint(float64(i+1)), c)
		gb.AddEdge(prev, p, 1)
		pois = append(pois, p)
		prev = p
	}
	d := mustDataset(t, gb, f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, b)

	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	if err := s.initMetric(); err != nil {
		t.Fatal(err)
	}
	if err := s.initCancel(); err != nil {
		t.Fatal(err)
	}
	s.seq = seq
	s.scorer = route.NewScorer(s.opts.Aggregation, len(seq))
	empty := item{r: route.Empty(s.scorer)}
	s.ucache = map[unorderedKey]*unorderedEntry{}
	cache := s.ucache
	// request sets the start route's radius to l̄ = radius by seeding the
	// result set with one perfect route of that length.
	request := func(radius float64) []candidate {
		s.sky = s.newResultSet(false)
		s.sky.Update(empty.r.Extend(s.scorer, pois[0], radius, 1).Extend(s.scorer, pois[1], 0, 1), 0)
		return s.unorderedNext(empty, v0)
	}
	cand := func(v graph.VertexID, dist float64, pos int) candidate {
		return candidate{v: v, bit: 1 << uint(pos), dist: dist, sim: 1, blockV: graph.NoVertex}
	}
	want := func(n int) []candidate {
		out := make([]candidate, n)
		for i := range out {
			out[i] = cand(pois[i], float64(i+1), i%2)
		}
		return out
	}
	key := unorderedKey{from: v0, origin: true}

	if got := request(2.5); !reflect.DeepEqual(got, want(2)) {
		t.Fatalf("radius 2.5: %v, want %v", got, want(2))
	}
	if got := request(4.5); !reflect.DeepEqual(got, want(4)) {
		t.Fatalf("radius 4.5: %v, want %v", got, want(4))
	}
	if s.stats.MDijkstraRuns != 2 || s.stats.CacheHits != 0 {
		t.Fatalf("larger radius: runs=%d hits=%d, want a re-run", s.stats.MDijkstraRuns, s.stats.CacheHits)
	}
	if e := cache[key]; len(cache) != 1 || e.radius != 4.5 || !reflect.DeepEqual(e.cands, want(4)) {
		t.Fatalf("entry not replaced by the larger sweep: %d entries, %+v", len(cache), e)
	}
	if got := request(1.5); !reflect.DeepEqual(got, want(1)) {
		t.Fatalf("radius 1.5: %v, want %v", got, want(1))
	}
	if s.stats.MDijkstraRuns != 2 || s.stats.CacheHits != 1 {
		t.Fatalf("smaller radius: runs=%d hits=%d, want a hit", s.stats.MDijkstraRuns, s.stats.CacheHits)
	}
	if want := int64(4 * 40); s.stats.PeakCacheBytes != want || s.cacheBytes != want {
		t.Fatalf("cache bytes: peak %d, running %d, want %d", s.stats.PeakCacheBytes, s.cacheBytes, want)
	}

	// The origin bit: p1 swept as the query start is its own candidate at
	// distance 0; swept as the end of a route it is not, so the two
	// sweeps keep separate entries.
	atStart := s.unorderedNext(empty, pois[0])
	if wantStart := []candidate{cand(pois[0], 0, 0), cand(pois[1], 1, 1)}; !reflect.DeepEqual(atStart, wantStart) {
		t.Fatalf("sweep from p1 as the start: %v, want %v", atStart, wantStart)
	}
	if atEnd := s.unorderedNext(s.extend(empty, cand(pois[0], 1, 0)), pois[0]); len(atEnd) != 0 || len(cache) != 3 {
		t.Fatalf("sweep from p1 as a route's end: %v with %d entries, want none with 3", atEnd, len(cache))
	}
}

// TestUnorderedReportsMDijkstraTime: unordered sweeps are charged to the
// m-Dijkstra stage, which is part of the query's time.
func TestUnorderedReportsMDijkstraTime(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	for _, caching := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Caching = caching
		res, err := NewSearcher(ds, ds.Forest.WuPalmer, opts).QueryUnordered(vq, seq)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.MDijkstraRuns == 0 || st.MDijkstraTime <= 0 || st.MDijkstraTime > st.QueryTime {
			t.Fatalf("caching=%v: runs=%d MDijkstraTime=%v QueryTime=%v, want 0 < MDijkstraTime ≤ QueryTime",
				caching, st.MDijkstraRuns, st.MDijkstraTime, st.QueryTime)
		}
	}
}

func TestUnorderedBeatsOrderWhenOrderIsBad(t *testing.T) {
	// Line: A ---- start ---- B. Ordered ⟨A, B⟩ must backtrack; unordered
	// may also pick B first. The unordered optimum visits the nearer side
	// first.
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	pa := gb.AddPoI(geoPoint(-3), a)
	v0 := gb.AddVertex(geoPoint(0))
	pb := gb.AddPoI(geoPoint(1), bCat)
	gb.AddEdge(pa, v0, 3)
	gb.AddEdge(v0, pb, 1)
	d := mustDataset(t, gb, f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)

	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	ordered, err := s.Query(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := s.QueryUnordered(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered: v0→pa (3) →pb (4) = 7. Unordered: v0→pb (1) →pa (4) = 5.
	if math.Abs(ordered.Routes[0].Length()-7) > 1e-9 {
		t.Errorf("ordered length = %v, want 7", ordered.Routes[0].Length())
	}
	if math.Abs(unordered.Routes[0].Length()-5) > 1e-9 {
		t.Errorf("unordered length = %v, want 5", unordered.Routes[0].Length())
	}
}

func TestUnorderedValidation(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	if _, err := s.QueryUnordered(vq, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	if _, err := s.QueryUnordered(-5, seq); err == nil {
		t.Error("invalid start should fail")
	}
	big := make(route.Sequence, 31)
	for i := range big {
		big[i] = seq[0]
	}
	if _, err := s.QueryUnordered(vq, big); err == nil {
		t.Error("oversized sequence should fail")
	}
}

func TestUnorderedPaperExample(t *testing.T) {
	// On the Figure 1 fixture the unordered skyline must be at least as
	// good as the ordered one on every front.
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	ordered, err := s.Query(vq, seq)
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := s.QueryUnordered(vq, seq)
	if err != nil {
		t.Fatal(err)
	}
	want := osr.BruteForceUnordered(ds, vq, seq, route.AggProduct)
	if !sameSkyline(unordered.Routes, want) {
		t.Fatalf("unordered mismatch\ngot:  %v\nwant: %v", unordered.Routes, want.Routes())
	}
	for _, or := range ordered.Routes {
		cover := false
		for _, ur := range unordered.Routes {
			if ur.Length() <= or.Length() && ur.Semantic() <= or.Semantic() {
				cover = true
				break
			}
		}
		if !cover {
			t.Errorf("ordered route %v not covered by any unordered route", or)
		}
	}
}

func TestExpandPath(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Routes {
		path, err := s.ExpandPath(vq, r, graph.NoVertex)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != vq {
			t.Errorf("path starts at %d, want %d", path[0], vq)
		}
		if path[len(path)-1] != r.Last() {
			t.Errorf("path ends at %d, want %d", path[len(path)-1], r.Last())
		}
		// Expanded length must equal the length score.
		if got := s.PathLength(path); math.Abs(got-r.Length()) > 1e-9 {
			t.Errorf("expanded path length %v != route length %v", got, r.Length())
		}
		// Every PoI of the route must appear on the path in order.
		idx := 0
		pois := r.PoIs()
		for _, v := range path {
			if idx < len(pois) && v == pois[idx] {
				idx++
			}
		}
		if idx != len(pois) {
			t.Errorf("path %v does not visit PoIs %v in order", path, pois)
		}
	}
}

func TestExpandPathWithDestination(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	dest := graph.VertexID(3) // p3, far from everything
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryWithDestination(vq, seq, dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) == 0 {
		t.Fatal("expected routes with destination")
	}
	r := res.Routes[0]
	path, err := s.ExpandPath(vq, r, dest)
	if err != nil {
		t.Fatal(err)
	}
	if path[len(path)-1] != dest {
		t.Errorf("path ends at %d, want destination %d", path[len(path)-1], dest)
	}
	if got := s.PathLength(path); math.Abs(got-r.Length()) > 1e-9 {
		t.Errorf("expanded length %v != adjusted route length %v", got, r.Length())
	}
}

func TestExpandPathUnreachable(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geoPoint(0))
	p := gb.AddPoI(geoPoint(1), a)
	gb.AddEdge(v0, p, 1)
	island := gb.AddVertex(geoPoint(9))
	v2 := gb.AddVertex(geoPoint(10))
	gb.AddEdge(island, v2, 1)
	d := mustDataset(t, gb, f)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpandPath(v0, res.Routes[0], island); err == nil {
		t.Error("expanding to an unreachable destination should fail")
	}
}
