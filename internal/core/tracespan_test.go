package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"skysr/internal/faults"
	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/trace"
)

// attrMap flattens a span's attributes for assertions.
func attrMap(sp *trace.Span) map[string]string {
	out := map[string]string{}
	for _, a := range sp.Attrs() {
		out[a.Key] = a.Val
	}
	return out
}

func findChild(sp *trace.Span, name string) *trace.Span {
	for _, c := range sp.Children() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// TestQuerySpanTreeMirrorsStats checks the explain tree of every query
// shape the search loop runs: the search span's attributes equal Stats,
// NNinit always records a span, the bounds span appears exactly when the
// §5.3.3 bounds ran (never for unordered queries), and one leg span per
// route size carries counters summing to the totals.
func TestQuerySpanTreeMirrorsStats(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	shapes := []struct {
		name   string
		bounds bool
		query  func(*Searcher) (*Result, error)
	}{
		{"ordered", true, func(s *Searcher) (*Result, error) { return s.Query(vq, seq) }},
		{"unordered", false, func(s *Searcher) (*Result, error) { return s.QueryUnordered(vq, seq) }},
		{"rated", true, func(s *Searcher) (*Result, error) { return s.QueryRated(vq, seq) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			opts := DefaultOptions()
			tr := trace.New("route")
			opts.Span = tr.Root()
			res, err := sh.query(NewSearcher(ds, ds.Forest.WuPalmer, opts))
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()

			kids := tr.Root().Children()
			if len(kids) != 1 || kids[0].Name() != "search" {
				t.Fatalf("root children = %v, want one search span", kids)
			}
			search := kids[0]
			attrs := attrMap(search)
			checks := map[string]string{
				"results":          strconv.Itoa(res.Stats.Results),
				"popped":           strconv.FormatInt(res.Stats.RoutesPopped, 10),
				"enqueued":         strconv.FormatInt(res.Stats.RoutesEnqueued, 10),
				"settled":          strconv.FormatInt(res.Stats.SettledVertices, 10),
				"md_runs":          strconv.FormatInt(res.Stats.MDijkstraRuns, 10),
				"md_requests":      strconv.FormatInt(res.Stats.MDijkstraRequests, 10),
				"cache_hits":       strconv.FormatInt(res.Stats.CacheHits, 10),
				"pruned_threshold": strconv.FormatInt(res.Stats.PrunedThreshold, 10),
				"pruned_bounds":    strconv.FormatInt(res.Stats.PrunedByBounds, 10),
				"pruned_index":     strconv.FormatInt(res.Stats.PrunedByIndex, 10),
			}
			for k, want := range checks {
				if attrs[k] != want {
					t.Errorf("search attr %s = %q, want %q", k, attrs[k], want)
				}
			}
			if _, ok := attrs["interrupted"]; ok {
				t.Error("completed query marked interrupted")
			}

			nninit := findChild(search, "nninit")
			if nninit == nil {
				t.Fatal("no nninit span")
			}
			na := attrMap(nninit)
			if na["routes"] != strconv.Itoa(res.Stats.InitRoutes) {
				t.Errorf("nninit routes = %q, want %d", na["routes"], res.Stats.InitRoutes)
			}
			if got := findChild(search, "bounds") != nil; got != sh.bounds {
				t.Fatalf("bounds span present = %v, want %v", got, sh.bounds)
			}

			// One leg span per route size, with counters summing to the
			// totals.
			var legRuns, legSettled, legPopped, legHits int64
			for i := range cats {
				leg := findChild(search, "leg["+strconv.Itoa(i)+"]")
				if leg == nil {
					t.Fatalf("no leg[%d] span", i)
				}
				la := attrMap(leg)
				for _, key := range []string{"runs", "settled", "popped", "enqueued", "cache_hits"} {
					if _, ok := la[key]; !ok {
						t.Fatalf("leg[%d] missing attr %s: %v", i, key, la)
					}
				}
				r, _ := strconv.ParseInt(la["runs"], 10, 64)
				sv, _ := strconv.ParseInt(la["settled"], 10, 64)
				p, _ := strconv.ParseInt(la["popped"], 10, 64)
				h, _ := strconv.ParseInt(la["cache_hits"], 10, 64)
				legRuns += r
				legSettled += sv
				legPopped += p
				legHits += h
			}
			if legRuns == 0 || legRuns != res.Stats.MDijkstraRuns {
				t.Errorf("Σ leg runs = %d, want MDijkstraRuns %d > 0", legRuns, res.Stats.MDijkstraRuns)
			}
			if legPopped != res.Stats.RoutesPopped {
				t.Errorf("Σ leg popped = %d, want RoutesPopped %d", legPopped, res.Stats.RoutesPopped)
			}
			if legHits != res.Stats.CacheHits {
				t.Errorf("Σ leg cache_hits = %d, want CacheHits %d", legHits, res.Stats.CacheHits)
			}
			// Leg settles exclude the shared-workspace searches (NNinit,
			// bounds), so they can only bound the total from below.
			if legSettled > res.Stats.SettledVertices {
				t.Errorf("Σ leg settled = %d > total %d", legSettled, res.Stats.SettledVertices)
			}
		})
	}
}

// TestDestinationQuerySpan checks the destination explain: every
// destination query carries a destleg span (the table build is charged to
// it even when no exact leg is priced), and the search and leg spans
// report the destination prunes Stats counts.
func TestDestinationQuerySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	f := taxonomy.Generated(3, 2, 3)
	var pruned int64
	for trial := 0; trial < 10; trial++ {
		d := dyadicDataset(rng, f, 20, 16, false, 0)
		cats := pickCats(rng, f, 3)
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		start, dest := graph.VertexID(rng.Intn(20)), graph.VertexID(rng.Intn(20))
		opts := DefaultOptions()
		tr := trace.New("route")
		opts.Span = tr.Root()
		res, err := NewSearcher(d, f.WuPalmer, opts).QueryWithDestination(start, seq, dest)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		search := findChild(tr.Root(), "search")
		ds := findChild(search, "destleg")
		if ds == nil {
			t.Fatalf("trial %d: no destleg span", trial)
		}
		if ds.Duration() != res.Stats.DestLegTime || res.Stats.DestLegTime <= 0 {
			t.Errorf("trial %d: destleg span %v, DestLegTime %v; want equal and positive",
				trial, ds.Duration(), res.Stats.DestLegTime)
		}
		want := strconv.FormatInt(res.Stats.PrunedByDest, 10)
		if got := attrMap(search)["pruned_dest"]; got != want {
			t.Errorf("trial %d: search pruned_dest = %q, want %s", trial, got, want)
		}
		var legSum int64
		for i := range cats {
			n, _ := strconv.ParseInt(attrMap(findChild(search, "leg["+strconv.Itoa(i)+"]"))["pruned_dest"], 10, 64)
			legSum += n
		}
		if legSum != res.Stats.PrunedByDest {
			t.Errorf("trial %d: Σ leg pruned_dest = %d, want %d", trial, legSum, res.Stats.PrunedByDest)
		}
		pruned += res.Stats.PrunedByDest
	}
	if pruned == 0 {
		t.Fatal("no destination prune fired; the span checks are vacuous")
	}
}

func TestQueryWithoutSpanIsUntraced(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	if _, err := s.QueryCategories(vq, cats...); err != nil {
		t.Fatal(err)
	}
	if s.span != nil || s.legs != nil {
		t.Fatal("untraced query left span state armed")
	}
}

func TestCancelledQueryRecordsInterruptedSpan(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Context = ctx
	tr := trace.New("route")
	opts.Span = tr.Root()
	s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	if _, err := s.QueryCategories(vq, cats...); err == nil {
		t.Fatal("pre-cancelled query should fail")
	}
	tr.Finish()
	// A pre-cancelled context trips initCancel before the span arms; no
	// partial tree is recorded. Cancel mid-run instead via the fault
	// seam, which fires inside the first modified-Dijkstra run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	restore := faults.Set(faults.MDijkstraRun, func(int64) { cancel2() })
	defer restore()
	opts.Context = ctx2
	tr2 := trace.New("route")
	opts.Span = tr2.Root()
	s2 := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	_, err := s2.QueryCategories(vq, cats...)
	tr2.Finish()
	if err == nil {
		t.Fatal("mid-run cancellation did not surface")
	}
	kids := tr2.Root().Children()
	if len(kids) != 1 {
		t.Fatalf("children = %d, want 1", len(kids))
	}
	if _, ok := attrMap(kids[0])["interrupted"]; !ok {
		t.Fatal("interrupted query span lacks the interrupted attr")
	}
}

func TestTracedQueryAnswersIdentical(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	plain := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	want, err := plain.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	tr := trace.New("route")
	opts.Span = tr.Root()
	traced := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	got, err := traced.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routes) != len(want.Routes) {
		t.Fatalf("traced skyline size %d != %d", len(got.Routes), len(want.Routes))
	}
	for i := range got.Routes {
		if got.Routes[i].Length() != want.Routes[i].Length() ||
			got.Routes[i].Semantic() != want.Routes[i].Semantic() {
			t.Fatalf("route %d differs traced vs untraced", i)
		}
	}
	if got.Stats.RoutesPopped != want.Stats.RoutesPopped ||
		got.Stats.MDijkstraRuns != want.Stats.MDijkstraRuns {
		t.Fatalf("traced work differs: %+v vs %+v", got.Stats, want.Stats)
	}
}
