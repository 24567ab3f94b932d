package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/pq"
	"skysr/internal/route"
)

// QueryUnordered answers the "skyline trip planning query" extension (§6):
// the route must satisfy every requirement of seq exactly once, in any
// order. Queue entries carry the set of satisfied positions; when a PoI is
// found it may serve any still-unsatisfied position it semantically
// matches, and positions already covered are deleted from the search, as
// the paper sketches.
//
// Each expansion explores the expanding route's Lemma 5.3 radius only
// (unorderedNext), like the ordered search's modified Dijkstra. The
// ordered-only optimizations (Lemma 5.5 path filtering, the §5.3.3 hop
// bounds, the category index) do not transfer to the unordered setting
// and are disabled here; the branch-and-bound threshold, the priority
// queue arrangement, NNinit seeding and on-the-fly caching all apply.
func (s *Searcher) QueryUnordered(start graph.VertexID, seq route.Sequence) (*Result, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("core: empty sequence")
	}
	if len(seq) > 30 {
		return nil, fmt.Errorf("core: unordered queries support at most 30 positions, got %d", len(seq))
	}
	if start < 0 || int(start) >= s.d.Graph.NumVertices() {
		return nil, fmt.Errorf("core: invalid start vertex %d", start)
	}
	if err := s.initMetric(); err != nil {
		return nil, err
	}
	if err := s.initCancel(); err != nil {
		return nil, err
	}
	began := time.Now()
	k := len(seq)
	full := uint32(1)<<k - 1
	s.seq = seq
	s.scorer = route.NewScorer(s.opts.Aggregation, k)
	// The unordered loop applies no Lemma 5.5 filtering, so top-k needs
	// no special handling here beyond the band itself: the threshold
	// checks below cut against the k-th-best length automatically.
	s.sky = s.newResultSet()
	s.stats = Stats{InitPerfectL: math.Inf(1), TopK: s.opts.effectiveTopK()}
	s.cacheBytes = 0
	s.bounds = nil
	s.destDist = nil
	s.idxRows = indexRows{} // the unordered loop takes no index shortcuts
	s.initTrace(false)
	s.ws.ResetStats()

	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.unorderedInit(start, full)
	}

	type entry struct {
		r    *route.Route
		mask uint32
	}
	less := func(a, b entry) bool {
		if s.opts.ProposedQueue {
			if a.r.Size() != b.r.Size() {
				return a.r.Size() > b.r.Size()
			}
			if a.r.Semantic() != b.r.Semantic() {
				return a.r.Semantic() < b.r.Semantic()
			}
		}
		if a.r.Length() != b.r.Length() {
			return a.r.Length() < b.r.Length()
		}
		return a.r.Last() < b.r.Last()
	}
	qb := pq.NewHeap(less)

	var cache map[unorderedKey]*unorderedEntry
	if s.opts.Caching {
		cache = make(map[unorderedKey]*unorderedEntry)
	}
	expand := func(e entry, from graph.VertexID) {
		for _, c := range s.unorderedNext(e.r, from, cache) {
			if e.mask&(1<<uint(c.pos)) != 0 || e.r.Contains(c.v) {
				continue
			}
			rt := e.r.Extend(s.scorer, c.v, c.dist, c.sim)
			if rt.Length() >= s.sky.Threshold(rt.Semantic()) {
				continue
			}
			nm := e.mask | 1<<uint(c.pos)
			if nm == full {
				s.sky.Update(rt)
			} else {
				qb.Push(entry{r: rt, mask: nm})
				s.stats.RoutesEnqueued++
				if qb.Len() > s.stats.PeakQueueLen {
					s.stats.PeakQueueLen = qb.Len()
				}
			}
		}
	}

	if !s.cc.cancelled() {
		expand(entry{r: route.Empty(s.scorer)}, start)
	}
	for qb.Len() > 0 {
		faults.Fire(faults.RoutePop)
		if s.cc.tick() {
			break
		}
		e := qb.Pop()
		s.stats.RoutesPopped++
		if e.r.Length() >= s.sky.Threshold(e.r.Semantic()) {
			s.stats.PrunedThreshold++
			continue
		}
		s.noteTopKPop(e.r)
		expand(e, e.r.Last())
	}

	s.stats.QueryTime = time.Since(began)
	s.stats.SettledVertices += s.ws.SettledCount()
	s.stats.Results = s.sky.Len()
	s.harvestTopKStats()
	s.finishTrace(s.cc.err)
	if err := s.cc.err; err != nil {
		return &Result{Stats: s.stats}, err
	}
	return &Result{Routes: s.sky.Routes(), Stats: s.stats}, nil
}

// unorderedKey identifies one unordered sweep within a query: the origin
// vertex, whether it is the query start (the only origin that may itself
// be a candidate), and — on time-dependent datasets — the departure time
// at the origin (always 0 on static datasets). The satisfied-position mask
// is not part of the key: a sweep records the matches of every position,
// and each reader skips the positions its route has already covered.
type unorderedKey struct {
	from   graph.VertexID
	origin bool
	depart float64
}

type unorderedCand struct {
	v    graph.VertexID
	dist float64
	sim  float64
	pos  int
}

// unorderedEntry is one finished sweep: every (PoI, position) match with
// dist < radius, in ascending distance order (the sweep's settle order).
type unorderedEntry struct {
	radius float64
	cands  []unorderedCand
}

// within returns the entry's candidates closer than radius.
func (e *unorderedEntry) within(radius float64) []unorderedCand {
	n := sort.Search(len(e.cands), func(i int) bool { return e.cands[i].dist >= radius })
	return e.cands[:n]
}

// bytes is the entry's share of Stats.PeakCacheBytes.
func (e *unorderedEntry) bytes() int64 { return int64(len(e.cands)) * 32 }

// unorderedNext returns every (PoI, position) match within the route's
// Lemma 5.3 radius threshold − l(r) of from, for all positions; the caller
// skips the positions r has already satisfied. A PoI at distance ≥ radius
// cannot extend r into a surviving route: extension only raises the
// semantic score, and the threshold never increases as the semantic score
// gets worse, so its route fails the expand-time check too, up to float
// rounding (see ARCHITECTURE.md, "Unordered sweep").
//
// With a non-nil cache the sweep is served from the entry of the same
// (from, origin, depart) key when that entry was explored to at least the
// requested radius. Otherwise the sweep runs at the requested radius and
// replaces the entry, so a later, larger request re-runs it.
func (s *Searcher) unorderedNext(r *route.Route, from graph.VertexID, cache map[unorderedKey]*unorderedEntry) []unorderedCand {
	radius := s.sky.Threshold(r.Semantic()) - r.Length()
	if radius <= 0 {
		return nil
	}
	origin := r.Size() == 0
	key := unorderedKey{from: from, origin: origin, depart: s.expandDepart(r)}
	s.stats.MDijkstraRequests++
	old := cache[key]
	if old != nil && old.radius >= radius {
		s.stats.CacheHits++
		return old.within(radius)
	}
	s.stats.MDijkstraRuns++
	faults.Fire(faults.MDijkstraRun)
	if s.cc.checkpoint() {
		return nil
	}
	g := s.d.Graph
	k := len(s.seq)
	e := &unorderedEntry{radius: radius}
	began := time.Now()
	s.ws.Run(dijkstra.Options{
		Sources:  []graph.VertexID{from},
		Bound:    radius,
		Metric:   s.searchMetric(),
		DepartAt: key.depart,
		Halt:     s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			if !g.IsPoI(v) || (v == from && !origin) {
				return dijkstra.Continue
			}
			cats := g.Categories(v)
			for pos := 0; pos < k; pos++ {
				if h := s.seq[pos].Sim(cats); h > 0 {
					e.cands = append(e.cands, unorderedCand{v: v, dist: d, sim: h, pos: pos})
				}
			}
			return dijkstra.Continue
		},
	})
	s.stats.MDijkstraTime += time.Since(began)
	s.noteFirstRadius(s.ws.LastMaxSettledDist())
	if cache != nil && !s.cc.cancelled() {
		// A halted sweep stops at an arbitrary frontier, not at its
		// radius; dropping it keeps later hits complete.
		cache[key] = e
		delta := e.bytes()
		if old != nil {
			delta -= old.bytes()
		}
		s.chargeCacheBytes(delta)
	}
	return e.cands
}

// unorderedInit greedily chains nearest perfect matches over the remaining
// positions to seed the upper bound, mirroring NNinit.
func (s *Searcher) unorderedInit(start graph.VertexID, full uint32) {
	began := time.Now()
	g := s.d.Graph
	r := route.Empty(s.scorer)
	from := start
	mask := uint32(0)
	k := len(s.seq)
	for mask != full {
		found := graph.NoVertex
		foundPos := -1
		foundDist := 0.0
		if s.cc.checkpoint() {
			break
		}
		s.ws.Run(dijkstra.Options{
			Sources:  []graph.VertexID{from},
			Metric:   s.searchMetric(),
			DepartAt: s.expandDepart(r),
			Halt:     s.cc.halt(),
			OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
				if !g.IsPoI(v) || r.Contains(v) {
					return dijkstra.Continue
				}
				cats := g.Categories(v)
				for pos := 0; pos < k; pos++ {
					if mask&(1<<uint(pos)) != 0 {
						continue
					}
					if s.seq[pos].Perfect(cats) {
						found, foundPos, foundDist = v, pos, d
						return dijkstra.Stop
					}
				}
				return dijkstra.Continue
			},
		})
		if found == graph.NoVertex {
			break
		}
		r = r.Extend(s.scorer, found, foundDist, 1.0)
		mask |= 1 << uint(foundPos)
		from = found
	}
	if mask == full {
		s.sky.Update(r)
		s.stats.InitRoutes = 1
	}
	s.stats.InitTime = time.Since(began)
	s.stats.InitPerfectL = s.sky.ThresholdPerfect()
}
