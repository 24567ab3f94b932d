package core

import (
	"fmt"
	"sort"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// QueryUnordered answers the "skyline trip planning query" extension (§6):
// the route must satisfy every requirement of seq exactly once, in any
// order. It runs the one search loop with the unordered expander
// (unorderedNext): a PoI found around a route's end may serve any position
// the route has not yet filled (its queue item's mask), and filled
// positions drop out of the search, as the paper sketches. The Lemma 5.3
// threshold, the priority queue arrangement, NNinit seeding, on-the-fly
// caching and the category index's next-hop prune all apply; the §5.3.3
// hop bounds, which join consecutive positions, do not.
func (s *Searcher) QueryUnordered(start graph.VertexID, seq route.Sequence) (*Result, error) {
	if len(seq) > 30 {
		return nil, fmt.Errorf("core: unordered queries support at most 30 positions, got %d", len(seq))
	}
	return s.search(start, seq, graph.NoVertex, true, false)
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

// unorderedEntry is one finished sweep: every (PoI, position) match with
// dist < radius, in ascending distance order (the sweep's settle order).
type unorderedEntry struct {
	radius float64
	cands  []candidate
}

// within returns the entry's candidates closer than radius.
func (e *unorderedEntry) within(radius float64) []candidate {
	n := sort.Search(len(e.cands), func(i int) bool { return e.cands[i].dist >= radius })
	return e.cands[:n]
}

// bytes is the entry's share of Stats.PeakCacheBytes.
func (e *unorderedEntry) bytes() int64 { return int64(len(e.cands)) * 40 }

// unorderedNext is the unordered expander: every (PoI, position) match
// within the route's Lemma 5.3 radius threshold − l(r) of from, for all
// positions, each carrying its position's mask bit; expand skips the
// positions the route has already filled. A PoI at distance ≥ radius
// cannot extend r into a surviving route: extension only raises the
// semantic score and the rating penalty, and the threshold never
// increases as either gets worse, so its route fails the expand-time
// check too, up to float rounding (see ARCHITECTURE.md, "Unordered
// sweep").
//
// With Caching on, the sweep is served from the entry of the same (from,
// origin, depart) key when that entry was explored to at least the
// requested radius. Otherwise the sweep runs at the requested radius and
// replaces the entry, so a later, larger request re-runs it.
func (s *Searcher) unorderedNext(it item, from graph.VertexID) []candidate {
	r := it.r
	radius := s.threshold(it) - r.Length()
	if radius <= 0 {
		return nil
	}
	origin := r.Size() == 0
	key := unorderedKey{from: from, origin: origin, depart: s.expandDepart(r)}
	s.stats.MDijkstraRequests++
	old := s.ucache[key]
	if old != nil && old.radius >= radius {
		s.stats.CacheHits++
		if lg := s.legHook(r.Size()); lg != nil {
			lg.cacheHits++
		}
		return old.within(radius)
	}
	s.stats.MDijkstraRuns++
	began := time.Now()
	settled := 0
	defer func() { s.chargeRun(r.Size(), settled, time.Since(began), key.depart) }()
	faults.Fire(faults.MDijkstraRun)
	if s.cc.checkpoint() {
		return nil
	}
	g := s.d.Graph
	k := len(s.seq)
	e := &unorderedEntry{radius: radius}
	settled = s.ws.Run(dijkstra.Options{
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
					e.cands = append(e.cands, candidate{v: v, bit: 1 << uint(pos), dist: d, sim: h, blockV: graph.NoVertex})
				}
			}
			return dijkstra.Continue
		},
	})
	s.noteFirstRadius(s.ws.LastMaxSettledDist())
	if s.ucache != nil && !s.cc.cancelled() {
		// A halted sweep stops at an arbitrary frontier, not at its
		// radius; dropping it keeps later hits complete.
		s.ucache[key] = e
		delta := e.bytes()
		if old != nil {
			delta -= old.bytes()
		}
		s.chargeCacheBytes(delta)
	}
	return e.cands
}
