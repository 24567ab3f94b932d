package core

import (
	"math"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// runNNinit is Algorithm 3: chain |Sq| nearest-neighbour searches for
// perfectly matching PoIs to build one sequenced route with semantic score
// 0, additionally seeding S with every semantically matching PoI settled
// during the last stage (Example 5.6). The routes it finds initialize the
// branch-and-bound upper bound; without them the first modified Dijkstra
// has no threshold and traverses the whole graph (Table 7).
//
// Each stage looks for the nearest PoI perfectly matching an open
// position of the chain (open), so an unordered query chains whichever
// remaining position is nearest. The seeds are ordinary complete routes
// of the query, scored with their ratings, so every result set accepts
// them as they are.
func (s *Searcher) runNNinit(start graph.VertexID) {
	began := time.Now()
	g := s.d.Graph
	k := len(s.seq)
	chain := item{r: route.Empty(s.scorer)}
	from := start

	found := 0
	var maxSemRoute *route.Route // seed with the largest semantic score

	update := func(cand item) {
		if s.hasDest() {
			var ok bool
			if cand.r, ok = s.completeToDest(cand); !ok {
				return
			}
		}
		found++
		if maxSemRoute == nil || cand.r.Semantic() > maxSemRoute.Semantic() ||
			(cand.r.Semantic() == maxSemRoute.Semantic() && cand.r.Length() < maxSemRoute.Length()) {
			maxSemRoute = cand.r
		}
		s.sky.Update(cand.r, s.rating(cand))
	}

	for chain.r.Size() < k {
		last := chain.r.Size() == k-1
		lo, hi := s.open(chain)
		// Index fast path: a +Inf row entry proves no matching PoI of a
		// position is reachable from the chain's current end; when that
		// holds for every open position the stage's search would sweep its
		// whole reachable component and find nothing — skip it. (Perfect
		// matches are a subset of the category's associated PoIs, which
		// are a subset of the tree's.)
		reachable := false
		for pos := lo; pos < hi && !reachable; pos++ {
			if chain.filled(pos) {
				continue
			}
			if last {
				reachable = !s.idxRows.noSemanticReachable(pos, from)
			} else {
				reachable = !s.idxRows.noPerfectReachable(pos, from)
			}
		}
		if !reachable {
			break
		}
		next := candidate{v: graph.NoVertex}
		if s.cc.checkpoint() {
			break
		}
		s.ws.Run(dijkstra.Options{
			Sources: []graph.VertexID{from},
			// Each stage of the chain departs when the chain arrives:
			// time-dependent datasets price it at that instant.
			Metric:   s.searchMetric(),
			DepartAt: s.expandDepart(chain.r),
			Halt:     s.cc.halt(),
			OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
				if !g.IsPoI(v) || chain.r.Contains(v) {
					return dijkstra.Continue
				}
				cats := g.Categories(v)
				for pos := lo; pos < hi; pos++ {
					if chain.filled(pos) {
						continue
					}
					matcher := s.seq[pos]
					c := candidate{v: v, dist: d, sim: 1, bit: 1 << uint(pos)}
					if last {
						// Every semantic match on the final stage yields a
						// candidate sequenced route (Algorithm 3 lines 9–11).
						if c.sim = matcher.Sim(cats); c.sim > 0 {
							update(s.extend(chain, c))
							if matcher.Perfect(cats) {
								return dijkstra.Stop
							}
						}
						continue
					}
					if matcher.Perfect(cats) {
						next = c
						return dijkstra.Stop
					}
				}
				return dijkstra.Continue
			},
		})
		if last || next.v == graph.NoVertex {
			// Done, or no reachable perfect match for an open position:
			// NNinit cannot complete; the thresholds stay at the seeds
			// found so far (none, for intermediate stages) and BSSR
			// proceeds exactly.
			break
		}
		chain = s.extend(chain, next)
		from = next.v
	}

	s.stats.InitTime = time.Since(began)
	s.stats.InitRoutes = found
	s.stats.InitPerfectL = s.sky.ThresholdPerfect()
	if maxSemRoute != nil && !math.IsInf(s.stats.InitPerfectL, 1) && maxSemRoute.Semantic() > 0 {
		s.stats.InitRatio = maxSemRoute.Length() / s.stats.InitPerfectL
	}
}
