package core

import (
	"math"
	"time"

	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/pq"
	"skysr/internal/route"
)

// candidate is one PoI found by the modified Dijkstra: its network distance
// from the search origin, its similarity to the position's requirement,
// and the strongest PoI on the shortest path to it (for the route-aware
// part of the Lemma 5.5 filter).
type candidate struct {
	v        graph.VertexID
	dist     float64
	sim      float64
	blockSim float64        // max similarity of intermediate PoIs on the path
	blockV   graph.VertexID // the PoI attaining blockSim, NoVertex if none
}

// cacheKey identifies one modified-Dijkstra origin within a query: the
// origin vertex, the position whose requirement is searched, and — on
// time-dependent datasets — the absolute departure time at the origin.
// The cache is per-query ("on the fly"), so the position index fully
// determines the requirement; static queries always use depart 0, so
// their keys (and hit pattern) are byte-identical to the classic code.
type cacheKey struct {
	from   graph.VertexID
	pos    int
	depart float64
}

// cacheEntry stores the candidates found around an origin, complete up to
// the exhausted radius: every matching PoI with dist < radius is present.
type cacheEntry struct {
	radius   float64
	complete bool // whole reachable component explored
	// destCut marks a run whose frontier the destination bound cut at
	// budget destLim (runMDijkstra): its candidates are complete only for
	// this query's destination and budgets up to destLim, so it is never
	// published to the SharedCache, whose key carries no destination.
	destCut bool
	destLim float64
	items   []candidate
}

// covers reports that the entry holds every candidate a request with the
// given radius and destination budget needs.
func (e *cacheEntry) covers(radius, destLim float64) bool {
	return e.complete || e.radius >= radius && (!e.destCut || e.destLim >= destLim)
}

// nextPoIs returns the PoIs that semantically match position r.Size(),
// reachable from `from` within the route's Lemma 5.3 radius, serving from
// the on-the-fly cache when possible (§5.3.4). On time-dependent datasets
// distances are travel times for a departure at the route's arrival time
// at `from`.
func (s *Searcher) nextPoIs(r *route.Route, from graph.VertexID) []candidate {
	pos := r.Size()
	depart := s.expandDepart(r)
	// Allowed search radius: Algorithm 2 line 8 stops when
	// l(Rt) = l(Rd) + dist ≥ l̄(Rd).
	threshold := s.sky.Threshold(r.Semantic())
	radius := threshold - r.Length()
	// The destination cut bounds the same remaining path as the suffix
	// below, so it takes the un-tightened radius: adding the two bounds
	// would count the route's remaining legs twice.
	destLim := math.Inf(1)
	if s.destDist != nil {
		destLim = s.destLimit(threshold, r.Length())
	}
	if s.bounds != nil && s.bounds.fromIndex {
		// Tighten the radius by the §5.3.3 suffix: a candidate found here
		// sits at position pos, and completing the route from it costs at
		// least lsSuffix[pos] more, so any candidate beyond
		// threshold − lsSuffix[pos] yields a route the semantic rule would
		// prune at pop (the threshold only shrinks in the meantime, and
		// extension only raises the semantic score) — don't explore it.
		// Final-position candidates (lsSuffix = 0) are unaffected, so
		// skyline entries are byte-identical with or without the cut.
		if rem := s.bounds.lsSuffix[pos]; rem > 0 {
			if math.IsInf(rem, 1) {
				return nil
			}
			radius -= rem
		}
	}
	if radius <= 0 {
		return nil
	}
	s.stats.MDijkstraRequests++

	if s.cache != nil {
		key := cacheKey{from: from, pos: pos, depart: depart}
		if e, ok := s.cache[key]; ok && e.covers(radius, destLim) {
			s.stats.CacheHits++
			if lg := s.legHook(pos); lg != nil {
				lg.cacheHits++
			}
			return e.items
		}
		e := s.sharedOrRun(from, pos, radius, destLim, depart)
		if !s.cc.cancelled() {
			// A truncated run's items stop at an arbitrary frontier; caching
			// them could serve an incomplete candidate set to a later query
			// on this searcher.
			s.cache[key] = e
			s.accountCacheBytes()
		}
		return e.items
	}
	return s.sharedOrRun(from, pos, radius, destLim, depart).items
}

// sharedOrRun serves a modified-Dijkstra request from the cross-query
// SharedCache when the position is shareable, running (and publishing) the
// search otherwise. A position is shareable when it is a plain Category
// matcher, the Lemma 5.5 path filter is active, and the dataset is not
// time-dependent: the cached candidates — including their blocking-PoI
// annotations — then depend only on the immutable dataset and the
// similarity function the cache is dedicated to. Time-dependent runs
// bypass the shared cache entirely (their distances are functions of the
// departure time, which the shared key does not carry). Runs the
// destination bound cut are not published either (cacheEntry.destCut),
// but destination queries still read shared entries: an uncut run's
// candidates are a superset of a cut one's.
func (s *Searcher) sharedOrRun(from graph.VertexID, pos int, radius, destLim, depart float64) *cacheEntry {
	shared := s.opts.Shared
	if shared == nil || s.opts.DisablePathFilter || s.td {
		return s.runMDijkstra(from, pos, radius, destLim, depart)
	}
	cat, ok := s.seq[pos].(*route.Category)
	if !ok {
		return s.runMDijkstra(from, pos, radius, destLim, depart)
	}
	key := sharedKey{from: from, cat: cat.ID(), origin: pos == 0}
	if e := shared.lookup(key, radius, s.opts.Epoch); e != nil {
		s.stats.SharedCacheHits++
		if lg := s.legHook(pos); lg != nil {
			lg.sharedHits++
		}
		return e
	}
	e := s.runMDijkstra(from, pos, radius, destLim, depart)
	if !s.cc.cancelled() && !e.destCut {
		// Never publish a truncated or destination-cut run: a poisoned
		// entry would corrupt every query sharing the cache, not just
		// this one.
		shared.store(key, e, s.opts.Epoch)
	}
	return e
}

// mdWorkspace holds the epoch-stamped per-vertex state of the modified
// Dijkstra, reused across the hundreds of runs a query performs so each
// run allocates nothing but its result slice. Resetting is O(1) via the
// shared epochScratch generation counter.
type mdWorkspace struct {
	dist     []float64
	blockSim []float64
	blockV   []graph.VertexID
	stamp    []uint32
	done     []uint32
	gen      epochScratch
	heap     *pq.Heap[mdItem]
}

type mdItem struct {
	v graph.VertexID
	d float64
}

func newMDWorkspace(n int) *mdWorkspace {
	w := &mdWorkspace{
		dist:     make([]float64, n),
		blockSim: make([]float64, n),
		blockV:   make([]graph.VertexID, n),
		stamp:    make([]uint32, n),
		done:     make([]uint32, n),
		heap: pq.NewHeap[mdItem](func(a, b mdItem) bool {
			if a.d != b.d {
				return a.d < b.d
			}
			return a.v < b.v
		}),
	}
	w.gen = newEpochScratch(w.stamp, w.done)
	return w
}

// begin resets the workspace for one run and returns the generation stamp.
func (w *mdWorkspace) begin() uint32 {
	w.heap.Reset()
	return w.gen.begin()
}

// runMDijkstra is Algorithm 2: a Dijkstra search from `from` that collects
// every PoI matching position pos within the radius, does not expand
// through perfectly matching PoIs, and records for each candidate the
// strongest intermediate PoI on its path (Lemma 5.5). On time-dependent
// datasets arcs are priced at their arrival time (depart + d); the radius
// and goal-row cuts below compare those travel times against lower-bound
// distances, which keeps them admissible (see graph/metric.go).
//
// On destination queries the frontier is also cut by the destination
// table: destLim is the remaining distance at which a route through the
// expanding route's end is provably outside the answer (destLimit), so u
// is skipped once d + destDist[u] ≥ destLim. A candidate x the cut could
// lose yields routes of length ≥ L + D(from,x) + destDist[x], which the
// destination prune drops anyway. Every other candidate keeps all its
// shortest paths and its Lemma 5.5 annotation: for u on such a path,
// destDist[u] ≤ D(u,x) + destDist[x] (triangle inequality), so
// d_u + destDist[u] ≤ D(from,x) + destDist[x] < destLim. Under FIFO the
// same holds with travel times, whose legs are never shorter than the
// lower-bound table. destLim is ignored when the query has no table.
//
// The origin itself is a usable candidate only when pos == 0: there `from`
// is the query start vertex, which may be a matching PoI serving position
// 1 at distance zero. For pos ≥ 1 the origin is the expanding route's own
// last PoI, which Definition 3.4(iii) forbids reusing — and for the same
// reason it can neither block other candidates (Lemma 5.5's substitution
// would be infeasible) nor stop the traversal. This split keeps cache
// entries consistent: every route expanding through a (from, pos) key has
// the same relationship to the origin.
func (s *Searcher) runMDijkstra(from graph.VertexID, pos int, radius, destLim, depart float64) *cacheEntry {
	s.stats.MDijkstraRuns++
	mdBegan := time.Now()
	settled := 0
	defer func() {
		d := time.Since(mdBegan)
		s.stats.MDijkstraTime += d
		if lg := s.legHook(pos); lg != nil {
			lg.runs++
			lg.settled += int64(settled)
			lg.time += d
			if !lg.hasDepart && s.td {
				lg.firstDepart = depart
				lg.hasDepart = true
			}
		}
	}()
	// The fault hook fires before the checkpoint so a hook that cancels a
	// context is observed within this very run, keeping cancellation
	// deterministic on graphs far smaller than the check stride.
	faults.Fire(faults.MDijkstraRun)
	if s.cc.checkpoint() {
		return &cacheEntry{}
	}
	originUsable := pos == 0
	matcher := s.seq[pos]
	g := s.d.Graph

	// Goal-directed frontier pruning from the category index: goalRow[u]
	// lower-bounds u's distance to the nearest PoI matching this position
	// (its tree row), so once d + goalRow[u] ≥ radius nothing reachable
	// through u can be an in-radius candidate and u's expansion is skipped.
	// The candidate set is unchanged: every in-radius candidate x satisfies
	// D(from,x) ≥ d_u + goalRow[u] for each u on any path to it, so none of
	// its shortest paths — nor its Lemma 5.5 annotation chain — can pass
	// through a skipped vertex. A matching vertex itself has goalRow = 0
	// and is never skipped.
	var goalRow index.Row
	if pos < len(s.idxRows.sem) {
		goalRow = s.idxRows.sem[pos]
	}
	destDist := s.destDist

	if s.md == nil {
		s.md = newMDWorkspace(g.NumVertices())
	}
	w := s.md
	epoch := w.begin()
	h := w.heap

	entry := &cacheEntry{}
	w.dist[from] = 0
	w.blockSim[from] = 0
	w.blockV[from] = graph.NoVertex
	w.stamp[from] = epoch
	h.Push(mdItem{v: from, d: 0})

	// cut records whether the radius bound ever suppressed a relaxation;
	// if it never fired, the whole reachable component was explored and
	// the cache entry is complete at any radius.
	cut := false
	maxSettled := 0.0
	for h.Len() > 0 {
		if s.cc.tick() {
			break
		}
		top := h.Pop()
		u, d := top.v, top.d
		if w.done[u] == epoch || d > w.dist[u] {
			continue // stale duplicate entry
		}
		w.done[u] = epoch
		settled++
		maxSettled = d
		if goalRow != nil {
			if lb := float64(goalRow[u]); d+lb >= radius {
				if !math.IsInf(lb, 1) {
					// A larger radius could reach candidates through u, so
					// the cache entry is only complete up to this radius; a
					// +Inf bound proves u leads to no candidate ever.
					cut = true
				}
				continue
			}
		}
		if destDist != nil && d+destDist[u] >= destLim {
			cut = true
			entry.destCut = true
			continue
		}
		uBlockSim, uBlockV := w.blockSim[u], w.blockV[u]

		sim := 0.0
		perfect := false
		if (u != from || originUsable) && g.IsPoI(u) {
			cats := g.Categories(u)
			sim = matcher.Sim(cats)
			perfect = matcher.Perfect(cats)
			if sim > 0 {
				entry.items = append(entry.items, candidate{
					v: u, dist: d, sim: sim,
					blockSim: uBlockSim, blockV: uBlockV,
				})
			}
		}
		// Lemma 5.5 property (ii): no traversal through a perfect match.
		if perfect && !s.opts.DisablePathFilter {
			continue
		}
		// Downstream vertices see u as an intermediate PoI when it
		// matches at all.
		nextSim, nextV := uBlockSim, uBlockV
		if sim > nextSim {
			nextSim, nextV = sim, u
		}
		ts, ws := g.Neighbors(u)
		var base int32
		if s.td {
			base = g.ArcBase(u)
		}
		for i, t := range ts {
			if w.done[t] == epoch {
				continue
			}
			cost := ws[i]
			if s.td {
				// Concrete call on the hot path; TimeDependentMetric.Cost
				// is exactly this method.
				cost = g.CostAt(base+int32(i), depart+d)
			}
			nd := d + cost
			if nd >= radius {
				cut = true
				continue
			}
			if goalRow != nil {
				// Same goal bound at relax time: skip queueing t when no
				// candidate can lie within the radius through it. Any later
				// path to t is longer still, so t can never expand anyway.
				if lb := float64(goalRow[t]); nd+lb >= radius {
					if !math.IsInf(lb, 1) {
						cut = true
					}
					continue
				}
			}
			if destDist != nil && nd+destDist[t] >= destLim {
				cut = true
				entry.destCut = true
				continue
			}
			if w.stamp[t] != epoch || nd < w.dist[t] {
				w.dist[t] = nd
				w.blockSim[t] = nextSim
				w.blockV[t] = nextV
				w.stamp[t] = epoch
				h.Push(mdItem{v: t, d: nd})
			}
		}
	}
	if s.cc.cancelled() {
		// Truncated run: radius 0 and complete false make the entry
		// unservable by both cache lookups (radius must be positive), so an
		// aborted search can never masquerade as a finished one.
		entry.complete = false
		entry.radius = 0
	} else if cut {
		entry.radius = radius
		entry.destLim = destLim
	} else {
		entry.complete = true
		entry.radius = math.Inf(1)
	}
	s.noteFirstRadius(maxSettled)
	s.chargeSettleStats(settled)
	return entry
}

// noteFirstRadius records the explored radius of the first modified
// Dijkstra — the Table 7 "weight sum" search-space metric.
func (s *Searcher) noteFirstRadius(r float64) {
	if s.stats.MDijkstraRuns == 1 {
		s.stats.FirstMDijkstraRadius = r
	}
}

// chargeSettleStats adds the run's settled count to the Table 8 metric.
// The shared workspace tracks its own searches; modified-Dijkstra runs use
// sparse state, so they are charged here.
func (s *Searcher) chargeSettleStats(settled int) {
	s.stats.SettledVertices += int64(settled)
}

func (s *Searcher) accountCacheBytes() {
	var b int64
	for _, e := range s.cache {
		b += 48 + int64(len(e.items))*40
	}
	if b > s.stats.PeakCacheBytes {
		s.stats.PeakCacheBytes = b
	}
}
