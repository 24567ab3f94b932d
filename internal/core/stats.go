package core

import "time"

// Stats instruments one Query run with every counter the paper's
// evaluation reports (§7.2–§7.4). Counters are reset at the start of each
// Query.
type Stats struct {
	// MDijkstraRuns counts actual executions of the modified Dijkstra
	// algorithm (cache misses + uncached runs) — the Figure 5 metric.
	MDijkstraRuns int64
	// MDijkstraRequests counts requested expansions: runs + cache hits.
	MDijkstraRequests int64
	// CacheHits counts expansions served from the on-the-fly cache.
	CacheHits int64
	// SharedCacheHits counts expansions served from the cross-query
	// SharedCache (Options.Shared); zero when no cache is attached.
	SharedCacheHits int64

	// MDijkstraTime totals wall time spent inside runMDijkstra across the
	// query (the m-Dijkstra stage of the per-search stage breakdown; runs
	// triggered from NNinit also count toward InitTime, which measures the
	// whole §5.3.1 phase).
	MDijkstraTime time.Duration

	// SettledVertices totals graph vertices settled across all searches —
	// the Table 8 "number of vertices visited" metric.
	SettledVertices int64

	// IndexCovered reports that every position's category-index rows were
	// resident or buildable for this query (see indexRows.covered): the
	// §5.3.3 bounds came from index lookups, not per-query Dijkstras.
	// Always false when no index profile is active.
	IndexCovered bool

	// FirstMDijkstraRadius is the explored radius of the first modified
	// Dijkstra execution — the Table 7 "weight sum" search-space metric.
	FirstMDijkstraRadius float64

	// Initial search (NNinit, Table 7).
	InitTime     time.Duration
	InitRoutes   int     // sequenced routes seeded by NNinit
	InitRatio    float64 // l(best-semantic seed) / l(s=0 seed); 0 if n/a
	InitPerfectL float64 // length of the s=0 seed route (= l̄(∅)), +Inf if none

	// Lower bounds (Figure 4).
	BoundsTime      time.Duration
	SemanticBound   float64 // Σ ls[i] over all hops
	PerfectBound    float64 // Σ lp[i] over all hops
	PrunedByBounds  int64   // routes dropped by §5.3.3 pruning
	PrunedThreshold int64   // routes dropped by the Eq. 3 threshold at pop
	PrunedByIndex   int64   // routes dropped by category-index rows (pruneByIndex)
	PrunedByDest    int64   // routes dropped by the destination-distance bound (pruneByDest)

	// Destination leg (§6 "SkySR with destination"): DestLegRuns counts
	// exact time-dependent leg pricings (destLeg); DestLegTime
	// covers them plus the reverse table build (computeDestDistances).
	DestLegRuns int64
	DestLegTime time.Duration

	// Queue and memory accounting (Table 6).
	RoutesEnqueued int64
	RoutesPopped   int64
	PeakQueueLen   int
	PeakCacheBytes int64

	// Top-k enumeration (Options.TopK).
	TopK          int   // effective k of the run (1 = classic skyline)
	TopKExtraPops int64 // pops the classic best-length threshold would have pruned
	TopKEvictions int64 // accepted routes later pushed out of the k-band
	TopKLevels    int   // distinct similarity levels in the final band (0 for k = 1)

	// Totals.
	QueryTime time.Duration
	Results   int // |S|, the Figure 6 metric
}

// PeakMemoryBytes estimates the query-time resident memory beyond the
// dataset itself: queue routes, cache, and workspace arrays. The Table 6
// harness adds the dataset footprint separately.
func (s Stats) PeakMemoryBytes(numVertices int) int64 {
	const routeBytes = 80 // Route node + heap slot
	return int64(s.PeakQueueLen)*routeBytes + s.PeakCacheBytes + int64(numVertices)*24
}
