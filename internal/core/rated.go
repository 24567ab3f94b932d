package core

import (
	"fmt"

	"skysr/internal/graph"
	"skysr/internal/route"
)

// QueryRated answers the §9 multi-attribute extension: routes
// Pareto-optimal in (length, semantic score, rating penalty), returned
// with their penalties in Result.Ratings. It runs the one search loop with
// the three-criteria skyline as its result set. A partial route's rating
// penalty is its possible minimum — remaining positions assumed
// top-rated — so it is monotone under extension and the branch-and-bound
// machinery generalizes: the Eq. 3 threshold becomes the minimum length
// over skyline members no worse in BOTH non-length criteria, and every
// §5.3.3 and index prune cuts against it (ARCHITECTURE.md, "One search
// loop", argues each rule in three dimensions).
//
// The Lemma 5.5 path filter does not carry over — a more similar
// intermediate PoI may have a worse rating, breaking the substitution
// argument — so the modified Dijkstra runs unfiltered here, which also
// keeps rated runs out of the SharedCache.
func (s *Searcher) QueryRated(start graph.VertexID, seq route.Sequence) (*Result, error) {
	if s.opts.TopK > 1 {
		return nil, fmt.Errorf("core: top-k enumeration does not extend to the three-criteria rated query")
	}
	return s.search(start, seq, graph.NoVertex, false, true)
}
