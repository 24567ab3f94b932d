package osr

import (
	"math"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// BruteForceSkySR enumerates every sequenced route (every combination of
// semantically matching, pairwise-distinct PoIs) and returns the exact
// skyline. It is exponential in the sequence length and exists purely as
// the test oracle that cross-validates BSSR, the naive baseline and the
// extension variants on small instances.
func BruteForceSkySR(d *dataset.Dataset, start graph.VertexID, seq route.Sequence, agg route.Aggregation) *route.Skyline {
	return BruteForceSkySRWithDestination(d, start, seq, agg, graph.NoVertex)
}

// BruteForceSkySRWithDestination is BruteForceSkySR for the §6 destination
// variant: each complete route's length additionally counts the network
// distance from its last PoI to dest. Pass graph.NoVertex for no
// destination.
func BruteForceSkySRWithDestination(d *dataset.Dataset, start graph.VertexID, seq route.Sequence, agg route.Aggregation, dest graph.VertexID) *route.Skyline {
	k := len(seq)
	scorer := route.NewScorer(agg, k)
	sky := route.NewSkyline()
	if k == 0 {
		return sky
	}

	// Candidates per position: every PoI with positive similarity.
	cands := make([][]graph.VertexID, k)
	sims := make([][]float64, k)
	for i, m := range seq {
		for _, p := range d.Graph.PoIVertices() {
			if h := m.Sim(d.Graph.Categories(p)); h > 0 {
				cands[i] = append(cands[i], p)
				sims[i] = append(sims[i], h)
			}
		}
	}

	// Pairwise distances, computed lazily one source at a time.
	ws := dijkstra.New(d.Graph)
	distFrom := map[graph.VertexID]map[graph.VertexID]float64{}
	dist := func(u, v graph.VertexID) float64 {
		row, ok := distFrom[u]
		if !ok {
			row = make(map[graph.VertexID]float64)
			ws.Run(dijkstra.Options{Sources: []graph.VertexID{u}})
			for x := graph.VertexID(0); int(x) < d.Graph.NumVertices(); x++ {
				if dd, reached := ws.Dist(x); reached {
					row[x] = dd
				}
			}
			distFrom[u] = row
		}
		if dd, ok := row[v]; ok {
			return dd
		}
		return math.Inf(1)
	}

	var rec func(r *route.Route, from graph.VertexID)
	rec = func(r *route.Route, from graph.VertexID) {
		pos := r.Size()
		if pos == k {
			if dest != graph.NoVertex {
				leg := dist(r.Last(), dest)
				if math.IsInf(leg, 1) {
					return
				}
				r = r.AddLength(leg)
			}
			sky.Update(r, 0)
			return
		}
		for i, p := range cands[pos] {
			if r.Contains(p) {
				continue // Definition 3.4(iii)
			}
			d := dist(from, p)
			if math.IsInf(d, 1) {
				continue
			}
			rec(r.Extend(scorer, p, d, sims[pos][i]), p)
		}
	}
	rec(route.Empty(scorer), start)
	return sky
}

// BruteForceRated is the oracle for the §9 three-criteria extension:
// enumerate every sequenced route and keep the exact skyline over
// (length, semantic score, rating penalty).
func BruteForceRated(d *dataset.Dataset, start graph.VertexID, seq route.Sequence, agg route.Aggregation) *route.Skyline3 {
	k := len(seq)
	scorer := route.NewScorer(agg, k)
	sky := route.NewSkyline3()
	if k == 0 {
		return sky
	}
	cands := make([][]graph.VertexID, k)
	sims := make([][]float64, k)
	for i, m := range seq {
		for _, p := range d.Graph.PoIVertices() {
			if h := m.Sim(d.Graph.Categories(p)); h > 0 {
				cands[i] = append(cands[i], p)
				sims[i] = append(sims[i], h)
			}
		}
	}
	ws := dijkstra.New(d.Graph)
	distFrom := map[graph.VertexID]map[graph.VertexID]float64{}
	dist := func(u, v graph.VertexID) float64 {
		row, ok := distFrom[u]
		if !ok {
			row = make(map[graph.VertexID]float64)
			ws.Run(dijkstra.Options{Sources: []graph.VertexID{u}})
			for x := graph.VertexID(0); int(x) < d.Graph.NumVertices(); x++ {
				if dd, reached := ws.Dist(x); reached {
					row[x] = dd
				}
			}
			distFrom[u] = row
		}
		if dd, ok := row[v]; ok {
			return dd
		}
		return math.Inf(1)
	}
	var rec func(r *route.Route, from graph.VertexID, penalty float64)
	rec = func(r *route.Route, from graph.VertexID, penalty float64) {
		pos := r.Size()
		if pos == k {
			sky.Update(r, penalty/float64(k))
			return
		}
		for i, p := range cands[pos] {
			if r.Contains(p) {
				continue
			}
			dd := dist(from, p)
			if math.IsInf(dd, 1) {
				continue
			}
			rec(r.Extend(scorer, p, dd, sims[pos][i]), p, penalty+dataset.RatingPenalty(d.Rating(p)))
		}
	}
	rec(route.Empty(scorer), start, 0)
	return sky
}

// BruteForceUnordered is the oracle for the §6 "skyline trip planning"
// variant: every requirement must be satisfied exactly once, in any order.
func BruteForceUnordered(d *dataset.Dataset, start graph.VertexID, seq route.Sequence, agg route.Aggregation) *route.Skyline {
	k := len(seq)
	scorer := route.NewScorer(agg, k)
	sky := route.NewSkyline()
	if k == 0 {
		return sky
	}
	ws := dijkstra.New(d.Graph)
	distFrom := map[graph.VertexID]map[graph.VertexID]float64{}
	dist := func(u, v graph.VertexID) float64 {
		row, ok := distFrom[u]
		if !ok {
			row = make(map[graph.VertexID]float64)
			ws.Run(dijkstra.Options{Sources: []graph.VertexID{u}})
			for x := graph.VertexID(0); int(x) < d.Graph.NumVertices(); x++ {
				if dd, reached := ws.Dist(x); reached {
					row[x] = dd
				}
			}
			distFrom[u] = row
		}
		if dd, ok := row[v]; ok {
			return dd
		}
		return math.Inf(1)
	}

	var rec func(r *route.Route, from graph.VertexID, mask uint32)
	rec = func(r *route.Route, from graph.VertexID, mask uint32) {
		if r.Size() == k {
			sky.Update(r, 0)
			return
		}
		for pos := 0; pos < k; pos++ {
			if mask&(1<<uint(pos)) != 0 {
				continue
			}
			for _, p := range d.Graph.PoIVertices() {
				if r.Contains(p) {
					continue
				}
				h := seq[pos].Sim(d.Graph.Categories(p))
				if h <= 0 {
					continue
				}
				dd := dist(from, p)
				if math.IsInf(dd, 1) {
					continue
				}
				rec(r.Extend(scorer, p, dd, h), p, mask|1<<uint(pos))
			}
		}
	}
	rec(route.Empty(scorer), start, 0)
	return sky
}
