package route

import (
	"math"
	"sort"
)

// Point3 is a route with three scores: length, semantic and rating
// penalty. It supports the §9 extension "consider many attributes of a PoI
// (e.g., ... ratings)" — routes Pareto-optimal in all three dimensions.
type Point3 struct {
	L     float64 // length score
	S     float64 // semantic score
	R     float64 // rating penalty in [0, 1], 0 = all PoIs top-rated
	Route *Route
}

// dominates reports pointwise-≤ with at least one strict inequality.
func (p Point3) dominates(o Point3) bool {
	if p.L > o.L || p.S > o.S || p.R > o.R {
		return false
	}
	return p.L < o.L || p.S < o.S || p.R < o.R
}

func (p Point3) equivalent(o Point3) bool {
	return p.L == o.L && p.S == o.S && p.R == o.R
}

// Skyline3 maintains the minimal set of three-criteria routes, the
// three-dimensional analogue of Skyline, with the same method set: the
// rating penalty Skyline ignores is its third coordinate. Sets stay small,
// so linear scans remain the right structure.
type Skyline3 struct {
	pts []Point3
}

// NewSkyline3 returns an empty set.
func NewSkyline3() *Skyline3 { return &Skyline3{} }

// Len returns the number of member routes.
func (s *Skyline3) Len() int { return len(s.pts) }

// Points returns the members sorted by ascending length (ties by semantic,
// then rating).
func (s *Skyline3) Points() []Point3 {
	out := append([]Point3(nil), s.pts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].L != out[j].L {
			return out[i].L < out[j].L
		}
		if out[i].S != out[j].S {
			return out[i].S < out[j].S
		}
		return out[i].R < out[j].R
	})
	return out
}

// Routes returns the member routes in Points order.
func (s *Skyline3) Routes() []*Route {
	pts := s.Points()
	out := make([]*Route, len(pts))
	for i, p := range pts {
		out[i] = p.Route
	}
	return out
}

// Ratings returns the members' rating penalties in Points order.
func (s *Skyline3) Ratings() []float64 {
	pts := s.Points()
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.R
	}
	return out
}

// Update inserts r with the given rating penalty unless a member
// dominates or equals it; on insertion every member it dominates is
// evicted. It reports whether the set changed.
func (s *Skyline3) Update(r *Route, rating float64) bool {
	return s.add(Point3{L: r.length, S: r.semantic, R: rating, Route: r})
}

func (s *Skyline3) add(p Point3) bool {
	for _, m := range s.pts {
		if m.dominates(p) || m.equivalent(p) {
			return false
		}
	}
	keep := s.pts[:0]
	for _, m := range s.pts {
		if !p.dominates(m) {
			keep = append(keep, m)
		}
	}
	s.pts = append(keep, p)
	return true
}

// CoversPoint reports whether some member dominates or equals (l, sem,
// rat) — the three-criteria pruning condition (Lemma 5.3 generalized:
// scores are monotone under extension in all three dimensions, so a
// covered partial route cannot produce an uncovered completion) and the
// witness test of the Lemma 5.8 rules.
func (s *Skyline3) CoversPoint(l, sem, rat float64) bool {
	for _, m := range s.pts {
		if m.L <= l && m.S <= sem && m.R <= rat {
			return true
		}
	}
	return false
}

// Threshold returns the smallest member length among members whose
// semantic and rating scores are both ≤ the given values (+Inf when none)
// — Equation 3 generalized. A partial route with these scores is dead once
// its length reaches the threshold.
func (s *Skyline3) Threshold(sem, rat float64) float64 {
	best := math.Inf(1)
	for _, m := range s.pts {
		if m.S <= sem && m.R <= rat && m.L < best {
			best = m.L
		}
	}
	return best
}

// ThresholdPerfect returns Threshold(0, 0), the l̄(∅) of the Algorithm 4
// radius restriction: a route with a PoI farther from the start is at
// least that long and scores no better on either other criterion.
func (s *Skyline3) ThresholdPerfect() float64 { return s.Threshold(0, 0) }
