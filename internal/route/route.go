// Package route defines the query-side vocabulary of the paper: category
// sequences and their generalization to requirement matchers (§6),
// sequenced routes with their length and semantic scores (Definitions
// 3.2–3.5), dominance (Definition 4.1), and the minimal skyline set S with
// the branch-and-bound threshold l̄(R) of Equation 3.
package route

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"skysr/internal/graph"
)

// Aggregation selects the function f of Definition 3.5 that combines the
// per-position similarities h_i into the semantic score s(R).
type Aggregation int

const (
	// AggProduct is the paper's experimental choice (Eq. 7):
	// s(R) = 1 − Π h_i.
	AggProduct Aggregation = iota
	// AggMin scores by the worst position: s(R) = 1 − min h_i.
	AggMin
	// AggMean scores by the average position: s(R) = 1 − mean h_i, with
	// unvisited positions counted as perfect (the "possible minimum").
	AggMean
)

// String implements fmt.Stringer.
func (a Aggregation) String() string {
	switch a {
	case AggProduct:
		return "product"
	case AggMin:
		return "min"
	case AggMean:
		return "mean"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// Scorer computes the "possible minimum semantic score" of partial routes
// (Definition 3.5): the score the route would have if all remaining
// positions matched perfectly. All three aggregations make the score
// monotone non-decreasing as PoIs are appended, which Lemma 5.2 relies on.
type Scorer struct {
	agg Aggregation
	k   int // sequence length |Sq|
}

// NewScorer returns a Scorer for a sequence of length k.
func NewScorer(agg Aggregation, k int) Scorer { return Scorer{agg: agg, k: k} }

// Aggregation returns the aggregation the scorer applies.
func (sc Scorer) Aggregation() Aggregation { return sc.agg }

// InitialState is the aggregation state of an empty route.
func (sc Scorer) InitialState() float64 {
	switch sc.agg {
	case AggProduct:
		return 1 // running product
	case AggMin:
		return 1 // running minimum
	case AggMean:
		return 0 // running sum
	default:
		panic("route: unknown aggregation")
	}
}

// Extend returns the aggregation state after appending a PoI with
// similarity h.
func (sc Scorer) Extend(state, h float64) float64 {
	switch sc.agg {
	case AggProduct:
		return state * h
	case AggMin:
		return math.Min(state, h)
	case AggMean:
		return state + h
	default:
		panic("route: unknown aggregation")
	}
}

// Score converts an aggregation state after size visited positions into
// the possible minimum semantic score.
func (sc Scorer) Score(state float64, size int) float64 {
	switch sc.agg {
	case AggProduct:
		return 1 - state
	case AggMin:
		return 1 - state
	case AggMean:
		if sc.k == 0 {
			return 0
		}
		// Remaining positions assumed perfect (h = 1).
		return 1 - (state+float64(sc.k-size))/float64(sc.k)
	default:
		panic("route: unknown aggregation")
	}
}

// MinIncrement returns the paper's δ (footnote 2): the smallest possible
// increase of the semantic score if the route takes any imperfect PoI at a
// remaining position, where maxImperfect is the largest similarity < 1
// achievable at any remaining position. A zero return disables the
// Lemma 5.8 rule safely.
func (sc Scorer) MinIncrement(state float64, size int, maxImperfect float64) float64 {
	if maxImperfect >= 1 || maxImperfect < 0 {
		return 0
	}
	switch sc.agg {
	case AggProduct:
		// Perfect completion: s = 1 − state. One imperfect h:
		// s = 1 − state·h. Increase = state·(1 − h), minimized at h max.
		return state * (1 - maxImperfect)
	case AggMin:
		// s jumps from 1−state to max(1−state, 1−h); the increase is only
		// positive when h < state.
		if maxImperfect < state {
			return state - maxImperfect
		}
		return 0
	case AggMean:
		if sc.k == 0 {
			return 0
		}
		return (1 - maxImperfect) / float64(sc.k)
	default:
		panic("route: unknown aggregation")
	}
}

// Route is a (possibly partial) sequenced route: the visited PoI vertices
// plus its two scores. Routes are immutable; Extend shares structure via a
// parent pointer, so queued partial routes cost O(1) memory each.
type Route struct {
	parent   *Route
	last     graph.VertexID
	size     int
	length   float64 // l(R), Definition 3.5 Eq. 1
	aggState float64 // scorer state over visited positions
	semantic float64 // s(R), possible minimum semantic score
}

// Empty returns the zero-length route rooted at the query start point. Its
// semantic score is the scorer's empty score.
func Empty(sc Scorer) *Route {
	st := sc.InitialState()
	return &Route{last: graph.NoVertex, aggState: st, semantic: sc.Score(st, 0)}
}

// Extend returns a new route equal to r ⊕ poi (Definition 3.2) with the
// given network distance from r's end (or from the start point when r is
// empty) and position similarity h.
func (r *Route) Extend(sc Scorer, poi graph.VertexID, dist, h float64) *Route {
	st := sc.Extend(r.aggState, h)
	size := r.size + 1
	return &Route{
		parent:   r,
		last:     poi,
		size:     size,
		length:   r.length + dist,
		aggState: st,
		semantic: sc.Score(st, size),
	}
}

// Size returns |R|, the number of visited PoIs.
func (r *Route) Size() int { return r.size }

// Length returns the length score l(R).
func (r *Route) Length() float64 { return r.length }

// Semantic returns the semantic score s(R).
func (r *Route) Semantic() float64 { return r.semantic }

// AggState exposes the scorer state (e.g. the similarity product); the
// Lemma 5.8 δ computation needs it.
func (r *Route) AggState() float64 { return r.aggState }

// Last returns the most recently visited PoI, or graph.NoVertex for the
// empty route.
func (r *Route) Last() graph.VertexID { return r.last }

// AddLength returns a copy of r with extra added to its length score; the
// "SkySR with destination" extension (§6) uses it to account for the final
// leg to the destination.
func (r *Route) AddLength(extra float64) *Route {
	cp := *r
	cp.length += extra
	return &cp
}

// PoIs materializes the visited PoI vertices in visit order.
func (r *Route) PoIs() []graph.VertexID {
	out := make([]graph.VertexID, r.size)
	for cur := r; cur != nil && cur.size > 0; cur = cur.parent {
		out[cur.size-1] = cur.last
	}
	return out
}

// Contains reports whether v appears among the visited PoIs. Definition
// 3.4(iii) requires all PoI vertices of a sequenced route to differ.
func (r *Route) Contains(v graph.VertexID) bool {
	for cur := r; cur != nil && cur.size > 0; cur = cur.parent {
		if cur.last == v {
			return true
		}
	}
	return false
}

// String renders the route compactly for logs and tests.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "⟨")
	for i, p := range r.PoIs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "p%d", p)
	}
	fmt.Fprintf(&b, "⟩ l=%.3f s=%.3f", r.length, r.semantic)
	return b.String()
}

// Dominates implements Definition 4.1: r dominates o when r is at least as
// good on both scores and strictly better on one.
func (r *Route) Dominates(o *Route) bool {
	return (r.length < o.length && r.semantic <= o.semantic) ||
		(r.semantic < o.semantic && r.length <= o.length)
}

// Equivalent reports whether the two routes have identical scores.
func (r *Route) Equivalent(o *Route) bool {
	return r.length == o.length && r.semantic == o.semantic
}

// Skyline maintains the minimal set S of sequenced routes found so far
// (Definition 4.2) and answers the threshold query of Equation 3. The set
// stays tiny in practice (Figure 6 reports at most ~8 SkySRs), so linear
// scans are the right data structure.
type Skyline struct {
	routes []*Route
}

// NewSkyline returns an empty skyline set.
func NewSkyline() *Skyline { return &Skyline{} }

// Len returns the number of routes in the set.
func (s *Skyline) Len() int { return len(s.routes) }

// Routes returns the skyline routes sorted by ascending length score
// (descending semantic score follows from minimality).
func (s *Skyline) Routes() []*Route {
	out := append([]*Route(nil), s.routes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].length != out[j].length {
			return out[i].length < out[j].length
		}
		return out[i].semantic < out[j].semantic
	})
	return out
}

// Update inserts r unless it is dominated by, or equivalent to, a member
// (Lemma 5.1); on insertion every member dominated by r is evicted. It
// reports whether the set changed. The rating penalty is ignored: the
// set has two criteria (Skyline3 is the three-criteria form).
func (s *Skyline) Update(r *Route, _ float64) bool {
	for _, m := range s.routes {
		if m.Dominates(r) || m.Equivalent(r) {
			return false
		}
	}
	keep := s.routes[:0]
	for _, m := range s.routes {
		if !r.Dominates(m) {
			keep = append(keep, m)
		}
	}
	s.routes = append(keep, r)
	return true
}

// Covers reports whether r is dominated by or equivalent to a member — the
// pruning condition of Lemma 5.3 applied to r's scores.
func (s *Skyline) Covers(r *Route) bool {
	for _, m := range s.routes {
		if m.Dominates(r) || m.Equivalent(r) {
			return true
		}
	}
	return false
}

// CoversPoint reports whether some member dominates-or-equals the raw
// score point (l, sem) — the witness test of the Lemma 5.8 rules, and
// the k = 1 case of the top-k band's k-witness test. The rating penalty
// is ignored.
func (s *Skyline) CoversPoint(l, sem, _ float64) bool {
	for _, m := range s.routes {
		if m.length <= l && m.semantic <= sem {
			return true
		}
	}
	return false
}

// Threshold returns l̄ for a route with semantic score sem (Equation 3):
// the smallest length score among members whose semantic score is ≤ sem,
// or +Inf when no member qualifies. The rating penalty is ignored.
func (s *Skyline) Threshold(sem, _ float64) float64 {
	best := math.Inf(1)
	for _, m := range s.routes {
		if m.semantic <= sem && m.length < best {
			best = m.length
		}
	}
	return best
}

// ThresholdPerfect returns l̄(∅): the threshold for a route whose semantic
// score is 0, used by the Algorithm 4 radius restriction.
func (s *Skyline) ThresholdPerfect() float64 { return s.Threshold(0, 0) }

// MemoryFootprintBytes estimates the bytes held by the set, for the
// Table 6 accounting.
func (s *Skyline) MemoryFootprintBytes() int64 {
	return int64(len(s.routes)) * 64
}
