package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skysr/internal/graph"
)

func TestScorerProduct(t *testing.T) {
	sc := NewScorer(AggProduct, 3)
	r := Empty(sc)
	if r.Semantic() != 0 {
		t.Fatalf("empty route semantic = %v, want 0", r.Semantic())
	}
	r1 := r.Extend(sc, 1, 10, 1.0)
	if r1.Semantic() != 0 {
		t.Errorf("perfect extension semantic = %v, want 0", r1.Semantic())
	}
	r2 := r1.Extend(sc, 2, 5, 0.5)
	if math.Abs(r2.Semantic()-0.5) > 1e-12 {
		t.Errorf("semantic = %v, want 0.5 (1 - 1*0.5)", r2.Semantic())
	}
	r3 := r2.Extend(sc, 3, 5, 0.5)
	if math.Abs(r3.Semantic()-0.75) > 1e-12 {
		t.Errorf("semantic = %v, want 0.75 (1 - 0.25)", r3.Semantic())
	}
	if r3.Length() != 20 {
		t.Errorf("length = %v, want 20", r3.Length())
	}
}

func TestScorerMin(t *testing.T) {
	sc := NewScorer(AggMin, 3)
	r := Empty(sc).Extend(sc, 1, 1, 0.8).Extend(sc, 2, 1, 0.4).Extend(sc, 3, 1, 0.9)
	if math.Abs(r.Semantic()-0.6) > 1e-12 {
		t.Errorf("min agg semantic = %v, want 0.6", r.Semantic())
	}
}

func TestScorerMean(t *testing.T) {
	sc := NewScorer(AggMean, 4)
	r := Empty(sc).Extend(sc, 1, 1, 0.5)
	// Visited 0.5, remaining three positions assumed perfect:
	// s = 1 - (0.5+3)/4 = 0.125.
	if math.Abs(r.Semantic()-0.125) > 1e-12 {
		t.Errorf("mean agg partial semantic = %v, want 0.125", r.Semantic())
	}
	full := r.Extend(sc, 2, 1, 1).Extend(sc, 3, 1, 1).Extend(sc, 4, 1, 1)
	if math.Abs(full.Semantic()-0.125) > 1e-12 {
		t.Errorf("mean agg full semantic = %v, want 0.125", full.Semantic())
	}
}

func TestSemanticMonotoneUnderExtensionQuick(t *testing.T) {
	// Lemma 5.2 requires s(R) ≤ s(R ⊕ p) for every aggregation.
	for _, agg := range []Aggregation{AggProduct, AggMin, AggMean} {
		agg := agg
		f := func(hs []float64) bool {
			k := len(hs)
			if k == 0 {
				return true
			}
			sc := NewScorer(agg, k)
			r := Empty(sc)
			prev := r.Semantic()
			for i, h := range hs {
				h = math.Abs(math.Mod(h, 1))
				if h == 0 {
					h = 0.1
				}
				r = r.Extend(sc, graph.VertexID(i), 1, h)
				if r.Semantic()+1e-12 < prev {
					return false
				}
				prev = r.Semantic()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", agg, err)
		}
	}
}

func TestMinIncrement(t *testing.T) {
	sc := NewScorer(AggProduct, 3)
	r := Empty(sc).Extend(sc, 1, 1, 1.0)
	// state=1; best imperfect sim 0.8 → δ = 1*(1-0.8) = 0.2.
	if d := sc.MinIncrement(r.AggState(), r.Size(), 0.8); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("δ = %v, want 0.2", d)
	}
	r2 := r.Extend(sc, 2, 1, 0.5)
	if d := sc.MinIncrement(r2.AggState(), r2.Size(), 0.8); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("δ = %v, want 0.1", d)
	}
	// maxImperfect = 1 disables the rule.
	if d := sc.MinIncrement(1, 0, 1); d != 0 {
		t.Errorf("δ with maxImperfect=1 should be 0, got %v", d)
	}
	// Min aggregation: only counts when the imperfect sim is below state.
	scMin := NewScorer(AggMin, 3)
	if d := scMin.MinIncrement(0.9, 1, 0.7); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("min-agg δ = %v, want 0.2", d)
	}
	if d := scMin.MinIncrement(0.5, 1, 0.7); d != 0 {
		t.Errorf("min-agg δ = %v, want 0", d)
	}
}

func TestMinIncrementIsSafeLowerBoundQuick(t *testing.T) {
	// δ must never exceed the actual semantic increase caused by a single
	// imperfect similarity h ≤ maxImperfect.
	for _, agg := range []Aggregation{AggProduct, AggMin, AggMean} {
		agg := agg
		f := func(seedState, seedH, seedMax float64) bool {
			k := 4
			sc := NewScorer(agg, k)
			r := Empty(sc)
			// Build one visited position with a random similarity.
			h0 := 0.3 + math.Abs(math.Mod(seedState, 0.7))
			r = r.Extend(sc, 1, 1, h0)
			maxImp := math.Abs(math.Mod(seedMax, 0.999))
			h := math.Abs(math.Mod(seedH, 1))
			if h > maxImp {
				h = maxImp // the imperfect similarity actually taken
			}
			if h == 0 {
				h = maxImp / 2
			}
			if h == 0 {
				return true
			}
			delta := sc.MinIncrement(r.AggState(), r.Size(), maxImp)
			got := r.Extend(sc, 2, 1, h)
			actualIncrease := got.Semantic() - r.Semantic()
			return delta <= actualIncrease+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", agg, err)
		}
	}
}

func TestRoutePoIsAndContains(t *testing.T) {
	sc := NewScorer(AggProduct, 3)
	r := Empty(sc).Extend(sc, 5, 1, 1).Extend(sc, 9, 2, 0.5).Extend(sc, 2, 3, 1)
	pois := r.PoIs()
	want := []graph.VertexID{5, 9, 2}
	if len(pois) != 3 {
		t.Fatalf("PoIs = %v, want %v", pois, want)
	}
	for i := range want {
		if pois[i] != want[i] {
			t.Fatalf("PoIs = %v, want %v", pois, want)
		}
	}
	for _, v := range want {
		if !r.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if r.Contains(7) {
		t.Error("Contains(7) = true for absent PoI")
	}
	if r.Last() != 2 {
		t.Errorf("Last = %d, want 2", r.Last())
	}
	if Empty(sc).Last() != graph.NoVertex {
		t.Error("empty route Last should be NoVertex")
	}
	if got := Empty(sc).PoIs(); len(got) != 0 {
		t.Errorf("empty route PoIs = %v", got)
	}
}

func TestExtendDoesNotMutateParent(t *testing.T) {
	sc := NewScorer(AggProduct, 2)
	base := Empty(sc).Extend(sc, 1, 5, 1)
	a := base.Extend(sc, 2, 3, 1)
	b := base.Extend(sc, 3, 4, 0.5)
	if base.Size() != 1 || base.Length() != 5 {
		t.Error("parent mutated")
	}
	if a.Length() != 8 || b.Length() != 9 {
		t.Error("children lengths wrong")
	}
	if got := a.PoIs(); got[1] != 2 {
		t.Error("a PoIs wrong")
	}
	if got := b.PoIs(); got[1] != 3 {
		t.Error("b PoIs wrong")
	}
}

func TestAddLength(t *testing.T) {
	sc := NewScorer(AggProduct, 1)
	r := Empty(sc).Extend(sc, 1, 5, 1)
	r2 := r.AddLength(7)
	if r.Length() != 5 {
		t.Error("AddLength mutated the original")
	}
	if r2.Length() != 12 {
		t.Errorf("AddLength = %v, want 12", r2.Length())
	}
	if r2.Last() != 1 || r2.Size() != 1 {
		t.Error("AddLength should preserve identity fields")
	}
}

func mkRoute(l, s float64) *Route {
	return &Route{length: l, semantic: s, size: 1, last: 0}
}

func TestDominates(t *testing.T) {
	tests := []struct {
		name string
		a, b *Route
		want bool
	}{
		{"strictly better both", mkRoute(1, 0.1), mkRoute(2, 0.2), true},
		{"better length equal semantic", mkRoute(1, 0.2), mkRoute(2, 0.2), true},
		{"better semantic equal length", mkRoute(2, 0.1), mkRoute(2, 0.2), true},
		{"equal", mkRoute(2, 0.2), mkRoute(2, 0.2), false},
		{"incomparable", mkRoute(1, 0.3), mkRoute(2, 0.2), false},
		{"worse", mkRoute(3, 0.3), mkRoute(2, 0.2), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Dominates(tt.b); got != tt.want {
				t.Errorf("Dominates = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDominanceIrreflexiveAntisymmetricQuick(t *testing.T) {
	f := func(l1, s1, l2, s2 float64) bool {
		a := mkRoute(math.Abs(l1), math.Abs(math.Mod(s1, 1)))
		b := mkRoute(math.Abs(l2), math.Abs(math.Mod(s2, 1)))
		if a.Dominates(a) {
			return false
		}
		if a.Dominates(b) && b.Dominates(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSkylineUpdate(t *testing.T) {
	s := NewSkyline()
	if !s.Update(mkRoute(10, 0.5), 0) {
		t.Fatal("first insert should succeed")
	}
	if !s.Update(mkRoute(20, 0.2), 0) {
		t.Fatal("incomparable insert should succeed")
	}
	if s.Update(mkRoute(25, 0.6), 0) {
		t.Error("dominated insert should fail")
	}
	if s.Update(mkRoute(10, 0.5), 0) {
		t.Error("equivalent insert should fail")
	}
	// Dominates both members: they must be evicted.
	if !s.Update(mkRoute(5, 0.1), 0) {
		t.Fatal("dominating insert should succeed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 after eviction", s.Len())
	}
	if got := s.Routes()[0]; got.Length() != 5 || got.Semantic() != 0.1 {
		t.Errorf("surviving route = %v", got)
	}
}

func TestSkylineMinimalInvariantQuick(t *testing.T) {
	// After arbitrary updates, no member may dominate or equal another.
	f := func(pairs [][2]float64) bool {
		s := NewSkyline()
		for _, p := range pairs {
			s.Update(mkRoute(math.Abs(p[0]), math.Abs(math.Mod(p[1], 1))), 0)
		}
		rs := s.Routes()
		for i := range rs {
			for j := range rs {
				if i == j {
					continue
				}
				if rs[i].Dominates(rs[j]) || rs[i].Equivalent(rs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSkylineMatchesBruteForceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(30) + 1
		routes := make([]*Route, n)
		for i := range routes {
			routes[i] = mkRoute(float64(rng.Intn(10)), float64(rng.Intn(5))/5)
		}
		s := NewSkyline()
		for _, r := range routes {
			s.Update(r, 0)
		}
		// Brute force: a score pair survives iff no other pair dominates it.
		type pair struct{ l, sem float64 }
		want := map[pair]bool{}
		for _, r := range routes {
			dominated := false
			for _, o := range routes {
				if o.Dominates(r) {
					dominated = true
					break
				}
			}
			if !dominated {
				want[pair{r.Length(), r.Semantic()}] = true
			}
		}
		got := map[pair]bool{}
		for _, r := range s.Routes() {
			got[pair{r.Length(), r.Semantic()}] = true
		}
		if len(got) != len(want) {
			t.Fatalf("skyline score set = %v, want %v", got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("missing skyline point %v", k)
			}
		}
	}
}

func TestThreshold(t *testing.T) {
	s := NewSkyline()
	if !math.IsInf(s.Threshold(0.5, 0), 1) {
		t.Error("empty skyline threshold should be +Inf")
	}
	s.Update(mkRoute(10, 0.0), 0)
	s.Update(mkRoute(6, 0.3), 0)
	s.Update(mkRoute(3, 0.7), 0)
	tests := []struct {
		sem  float64
		want float64
	}{
		{0.0, 10},  // only the s=0 route qualifies
		{0.29, 10}, // 0.3 route does not qualify yet
		{0.3, 6},
		{0.7, 3},
		{1.0, 3},
	}
	for _, tt := range tests {
		if got := s.Threshold(tt.sem, 0); got != tt.want {
			t.Errorf("Threshold(%v) = %v, want %v", tt.sem, got, tt.want)
		}
	}
	if got := s.ThresholdPerfect(); got != 10 {
		t.Errorf("ThresholdPerfect = %v, want 10", got)
	}
}

func TestCoversMatchesLemma53(t *testing.T) {
	s := NewSkyline()
	s.Update(mkRoute(10, 0.2), 0)
	if !s.Covers(mkRoute(12, 0.3)) {
		t.Error("dominated route should be covered")
	}
	if !s.Covers(mkRoute(10, 0.2)) {
		t.Error("equivalent route should be covered")
	}
	if s.Covers(mkRoute(5, 0.5)) {
		t.Error("incomparable route should not be covered")
	}
}

func TestRouteString(t *testing.T) {
	sc := NewScorer(AggProduct, 2)
	r := Empty(sc).Extend(sc, 3, 1.5, 1).Extend(sc, 8, 2, 0.5)
	got := r.String()
	if got == "" || len(got) < 5 {
		t.Errorf("String = %q", got)
	}
}

func TestAggregationString(t *testing.T) {
	if AggProduct.String() != "product" || AggMin.String() != "min" || AggMean.String() != "mean" {
		t.Error("Aggregation String wrong")
	}
	if Aggregation(42).String() == "" {
		t.Error("unknown aggregation should still render")
	}
}
