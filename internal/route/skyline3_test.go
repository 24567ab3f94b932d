package route

import (
	"math"
	"math/rand"
	"testing"
)

func p3(l, s, r float64) Point3 { return Point3{L: l, S: s, R: r} }

func TestPoint3Dominates(t *testing.T) {
	tests := []struct {
		name string
		a, b Point3
		want bool
	}{
		{"all strict", p3(1, 0.1, 0.1), p3(2, 0.2, 0.2), true},
		{"one strict", p3(1, 0.2, 0.2), p3(2, 0.2, 0.2), true},
		{"equal", p3(2, 0.2, 0.2), p3(2, 0.2, 0.2), false},
		{"trade-off", p3(1, 0.3, 0.2), p3(2, 0.2, 0.2), false},
		{"rating trade-off", p3(1, 0.2, 0.5), p3(2, 0.2, 0.2), false},
		{"worse", p3(3, 0.3, 0.3), p3(2, 0.2, 0.2), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.dominates(tt.b); got != tt.want {
				t.Errorf("dominates = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSkyline3Update(t *testing.T) {
	s := NewSkyline3()
	if !s.add(p3(10, 0.5, 0.5)) {
		t.Fatal("first insert should succeed")
	}
	if !s.add(p3(5, 0.9, 0.1)) {
		t.Fatal("incomparable insert should succeed")
	}
	if s.add(p3(11, 0.6, 0.6)) {
		t.Error("dominated insert should fail")
	}
	if s.add(p3(10, 0.5, 0.5)) {
		t.Error("equivalent insert should fail")
	}
	if !s.add(p3(1, 0.1, 0.05)) {
		t.Fatal("dominating insert should succeed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d after global dominator, want 1", s.Len())
	}
}

func TestSkyline3Threshold(t *testing.T) {
	s := NewSkyline3()
	if !math.IsInf(s.Threshold(1, 1), 1) {
		t.Error("empty threshold should be +Inf")
	}
	s.add(p3(10, 0.0, 0.4))
	s.add(p3(6, 0.3, 0.2))
	s.add(p3(3, 0.7, 0.0))
	tests := []struct {
		sem, rat, want float64
	}{
		{0.0, 0.4, 10},
		{0.3, 0.4, 6},
		{0.3, 0.1, math.Inf(1)}, // no member has R ≤ 0.1 and S ≤ 0.3
		{0.7, 0.0, 3},
		{1, 1, 3},
		{0.0, 0.0, math.Inf(1)},
	}
	for _, tt := range tests {
		if got := s.Threshold(tt.sem, tt.rat); got != tt.want {
			t.Errorf("Threshold(%v, %v) = %v, want %v", tt.sem, tt.rat, got, tt.want)
		}
	}
	if !s.CoversPoint(11, 0.3, 0.2) {
		t.Error("should cover a longer route with equal scores")
	}
	if s.CoversPoint(5, 0.3, 0.1) {
		t.Error("should not cover an uncovered point")
	}
}

func TestSkyline3MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]Point3, n)
		for i := range pts {
			pts[i] = p3(float64(rng.Intn(8)), float64(rng.Intn(4))/4, float64(rng.Intn(4))/4)
		}
		s := NewSkyline3()
		for _, p := range pts {
			s.add(p)
		}
		// Brute force: survivors are points not dominated by any other.
		type key struct{ l, s, r float64 }
		want := map[key]bool{}
		for _, p := range pts {
			dominated := false
			for _, o := range pts {
				if o.dominates(p) {
					dominated = true
					break
				}
			}
			if !dominated {
				want[key{p.L, p.S, p.R}] = true
			}
		}
		got := map[key]bool{}
		for _, p := range s.Points() {
			got[key{p.L, p.S, p.R}] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d skyline points, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing point %v", trial, k)
			}
		}
		// Minimality: no member dominates another.
		mem := s.Points()
		for i := range mem {
			for j := range mem {
				if i != j && mem[i].dominates(mem[j]) {
					t.Fatalf("trial %d: member dominates member", trial)
				}
			}
		}
	}
}

func TestSkyline3PointsSorted(t *testing.T) {
	s := NewSkyline3()
	s.add(p3(5, 0.5, 0.1))
	s.add(p3(3, 0.7, 0.2))
	s.add(p3(8, 0.1, 0.3))
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].L < pts[i-1].L {
			t.Fatal("Points not sorted by length")
		}
	}
}
