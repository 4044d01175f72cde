package lp

import (
	"errors"
	"math"
	"testing"

	"cool/internal/stats"
)

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSolveTextbookMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
	sol := solveOK(t, Problem{
		Objective: []float64{3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Sense: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Sense: LE, RHS: 18},
		},
	})
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveMinimization(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 -> x=4 (y=0)? costs: x cheaper:
	// x=4,y=0 gives 8; but x>=1 only. Optimum: x=4, obj 8.
	sol := solveOK(t, Problem{
		Objective: []float64{2, 3},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: GE, RHS: 4},
			{Coeffs: []float64{1, 0}, Sense: GE, RHS: 1},
		},
	})
	if math.Abs(sol.Objective-8) > 1e-6 {
		t.Errorf("objective = %v, want 8", sol.Objective)
	}
}

func TestSolveEquality(t *testing.T) {
	// max x + 2y s.t. x + y = 3, x - y <= 1 -> x=2,y=1? obj 4; or x=0,y=3
	// obj 6 with x-y=-3 <= 1 feasible. Optimum x=0,y=3.
	sol := solveOK(t, Problem{
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 3},
			{Coeffs: []float64{1, -1}, Sense: LE, RHS: 1},
		},
	})
	if math.Abs(sol.Objective-6) > 1e-6 {
		t.Errorf("objective = %v, want 6", sol.Objective)
	}
	if math.Abs(sol.X[0]) > 1e-6 || math.Abs(sol.X[1]-3) > 1e-6 {
		t.Errorf("x = %v, want [0 3]", sol.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	sol, err := Solve(Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Sense: LE, RHS: 1},
			{Coeffs: []float64{1}, Sense: GE, RHS: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	sol, err := Solve(Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Sense: LE, RHS: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// x <= 5 written as -x >= -5 should behave identically.
	sol := solveOK(t, Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Sense: GE, RHS: -5},
		},
	})
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex: redundant constraints meeting at the optimum.
	sol := solveOK(t, Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 1},
			{Coeffs: []float64{0, 1}, Sense: LE, RHS: 1},
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2},
			{Coeffs: []float64{2, 2}, Sense: LE, RHS: 4},
		},
	})
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestSolveRedundantEquality(t *testing.T) {
	// Duplicate equality rows leave a redundant artificial in the basis;
	// the solver must drop the row, not fail.
	sol := solveOK(t, Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 1.5},
		},
	})
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestSolveZeroRHSDegenerate(t *testing.T) {
	// x - y = 0, x + y <= 2, max x  ->  x = y = 1.
	sol := solveOK(t, Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{1, -1}, Sense: EQ, RHS: 0},
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2},
		},
	})
	if math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]-1) > 1e-6 {
		t.Errorf("x = %v, want [1 1]", sol.X)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Problem{}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("empty problem error = %v", err)
	}
	if _, err := Solve(Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1, 2}, Sense: LE, RHS: 1}},
	}); !errors.Is(err, ErrBadProblem) {
		t.Error("mismatched coeffs accepted")
	}
	if _, err := Solve(Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Sense: Sense(9), RHS: 1}},
	}); !errors.Is(err, ErrBadProblem) {
		t.Error("bad sense accepted")
	}
	if _, err := Solve(Problem{
		Objective:   []float64{math.NaN()},
		Constraints: nil,
	}); !errors.Is(err, ErrBadProblem) {
		t.Error("NaN objective accepted")
	}
	if _, err := Solve(Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{math.Inf(1)}, Sense: LE, RHS: 1}},
	}); !errors.Is(err, ErrBadProblem) {
		t.Error("Inf coeff accepted")
	}
	if _, err := Solve(Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Sense: LE, RHS: math.NaN()}},
	}); !errors.Is(err, ErrBadProblem) {
		t.Error("NaN RHS accepted")
	}
}

func TestSolveMaxCoverageLPFractional(t *testing.T) {
	// Max-coverage LP relaxation: 2 sensors, 1 slot-pair; the known
	// fractional structure z <= sum x, z <= 1.
	// max z1 + z2 s.t. z1 <= x1, z2 <= x2, x1 + x2 <= 1, z <= 1.
	sol := solveOK(t, Problem{
		Objective: []float64{0, 0, 1, 1}, // x1 x2 z1 z2
		Constraints: []Constraint{
			{Coeffs: []float64{-1, 0, 1, 0}, Sense: LE, RHS: 0},
			{Coeffs: []float64{0, -1, 0, 1}, Sense: LE, RHS: 0},
			{Coeffs: []float64{1, 1, 0, 0}, Sense: LE, RHS: 1},
			{Coeffs: []float64{0, 0, 1, 0}, Sense: LE, RHS: 1},
			{Coeffs: []float64{0, 0, 0, 1}, Sense: LE, RHS: 1},
		},
	})
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

// TestSolveRandomAgainstEnumeration cross-checks the simplex optimum
// against brute-force vertex enumeration on random small LPs with
// bounded feasible regions.
func TestSolveRandomAgainstEnumeration(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(2) // 2..3 vars
		m := 2 + rng.Intn(3) // constraint count
		p := Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.UniformRange(-2, 5)
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Sense: LE, RHS: rng.UniformRange(1, 10)}
			for j := range c.Coeffs {
				c.Coeffs[j] = rng.UniformRange(0.1, 3) // positive => bounded
			}
			p.Constraints = append(p.Constraints, c)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Feasibility of reported point.
		for i, c := range p.Constraints {
			var lhs float64
			for j := range c.Coeffs {
				lhs += c.Coeffs[j] * sol.X[j]
			}
			if lhs > c.RHS+1e-6 {
				t.Fatalf("trial %d: constraint %d violated (%v > %v)", trial, i, lhs, c.RHS)
			}
		}
		for j, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, x)
			}
		}
		// Optimality vs dense grid sampling (coarse lower-bound check).
		best := gridMax(p, 24)
		if sol.Objective < best-1e-4 {
			t.Fatalf("trial %d: simplex %v < grid max %v", trial, sol.Objective, best)
		}
	}
}

// gridMax samples the box [0, maxBound]^n on a grid and returns the best
// feasible objective value found.
func gridMax(p Problem, steps int) float64 {
	n := len(p.Objective)
	// Upper bound each variable by min over constraints of RHS/coeff.
	bounds := make([]float64, n)
	for j := range bounds {
		bounds[j] = math.Inf(1)
		for _, c := range p.Constraints {
			if c.Coeffs[j] > 0 {
				if b := c.RHS / c.Coeffs[j]; b < bounds[j] {
					bounds[j] = b
				}
			}
		}
		if math.IsInf(bounds[j], 1) {
			bounds[j] = 10
		}
	}
	best := math.Inf(-1)
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for _, c := range p.Constraints {
				var lhs float64
				for k := range c.Coeffs {
					lhs += c.Coeffs[k] * x[k]
				}
				if lhs > c.RHS+1e-12 {
					return
				}
			}
			var obj float64
			for k := range p.Objective {
				obj += p.Objective[k] * x[k]
			}
			if obj > best {
				best = obj
			}
			return
		}
		for s := 0; s <= steps; s++ {
			x[j] = bounds[j] * float64(s) / float64(steps)
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

func TestStatusStrings(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" ||
		StatusUnbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status string wrong")
	}
}

// FuzzSolveRobustness: the simplex must never panic or loop on random
// small LPs; when it reports optimal, the solution must be feasible.
func FuzzSolveRobustness(f *testing.F) {
	f.Add(1.0, 1.0, 1.0, 1.0, 5.0, uint8(0))
	f.Add(-2.0, 3.0, 0.5, -1.0, -4.0, uint8(1))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, c1, c2, a1, a2, rhs float64, senseRaw uint8) {
		for _, v := range []float64{c1, c2, a1, a2, rhs} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return
			}
		}
		sense := []Sense{LE, GE, EQ}[senseRaw%3]
		p := Problem{
			Objective: []float64{c1, c2},
			Constraints: []Constraint{
				{Coeffs: []float64{a1, a2}, Sense: sense, RHS: rhs},
				// Keep the region bounded so the fuzz explores optimal paths too.
				{Coeffs: []float64{1, 0}, Sense: LE, RHS: 100},
				{Coeffs: []float64{0, 1}, Sense: LE, RHS: 100},
			},
		}
		sol, err := Solve(p)
		if err != nil {
			return // rejected input or pivot cap: fine
		}
		if sol.Status != StatusOptimal {
			return
		}
		for i, c := range p.Constraints {
			var lhs float64
			for j := range c.Coeffs {
				lhs += c.Coeffs[j] * sol.X[j]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+1e-5 {
					t.Fatalf("constraint %d violated: %v > %v", i, lhs, c.RHS)
				}
			case GE:
				if lhs < c.RHS-1e-5 {
					t.Fatalf("constraint %d violated: %v < %v", i, lhs, c.RHS)
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-5 {
					t.Fatalf("constraint %d violated: %v != %v", i, lhs, c.RHS)
				}
			}
		}
		for j, x := range sol.X {
			if x < -1e-8 {
				t.Fatalf("x[%d] = %v negative", j, x)
			}
		}
	})
}
