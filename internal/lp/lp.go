// Package lp implements a dense two-phase primal simplex solver for
// linear programs, used by the paper's LP-relaxation scheduling baseline
// (Section IV-A-1). It supports ≤, ≥ and = rows over non-negative
// variables, uses Bland's rule to guarantee termination, and reports
// optimal, infeasible, and unbounded outcomes.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota + 1
	// GE is a ≥ constraint.
	GE
	// EQ is an = constraint.
	EQ
)

// Constraint is one row Σ Coeffs[j]·x_j (Sense) RHS.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program over n non-negative variables:
// maximize (or minimize) Objective·x subject to Constraints and x ≥ 0.
type Problem struct {
	// Objective holds the cost coefficient of each variable.
	Objective []float64
	// Constraints are the rows of the program.
	Constraints []Constraint
	// Minimize flips the sense of optimization (default: maximize).
	Minimize bool
}

// Status is the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded over the
	// feasible region.
	StatusUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a successful Solve call.
type Solution struct {
	// Status reports the outcome; X and Objective are meaningful only
	// when Status is StatusOptimal.
	Status Status
	// X is the optimal assignment of the original variables.
	X []float64
	// Objective is the optimal objective value (in the problem's own
	// sense; minimization problems report the minimum).
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

const (
	tol = 1e-9
	// maxPivots bounds total pivots as a defence against numerical
	// stalling; Bland's rule prevents true cycling, so this is sized
	// generously relative to problem dimensions.
	pivotsPerCell = 40
)

// ErrBadProblem is returned when the problem is structurally invalid.
var ErrBadProblem = errors.New("lp: malformed problem")

// Solve runs two-phase simplex on the problem.
func Solve(p Problem) (Solution, error) {
	n := len(p.Objective)
	if n == 0 {
		return Solution{}, fmt.Errorf("%w: empty objective", ErrBadProblem)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return Solution{}, fmt.Errorf(
				"%w: constraint %d has %d coeffs, want %d", ErrBadProblem, i, len(c.Coeffs), n)
		}
		if c.Sense != LE && c.Sense != GE && c.Sense != EQ {
			return Solution{}, fmt.Errorf("%w: constraint %d has invalid sense", ErrBadProblem, i)
		}
		for j, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Solution{}, fmt.Errorf(
					"%w: constraint %d coeff %d is %v", ErrBadProblem, i, j, v)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return Solution{}, fmt.Errorf("%w: constraint %d RHS is %v", ErrBadProblem, i, c.RHS)
		}
	}
	for j, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Solution{}, fmt.Errorf("%w: objective coeff %d is %v", ErrBadProblem, j, v)
		}
	}

	t := newTableau(p)
	sol, err := t.run()
	if err != nil {
		return Solution{}, err
	}
	return sol, nil
}

// tableau holds the dense simplex state.
type tableau struct {
	nOrig    int // original variable count
	nCols    int // total structural columns (orig + slack/surplus + artificial)
	nArt     int
	artAt    int // first artificial column index
	rows     [][]float64
	rhs      []float64
	basis    []int
	minimize bool
	obj      []float64 // original objective, padded to nCols
	iters    int
	maxIt    int
}

func newTableau(p Problem) *tableau {
	m := len(p.Constraints)
	n := len(p.Objective)

	// Count extra columns.
	slacks := 0
	arts := 0
	for _, c := range p.Constraints {
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			sense = flip(sense)
		}
		switch sense {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	nCols := n + slacks + arts
	t := &tableau{
		nOrig:    n,
		nCols:    nCols,
		nArt:     arts,
		artAt:    n + slacks,
		rows:     make([][]float64, m),
		rhs:      make([]float64, m),
		basis:    make([]int, m),
		minimize: p.Minimize,
		obj:      make([]float64, nCols),
		maxIt:    pivotsPerCell * (m + 1) * (nCols + 1),
	}
	copy(t.obj, p.Objective)
	if p.Minimize {
		for j := range t.obj {
			t.obj[j] = -t.obj[j]
		}
	}

	slackCol := n
	artCol := t.artAt
	for i, c := range p.Constraints {
		row := make([]float64, nCols)
		copy(row, c.Coeffs)
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			for j := range row[:n] {
				row[j] = -row[j]
			}
			rhs = -rhs
			sense = flip(sense)
		}
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
		t.rhs[i] = rhs
	}
	return t
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// run executes phase 1 (when artificials exist) and phase 2.
func (t *tableau) run() (Solution, error) {
	if t.nArt > 0 {
		phase1 := make([]float64, t.nCols)
		for j := t.artAt; j < t.nCols; j++ {
			phase1[j] = -1 // maximize −Σ artificials
		}
		status, err := t.optimize(phase1, false)
		if err != nil {
			return Solution{}, err
		}
		if status == StatusUnbounded {
			// Phase-1 objective is bounded above by 0; this cannot
			// happen with consistent arithmetic.
			return Solution{}, errors.New("lp: phase-1 reported unbounded")
		}
		if t.phase1Value(phase1) < -1e-7 {
			return Solution{Status: StatusInfeasible, Iterations: t.iters}, nil
		}
		if err := t.driveOutArtificials(); err != nil {
			return Solution{}, err
		}
	}

	status, err := t.optimize(t.obj, true)
	if err != nil {
		return Solution{}, err
	}
	if status == StatusUnbounded {
		return Solution{Status: StatusUnbounded, Iterations: t.iters}, nil
	}

	x := make([]float64, t.nOrig)
	for i, b := range t.basis {
		if b < t.nOrig {
			x[b] = t.rhs[i]
		}
	}
	var objVal float64
	for j := 0; j < t.nOrig; j++ {
		objVal += t.obj[j] * x[j]
	}
	if t.minimize {
		objVal = -objVal
	}
	return Solution{
		Status:     StatusOptimal,
		X:          x,
		Objective:  objVal,
		Iterations: t.iters,
	}, nil
}

// phase1Value computes the current phase-1 objective Σ c_j x_j for the
// basic solution.
func (t *tableau) phase1Value(cost []float64) float64 {
	var v float64
	for i, b := range t.basis {
		v += cost[b] * t.rhs[i]
	}
	return v
}

// driveOutArtificials pivots basic artificial variables (at value 0
// after a feasible phase 1) out of the basis, or proves their rows
// redundant.
func (t *tableau) driveOutArtificials() error {
	for i := 0; i < len(t.basis); i++ {
		if t.basis[i] < t.artAt {
			continue
		}
		pivoted := false
		for j := 0; j < t.artAt; j++ {
			if math.Abs(t.rows[i][j]) > tol {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: every structural coefficient is ~0. Zero it
			// so it can never constrain a pivot.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
			t.rhs[i] = 0
			// Keep the artificial basic at 0; it is harmless because the
			// banned-column rule excludes it from entering elsewhere and
			// its row is null.
		}
	}
	return nil
}

// optimize runs primal simplex to optimality for the given maximization
// cost vector. banArtificials excludes artificial columns from entering
// the basis (used in phase 2).
func (t *tableau) optimize(cost []float64, banArtificials bool) (Status, error) {
	for {
		if t.iters >= t.maxIt {
			return 0, fmt.Errorf("lp: pivot limit %d exceeded", t.maxIt)
		}
		// Reduced costs: rc_j = cost_j − Σ_i cost_basis[i]·rows[i][j].
		entering := -1
		for j := 0; j < t.nCols; j++ {
			if banArtificials && j >= t.artAt {
				continue
			}
			if inBasis(t.basis, j) {
				continue
			}
			rc := cost[j]
			for i, b := range t.basis {
				if cb := cost[b]; cb != 0 {
					rc -= cb * t.rows[i][j]
				}
			}
			if rc > tol {
				entering = j // Bland: first improving index
				break
			}
		}
		if entering == -1 {
			return StatusOptimal, nil
		}
		// Ratio test with Bland tie-breaking on the leaving basic index.
		leaving := -1
		best := math.Inf(1)
		for i := range t.rows {
			a := t.rows[i][entering]
			if a <= tol {
				continue
			}
			ratio := t.rhs[i] / a
			if ratio < best-tol || (ratio < best+tol && (leaving == -1 || t.basis[i] < t.basis[leaving])) {
				best = ratio
				leaving = i
			}
		}
		if leaving == -1 {
			return StatusUnbounded, nil
		}
		t.pivot(leaving, entering)
		t.iters++
	}
}

// pivot makes column j basic in row i.
func (t *tableau) pivot(i, j int) {
	p := t.rows[i][j]
	inv := 1 / p
	for k := range t.rows[i] {
		t.rows[i][k] *= inv
	}
	t.rhs[i] *= inv
	t.rows[i][j] = 1 // exact
	for r := range t.rows {
		if r == i {
			continue
		}
		f := t.rows[r][j]
		if f == 0 {
			continue
		}
		for k := range t.rows[r] {
			t.rows[r][k] -= f * t.rows[i][k]
		}
		t.rows[r][j] = 0 // exact
		t.rhs[r] -= f * t.rhs[i]
		if t.rhs[r] < 0 && t.rhs[r] > -tol {
			t.rhs[r] = 0
		}
	}
	t.basis[i] = j
}

func inBasis(basis []int, j int) bool {
	for _, b := range basis {
		if b == j {
			return true
		}
	}
	return false
}
