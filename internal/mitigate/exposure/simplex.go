package exposure

import (
	"fmt"
	"math"
)

const (
	// pivotTol is the smallest magnitude treated as structurally
	// nonzero when driving artificials out of the basis.
	pivotTol = 1e-10
	// ratioTol is the smallest pivot element the ratio test accepts:
	// pivoting divides the row by it, so anything near rounding noise
	// would amplify error.
	ratioTol = 1e-8
	// optTol is the optimality / feasibility tolerance: a reduced cost
	// above -optTol counts as non-negative, a residual below optTol as
	// zero.
	optTol = 1e-9
)

// tableau is a dense two-phase primal simplex tableau for
// maximize c·x subject to A·x = b, x ≥ 0. Column 0 holds the
// right-hand side, columns 1..m the artificials and the structural
// columns follow, so a column can be appended to a solved tableau and
// the solve resumed from the optimal basis (column generation).
//
// Rows are equilibrated to max |entry| = 1 when built, so that one
// absolute pivot threshold is meaningful; this scales row i's dual by
// scale[i], which solution undoes. Pivoting is deterministic:
// Dantzig's rule with lowest-index ties, then Bland's cycle-free
// least-index rule once the iteration count suggests degeneracy.
type tableau struct {
	rows  [][]float64
	obj   []float64 // reduced costs z_j − c_j; obj[0] is the objective
	basis []int     // basic column of each row
	scale []float64 // row equilibration factors
	m     int       // rows as built (dropped redundant rows included)
	cost  []float64 // structural costs
}

// newTableau builds the tableau of A·x = b with the artificial basis.
// A is row-major (len(b) rows of len(c) entries); b may be negative.
func newTableau(c []float64, a [][]float64, b []float64) (*tableau, error) {
	m, n := len(b), len(c)
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("exposure: simplex: empty program (%d rows, %d cols)", m, n)
	}
	t := &tableau{rows: make([][]float64, m), basis: make([]int, m), scale: make([]float64, m), m: m,
		cost: append([]float64(nil), c...)}
	for i := range t.rows {
		if len(a[i]) != n {
			return nil, fmt.Errorf("exposure: simplex: row %d has %d entries for %d columns", i, len(a[i]), n)
		}
		s := math.Abs(b[i])
		for _, v := range a[i] {
			s = math.Max(s, math.Abs(v))
		}
		if s == 0 {
			s = 1 // all-zero row: keep it, phase 1 will drop it
		}
		t.scale[i] = 1 / s
		if b[i] < 0 {
			t.scale[i] = -t.scale[i]
		}
		row := make([]float64, 1+m+n)
		row[0] = t.scale[i] * b[i]
		row[1+i] = 1
		for j, v := range a[i] {
			row[1+m+j] = t.scale[i] * v
		}
		t.rows[i] = row
		t.basis[i] = 1 + i
	}
	t.obj = make([]float64, 1+m+n)
	return t, nil
}

// solve runs both phases from the artificial basis.
func (t *tableau) solve() error {
	// Phase 1: maximize −Σ artificials. With every artificial basic at
	// cost −1 the reduced cost of column j is −Σ_i rows[i][j].
	for _, row := range t.rows {
		for j, v := range row {
			if j == 0 || j > t.m {
				t.obj[j] -= v
			}
		}
	}
	if err := t.iterate(); err != nil {
		return fmt.Errorf("exposure: simplex phase 1: %w", err)
	}
	if infeas := -t.obj[0]; infeas > 1e-7 {
		return fmt.Errorf("exposure: simplex: program infeasible (phase-1 residual %g)", infeas)
	}
	// Drive zero-level artificials out of the basis; rows where no
	// structural pivot exists are redundant constraints and drop.
	for i := range t.rows {
		if t.basis[i] > t.m {
			continue
		}
		for j := t.m + 1; j < len(t.obj); j++ {
			if math.Abs(t.rows[i][j]) > pivotTol {
				t.pivot(i, j)
				break
			}
		}
	}
	keep := 0
	for i := range t.rows {
		if t.basis[i] > t.m {
			t.rows[keep], t.basis[keep] = t.rows[i], t.basis[i]
			keep++
		}
	}
	t.rows, t.basis = t.rows[:keep], t.basis[:keep]
	// Phase 2: rebuild the reduced-cost row for the real objective
	// (the basis is now purely structural) and optimize.
	clear(t.obj)
	for j, cj := range t.cost {
		t.obj[1+t.m+j] = -cj
	}
	for i, row := range t.rows {
		if cb := t.cost[t.basis[i]-1-t.m]; cb != 0 {
			for j, v := range row {
				t.obj[j] += cb * v
			}
		}
	}
	if err := t.iterate(); err != nil {
		return fmt.Errorf("exposure: simplex phase 2: %w", err)
	}
	return nil
}

// addColumn appends a structural column with cost cj and constraint
// coefficients aj to a solved tableau. The artificial block holds
// B⁻¹ of the scaled rows, so the column enters already expressed in
// the current basis; resume with iterate.
func (t *tableau) addColumn(cj float64, aj []float64) {
	for i, row := range t.rows {
		v := 0.0
		for k, ak := range aj {
			v += row[1+k] * t.scale[k] * ak
		}
		t.rows[i] = append(row, v)
	}
	rc := -cj
	for k, ak := range aj {
		rc += t.obj[1+k] * t.scale[k] * ak
	}
	t.obj = append(t.obj, rc)
	t.cost = append(t.cost, cj)
}

// solution returns the structural x, the objective value and the row
// duals y: at the optimum every column satisfies c_j − y·A_j ≤ 0 (to
// tolerance). The phase-2 reduced cost of artificial column i is the
// dual of scaled row i; a dropped redundant row keeps an all-zero
// artificial column and so a zero dual.
func (t *tableau) solution() ([]float64, float64, []float64) {
	x := make([]float64, len(t.cost))
	for i, bj := range t.basis {
		x[bj-1-t.m] = math.Max(t.rows[i][0], 0) // clamp rounding dust
	}
	val := 0.0
	for j, cj := range t.cost {
		val += cj * x[j]
	}
	y := make([]float64, t.m)
	for i := range y {
		y[i] = t.obj[1+i] * t.scale[i]
	}
	return x, val, y
}

// simplexSolve maximizes c·x subject to A·x = b, x ≥ 0 and returns the
// optimal x, the objective value and the row duals (see solution).
func simplexSolve(c []float64, a [][]float64, b []float64) ([]float64, float64, []float64, error) {
	t, err := newTableau(c, a, b)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := t.solve(); err != nil {
		return nil, 0, nil, err
	}
	x, val, y := t.solution()
	return x, val, y, nil
}

// iterate runs primal simplex pivots until the reduced-cost row is
// non-negative. Only structural columns may enter.
func (t *tableau) iterate() error {
	m, n := len(t.rows), len(t.cost)
	maxIter := 200*(m+n) + 2000
	blandAfter := 20*(m+n) + 200
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return fmt.Errorf("iteration limit %d exceeded", maxIter)
		}
		bland := iter > blandAfter
		enter := -1
		best := -optTol
		for j := t.m + 1; j < len(t.obj); j++ {
			if t.obj[j] < best {
				best, enter = t.obj[j], j
				if bland {
					break
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Leaving row: Harris's two-pass ratio test. The first pass finds
		// the smallest step with every right-hand side relaxed by optTol;
		// the second picks, among rows that block within it, the largest
		// pivot (under Bland the smallest basis label, which keeps the
		// fallback cycle-free). On degenerate programs this keeps pivots
		// well away from rounding noise.
		limit := math.Inf(1)
		for _, row := range t.rows {
			if piv := row[enter]; piv > ratioTol {
				limit = math.Min(limit, (math.Max(row[0], 0)+optTol)/piv)
			}
		}
		leave := -1
		for i, row := range t.rows {
			piv := row[enter]
			if piv <= ratioTol || math.Max(row[0], 0)/piv > limit {
				continue
			}
			if leave < 0 || (bland && t.basis[i] < t.basis[leave]) || (!bland && piv > t.rows[leave][enter]) {
				leave = i
			}
		}
		if leave < 0 {
			return fmt.Errorf("unbounded direction entering column %d", enter-1-t.m)
		}
		t.pivot(leave, enter)
	}
}

// pivot performs one tableau pivot at (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	eliminate := func(r []float64) {
		f := r[col]
		if f == 0 {
			return
		}
		for j, v := range pr {
			r[j] -= f * v
		}
		r[col] = 0 // exact
	}
	for i, r := range t.rows {
		if i != row {
			eliminate(r)
		}
	}
	eliminate(t.obj)
	t.basis[row] = col
}
