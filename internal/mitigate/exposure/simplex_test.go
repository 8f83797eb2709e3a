package exposure

import (
	"math"
	"testing"
)

// knownOptimum is maximize 3x + 2y s.t. x + y + s1 = 4,
// x + 3y + s2 = 6; optimum at (4, 0): value 12.
func knownOptimum() ([]float64, [][]float64, []float64) {
	return []float64{3, 2, 0, 0}, [][]float64{{1, 1, 1, 0}, {1, 3, 0, 1}}, []float64{4, 6}
}

func TestSimplexKnownOptimum(t *testing.T) {
	c, a, b := knownOptimum()
	x, val, _, err := simplexSolve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-12) > 1e-9 {
		t.Fatalf("optimum %g, want 12", val)
	}
	if math.Abs(x[0]-4) > 1e-9 || math.Abs(x[1]) > 1e-9 {
		t.Fatalf("solution %v, want (4, 0, ...)", x)
	}
}

// TestSimplexDuals: the first row binds at x = 4 and prices it at 3
// (the objective gains 3 per unit of its right-hand side); the second
// row has slack, so its dual is 0. The first row is equilibrated by
// 1/4 internally, which the returned duals must undo.
func TestSimplexDuals(t *testing.T) {
	c, a, b := knownOptimum()
	_, _, y, err := simplexSolve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 2 || math.Abs(y[0]-3) > 1e-9 || math.Abs(y[1]) > 1e-9 {
		t.Fatalf("duals %v, want (3, 0)", y)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// -x - y = -3 normalizes to x + y = 3; maximize x gives 3.
	c := []float64{1, 0}
	a := [][]float64{{-1, -1}}
	b := []float64{-3}
	x, val, _, err := simplexSolve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-3) > 1e-9 || math.Abs(x[0]-3) > 1e-9 {
		t.Fatalf("got x=%v val=%g, want x0=3 val=3", x, val)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x + y = 1 and x + y = 3 cannot both hold.
	c := []float64{1, 1}
	a := [][]float64{
		{1, 1},
		{1, 1},
	}
	b := []float64{1, 3}
	if _, _, _, err := simplexSolve(c, a, b); err == nil {
		t.Fatal("infeasible program solved")
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// maximize x with only y pinned leaves x free to grow: x - y = 0.
	c := []float64{1, 0}
	a := [][]float64{{1, -1}}
	b := []float64{0}
	if _, _, _, err := simplexSolve(c, a, b); err == nil {
		t.Fatal("unbounded program solved")
	}
}

func TestSimplexRedundantRows(t *testing.T) {
	// The duplicated constraint leaves a zero-level artificial that must
	// be driven out or dropped, not reported as infeasible.
	c := []float64{1, 2}
	a := [][]float64{
		{1, 1},
		{1, 1},
		{2, 2},
	}
	b := []float64{2, 2, 4}
	x, val, _, err := simplexSolve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-4) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("got x=%v val=%g, want y=2 val=4", x, val)
	}
}

func TestSimplexEmptyProgram(t *testing.T) {
	if _, _, _, err := simplexSolve(nil, nil, nil); err == nil {
		t.Fatal("empty program solved")
	}
	if _, _, _, err := simplexSolve([]float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSimplexDegenerateTransportation(t *testing.T) {
	// A 3x3 transportation polytope with unit margins (an assignment
	// problem) is maximally degenerate; the pivot rules must still
	// terminate at the assignment optimum: utilities u=(3,2,1) on
	// discounts v=(1,0.6,0.5) give 3·1+2·0.6+1·0.5 = 4.7.
	u := []float64{3, 2, 1}
	v := []float64{1, 0.6, 0.5}
	n := 3
	c := make([]float64, n*n)
	a := make([][]float64, 2*n)
	b := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = u[i] * v[j]
		}
	}
	for i := 0; i < 2*n; i++ {
		a[i] = make([]float64, n*n)
		b[i] = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][i*n+j] = 1
			a[n+j][i*n+j] = 1
		}
	}
	x, val, _, err := simplexSolve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-4.7) > 1e-9 {
		t.Fatalf("optimum %g, want 4.7", val)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x[i*n+i]-1) > 1e-9 {
			t.Fatalf("x[%d,%d] = %g, want identity assignment", i, i, x[i*n+i])
		}
	}
}
