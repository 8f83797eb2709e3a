package exposure

import (
	"fmt"
	"math"
	"testing"
)

type fixture struct {
	scores []float64
	groups [][]int
}

// fixtures returns deterministic (scores, groups) populations of
// several sizes and group shapes.
func fixtures() map[string]fixture {
	out := make(map[string]fixture)
	add := func(name string, n, g int) {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64((i*i+13)%97) / 97
		}
		groups := make([][]int, g)
		for r := 0; r < n; r++ {
			groups[(r*r+r/3)%g] = append(groups[(r*r+r/3)%g], r)
		}
		for i := range groups {
			if len(groups[i]) == 0 {
				return
			}
		}
		out[name] = fixture{scores, groups}
	}
	add("tiny-2", 8, 2)
	add("exact-3", 40, 3)
	add("exact-cap", 64, 2)
	add("n150-2", 150, 2)
	add("n150-9", 150, 9)
	add("n400-5", 400, 5)
	return out
}

var floors = []float64{0.5, 0.9, 0.95, 1}

// rankingStats recomputes a ranking's utility and per-group mean
// position discount independently of the solver.
func rankingStats(f fixture, ranking []int) (float64, []float64) {
	groupOf := make([]int, len(f.scores))
	for g, rows := range f.groups {
		for _, r := range rows {
			groupOf[r] = g
		}
	}
	utility := 0.0
	expo := make([]float64, len(f.groups))
	for pos, row := range ranking {
		utility += f.scores[row] * PositionBias(pos+1)
		expo[groupOf[row]] += PositionBias(pos + 1)
	}
	for g := range expo {
		expo[g] /= float64(len(f.groups[g]))
	}
	return utility, expo
}

// worstRatio is the smallest pairwise ratio min/max over exposures.
func worstRatio(expo []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, e := range expo {
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	return lo / hi
}

// checkSolution asserts the solver's invariants against the rankings
// themselves: every support ranking is a permutation, the weights are
// positive and sum to 1, the floor holds on the mixture of the
// rankings, and GroupExposure and Utility are that mixture's.
func checkSolution(t *testing.T, name string, f fixture, minRatio float64, sol *Solution) {
	t.Helper()
	n := len(f.scores)
	if len(sol.Support) == 0 || len(sol.Support) > 2*len(f.groups)+2 {
		t.Fatalf("%s R=%g: support of %d rankings, want 1..%d", name, minRatio, len(sol.Support), 2*len(f.groups)+2)
	}
	total, utility := 0.0, 0.0
	expo := make([]float64, len(f.groups))
	for k, comp := range sol.Support {
		seen := make([]bool, n)
		for _, r := range comp.Ranking {
			if r < 0 || r >= n || seen[r] {
				t.Fatalf("%s R=%g: support ranking %d is not a permutation", name, minRatio, k)
			}
			seen[r] = true
		}
		if len(comp.Ranking) != n {
			t.Fatalf("%s R=%g: support ranking %d has %d of %d rows", name, minRatio, k, len(comp.Ranking), n)
		}
		if comp.Weight <= 0 {
			t.Fatalf("%s R=%g: non-positive weight %g", name, minRatio, comp.Weight)
		}
		total += comp.Weight
		u, e := rankingStats(f, comp.Ranking)
		utility += comp.Weight * u
		for g := range expo {
			expo[g] += comp.Weight * e[g]
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("%s R=%g: weights sum to %.15f", name, minRatio, total)
	}
	if r := worstRatio(expo); r < minRatio-1e-9 {
		t.Fatalf("%s R=%g: mixture ratio %.12f below the floor", name, minRatio, r)
	}
	if r := sol.ExposureRatio(); r < minRatio-1e-9 {
		t.Fatalf("%s R=%g: reported ratio %.12f below the floor", name, minRatio, r)
	}
	if math.Abs(utility-sol.Utility) > 1e-9 {
		t.Fatalf("%s R=%g: mixture utility %.12f, reported %.12f", name, minRatio, utility, sol.Utility)
	}
	for g := range expo {
		if math.Abs(expo[g]-sol.GroupExposure[g]) > 1e-12 {
			t.Fatalf("%s R=%g: group %d mixture exposure %g, reported %g", name, minRatio, g, expo[g], sol.GroupExposure[g])
		}
	}
}

// TestSolveMeetsFloor is the LP acceptance property: on every fixture
// and floor the solution's invariants hold, checked from its rankings.
func TestSolveMeetsFloor(t *testing.T) {
	for name, f := range fixtures() {
		for _, minRatio := range floors {
			sol, err := Solve(f.scores, f.groups, minRatio, Config{})
			if err != nil {
				t.Fatalf("%s R=%g: %v", name, minRatio, err)
			}
			checkSolution(t, name, f, minRatio, sol)
		}
	}
}

// denseOptimum holds the optimal utilities of the item×position LP
// (n² variables, solved by the dense simplex) on three fixtures at
// floors 0.5, 0.9, 0.95 and 1. The column-generation master has the
// same optimum: the Birkhoff polytope is the convex hull of the
// permutation matrices.
var denseOptimum = map[string][4]float64{
	"tiny-2":    {1.5230842485980134, 1.5038460681773644, 1.4970093486949063, 1.4905999241801007},
	"exact-3":   {5.9309191796575691, 5.9172664215072475, 5.9033142342199563, 5.8901902177960785},
	"exact-cap": {8.4069084048135938, 8.4069084048136151, 8.4069084048135796, 8.406571555270423},
}

func TestSolveMatchesDenseOptimum(t *testing.T) {
	fx := fixtures()
	for name, want := range denseOptimum {
		f := fx[name]
		for i, minRatio := range floors {
			sol, err := Solve(f.scores, f.groups, minRatio, Config{})
			if err != nil {
				t.Fatalf("%s R=%g: %v", name, minRatio, err)
			}
			if math.Abs(sol.Utility-want[i]) > 1e-9 {
				t.Errorf("%s R=%g: utility %.15f, dense LP optimum %.15f", name, minRatio, sol.Utility, want[i])
			}
		}
	}
}

// permutations returns all n! orderings of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// bruteForceUtility solves the master LP with every permutation as a
// column: maximize Σ w_π U(π) s.t. L ≤ E_g ≤ U, L ≥ R·U, Σ w = 1.
func bruteForceUtility(t *testing.T, f fixture, minRatio float64) float64 {
	t.Helper()
	perms := permutations(len(f.scores))
	G := len(f.groups)
	K := len(perms)
	nVars := K + 2 + 2*G + 1
	c := make([]float64, nVars)
	A := make([][]float64, 2*G+2)
	for i := range A {
		A[i] = make([]float64, nVars)
	}
	b := make([]float64, 2*G+2)
	for k, p := range perms {
		u, e := rankingStats(f, p)
		c[k] = u
		for g := range e {
			A[2*g][k], A[2*g+1][k] = e[g], e[g]
		}
		A[2*G+1][k] = 1
	}
	for g := 0; g < G; g++ {
		A[2*g][K], A[2*g][K+2+g] = -1, -1
		A[2*g+1][K+1], A[2*g+1][K+2+G+g] = -1, 1
	}
	A[2*G][K], A[2*G][K+1], A[2*G][nVars-1] = 1, -minRatio, -1
	b[2*G+1] = 1
	_, val, _, err := simplexSolve(c, A, b)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// TestSolveMatchesBruteForce is the independent oracle: on small
// populations the column-generated optimum equals the optimum of the
// master LP over all n! rankings.
func TestSolveMatchesBruteForce(t *testing.T) {
	cases := map[string]fixture{
		"one group":    {[]float64{0.9, 0.1, 0.5, 0.7, 0.3}, [][]int{{0, 1, 2, 3, 4}}},
		"two groups":   {[]float64{0.9, 0.8, 0.7, 0.2, 0.1, 0.05}, [][]int{{0, 1, 2}, {3, 4, 5}}},
		"three groups": {[]float64{3, 1, 4, 1.5, 9, 2.6, 5}, [][]int{{0, 3}, {1, 4, 6}, {2, 5}}},
		"tied scores":  {[]float64{1, 1, 1, 0.5, 0.5, 0.5}, [][]int{{0, 3, 4}, {1, 2, 5}}},
		"negative":     {[]float64{-0.2, 1.5, -3, 0.4, -1, 2}, [][]int{{0, 2, 4}, {1, 3}, {5}}},
		"all equal":    {[]float64{2, 2, 2, 2}, [][]int{{0}, {1, 2, 3}}},
		"uneven":       {[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}, [][]int{{5, 6}, {0, 1, 2, 3, 4}}},
	}
	for name, f := range cases {
		for _, minRatio := range floors {
			sol, err := Solve(f.scores, f.groups, minRatio, Config{})
			if err != nil {
				t.Fatalf("%s R=%g: %v", name, minRatio, err)
			}
			checkSolution(t, name, f, minRatio, sol)
			if want := bruteForceUtility(t, f, minRatio); math.Abs(sol.Utility-want) > 1e-9 {
				t.Errorf("%s R=%g: utility %.15f, brute force %.15f", name, minRatio, sol.Utility, want)
			}
		}
	}
}

// TestSolveUtilityOrdersFloors confirms the economics: loosening the
// floor can only increase the optimal expected utility.
func TestSolveUtilityOrdersFloors(t *testing.T) {
	f := fixtures()["exact-3"]
	prev := math.Inf(-1)
	for _, minRatio := range []float64{1, 0.9, 0.5} {
		sol, err := Solve(f.scores, f.groups, minRatio, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Utility < prev-1e-9 {
			t.Fatalf("utility %g at floor %g below %g at a tighter floor", sol.Utility, minRatio, prev)
		}
		prev = sol.Utility
	}
}

// TestDecomposeDeterministic reruns Solve+Decompose on every fixture
// and expects bit-identical components.
func TestDecomposeDeterministic(t *testing.T) {
	for name, f := range fixtures() {
		var first string
		for trial := 0; trial < 3; trial++ {
			sol, err := Solve(f.scores, f.groups, 0.95, Config{})
			if err != nil {
				t.Fatal(err)
			}
			comps, err := sol.Decompose()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x %x %v", sol.Utility, sol.GroupExposure, comps)
			for _, c := range comps {
				got += fmt.Sprintf(" %x", c.Weight)
			}
			if trial == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: run %d differs from run 0", name, trial)
			}
		}
	}
}

// TestDecomposeReconstructs: Decompose hands back the solution's own
// support, and its weighted rankings reconstruct the reported expected
// exposures and utility.
func TestDecomposeReconstructs(t *testing.T) {
	f := fixtures()["exact-3"]
	sol, err := Solve(f.scores, f.groups, 0.95, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := sol.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(sol.Support) || &comps[0] != &sol.Support[0] {
		t.Fatal("Decompose does not return the solution's support")
	}
	checkSolution(t, "exact-3", f, 0.95, sol)
}

// TestExpectedExposureIsMixture: the expected exposure the solution
// reports equals the weight-averaged exposure of its rankings — the
// guarantee the Distribution reports — and sits strictly between the
// score-sorted ranking's extremes when the floor binds.
func TestExpectedExposureIsMixture(t *testing.T) {
	f := fixtures()["exact-3"]
	sol, err := Solve(f.scores, f.groups, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mix := make([]float64, len(f.groups))
	for _, comp := range sol.Support {
		_, e := rankingStats(f, comp.Ranking)
		for g := range mix {
			mix[g] += comp.Weight * e[g]
		}
	}
	for g := range mix {
		if math.Abs(mix[g]-sol.GroupExposure[g]) > 1e-12 {
			t.Fatalf("group %d: mixture exposure %g vs reported %g", g, mix[g], sol.GroupExposure[g])
		}
		if math.Abs(mix[g]-mix[0]) > 1e-9 {
			t.Fatalf("floor 1: group %d exposure %g differs from group 0's %g", g, mix[g], mix[0])
		}
	}
	if len(sol.Support) < 2 {
		t.Fatalf("floor 1 on an unequal population needs a mixture; got %d ranking", len(sol.Support))
	}
}

// TestSolveLargePopulation checks the invariants at a size the dense
// item×position LP could not reach.
func TestSolveLargePopulation(t *testing.T) {
	n := 5000
	f := fixture{scores: make([]float64, n), groups: make([][]int, 3)}
	for i := range f.scores {
		f.scores[i] = float64((i*7919)%1000) / 1000
		f.groups[(i/7)%3] = append(f.groups[(i/7)%3], i)
	}
	sol, err := Solve(f.scores, f.groups, 0.95, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, "n=5000", f, 0.95, sol)
}

func TestSolveConfigErrors(t *testing.T) {
	scores := []float64{3, 2, 1, 0}
	groups := [][]int{{0, 1}, {2, 3}}
	cases := map[string]func() ([]float64, [][]int, float64){
		"no scores":    func() ([]float64, [][]int, float64) { return nil, groups, 0.9 },
		"no groups":    func() ([]float64, [][]int, float64) { return scores, nil, 0.9 },
		"zero ratio":   func() ([]float64, [][]int, float64) { return scores, groups, 0 },
		"ratio above":  func() ([]float64, [][]int, float64) { return scores, groups, 1.5 },
		"empty group":  func() ([]float64, [][]int, float64) { return scores, [][]int{{0, 1, 2, 3}, {}}, 0.9 },
		"row range":    func() ([]float64, [][]int, float64) { return scores, [][]int{{0, 1}, {2, 9}}, 0.9 },
		"row overlap":  func() ([]float64, [][]int, float64) { return scores, [][]int{{0, 1, 2}, {2, 3}}, 0.9 },
		"partial rows": func() ([]float64, [][]int, float64) { return scores, [][]int{{0, 1}, {2}}, 0.9 },
	}
	for name, mk := range cases {
		s, g, r := mk()
		if _, err := Solve(s, g, r, Config{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPositionBias(t *testing.T) {
	if b := PositionBias(1); math.Abs(b-1) > 1e-12 {
		t.Fatalf("rank 1 bias %g, want 1", b)
	}
	if b := PositionBias(3); math.Abs(b-1/math.Log2(4)) > 1e-12 {
		t.Fatalf("rank 3 bias %g", b)
	}
	for r := 1; r < 100; r++ {
		if PositionBias(r) <= PositionBias(r+1) {
			t.Fatal("position bias must strictly decrease")
		}
	}
}
