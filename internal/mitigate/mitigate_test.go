package mitigate

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// twoGroups builds a population of n rows where rows [0, nA) form
// group A with scores descending from 1, and rows [nA, n) form group B
// with strictly lower scores — the worst case for group B's
// representation.
func twoGroups(nA, nB int) Input {
	n := nA + nB
	scores := make([]float64, n)
	groupA := make([]int, 0, nA)
	groupB := make([]int, 0, nB)
	for r := 0; r < n; r++ {
		scores[r] = 1 - float64(r)/float64(2*n)
		if r < nA {
			groupA = append(groupA, r)
		} else {
			groupB = append(groupB, r)
		}
	}
	return Input{Scores: scores, Groups: [][]int{groupA, groupB}, K: 10}
}

// checkPermutation fails unless ranking is a permutation of 0..n-1.
func checkPermutation(t *testing.T, ranking []int, n int) {
	t.Helper()
	if len(ranking) != n {
		t.Fatalf("ranking has %d entries, want %d", len(ranking), n)
	}
	seen := make([]bool, n)
	for _, r := range ranking {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("ranking %v is not a permutation of 0..%d", ranking, n-1)
		}
		seen[r] = true
	}
}

func TestByName(t *testing.T) {
	for _, name := range Strategies() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := ByName(""); err != nil || m.Name() != "fair" {
		t.Errorf("ByName(\"\") = %v, %v; want fair", m, err)
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	for _, name := range Strategies() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid strategy %q", err, name)
		}
	}
}

func TestBinomMinTable(t *testing.T) {
	table := binomMinTable(50, 0.5, 0.1)
	if table[0] != 0 {
		t.Errorf("m(0) = %d, want 0", table[0])
	}
	for tp := 1; tp <= 50; tp++ {
		m := table[tp]
		if m < table[tp-1] {
			t.Fatalf("table not monotone at %d: %v", tp, table)
		}
		// Defining property: m is the smallest count with CDF > alpha.
		if m > 0 && binomCDF(m-1, tp, 0.5) > 0.1 {
			t.Errorf("m(%d)=%d not minimal", tp, m)
		}
		if binomCDF(m, tp, 0.5) <= 0.1 {
			t.Errorf("m(%d)=%d fails the test", tp, m)
		}
	}
	// FA*IR's published example shape: p=0.5, alpha=0.1 requires 1 of
	// the first 4 and 2 of the first 7.
	if table[4] != 1 || table[7] != 2 {
		t.Errorf("m(4)=%d m(7)=%d, want 1 and 2", table[4], table[7])
	}
	// Degenerate proportions.
	if got := binomMinTable(5, 0, 0.1); got[5] != 0 {
		t.Errorf("p=0 table = %v, want zeros", got)
	}
	if got := binomMinTable(5, 1, 0.1); got[5] != 5 {
		t.Errorf("p=1 table = %v, want identity", got)
	}
}

func TestBinomCDFAgainstClosedForm(t *testing.T) {
	// t=4, p=0.3: pmf = .2401, .4116, .2646, .0756, .0081.
	want := []float64{0.2401, 0.6517, 0.9163, 0.9919, 1}
	for m, w := range want {
		if got := binomCDF(m, 4, 0.3); math.Abs(got-w) > 1e-9 {
			t.Errorf("CDF(%d;4,0.3) = %.6f, want %.6f", m, got, w)
		}
	}
	// Large t stays finite in log space.
	if got := binomCDF(100, 5000, 0.05); got <= 0 || got > 1 {
		t.Errorf("CDF(100;5000,0.05) = %g out of range", got)
	}
}

func TestFAIRPromotesProtectedGroup(t *testing.T) {
	// Group B (40% of the population) holds none of the top 10 by
	// score; with alpha well above the Bonferroni-adjusted default the
	// minimum tables force B members into the prefix.
	in := twoGroups(30, 20)
	in.Alpha = 0.5
	ranking, err := FAIR{}.Rerank(in)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, ranking, 50)
	table := binomMinTable(in.K, 0.4, 0.5/(float64(in.K)*2))
	countB := 0
	for tp := 1; tp <= in.K; tp++ {
		if ranking[tp-1] >= 30 {
			countB++
		}
		if countB < table[tp] {
			t.Fatalf("prefix %d holds %d of group B, table requires %d", tp, countB, table[tp])
		}
	}
	if countB == 0 {
		t.Fatal("FA*IR left the protected group out of the top-k entirely")
	}
	// Within the constraints the ranking is utility-greedy: group A
	// members appear in score order.
	last := -1
	for _, r := range ranking {
		if r < 30 {
			if r < last {
				t.Fatalf("group A out of score order: %v", ranking)
			}
			last = r
		}
	}
}

func TestFAIRUnconstrainedIsScoreOrder(t *testing.T) {
	// Balanced representation: tables never bind and the ranking is
	// pure score order.
	n := 40
	scores := make([]float64, n)
	var a, b []int
	for r := 0; r < n; r++ {
		scores[r] = 1 - float64(r)/float64(n)
		if r%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	ranking, err := FAIR{}.Rerank(Input{Scores: scores, Groups: [][]int{a, b}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranking {
		if r != i {
			t.Fatalf("position %d holds row %d, want score order", i+1, r)
		}
	}
}

func TestInterleaveFloors(t *testing.T) {
	for _, constrained := range []bool{false, true} {
		in := twoGroups(30, 20)
		in.Targets = []float64{0.5, 0.5}
		m := Interleave{Constrained: constrained}
		ranking, err := m.Rerank(in)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		checkPermutation(t, ranking, 50)
		counts := [2]int{}
		for tp := 1; tp <= in.K; tp++ {
			g := 0
			if ranking[tp-1] >= 30 {
				g = 1
			}
			counts[g]++
			for i, c := range counts {
				if min := int(math.Floor(0.5 * float64(tp))); c < min {
					t.Fatalf("%s: prefix %d holds %d of group %d, floor is %d", m.Name(), tp, c, i, min)
				}
			}
		}
	}
}

func TestInterleaveThreeGroupCollision(t *testing.T) {
	// Three equal targets make every floor step up at the same
	// prefixes (t = 3, 6, 9, ...) — the known infeasibility of the
	// textbook reactive DetGreedy. The lazy-EDF merge must still
	// satisfy all floors.
	n := 30
	scores := make([]float64, n)
	groups := make([][]int, 3)
	for r := 0; r < n; r++ {
		scores[r] = 1 - float64(r)/float64(n)
		g := 0
		switch {
		case r >= 20:
			g = 2
		case r >= 10:
			g = 1
		}
		groups[g] = append(groups[g], r)
	}
	for _, name := range []string{"detgreedy", "detcons"} {
		m, _ := ByName(name)
		ranking, err := m.Rerank(Input{
			Scores:  scores,
			Groups:  groups,
			K:       12,
			Targets: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPermutation(t, ranking, n)
		counts := [3]int{}
		for tp := 1; tp <= 12; tp++ {
			counts[ranking[tp-1]/10]++
			for g, c := range counts {
				if min := tp / 3; c < min {
					t.Fatalf("%s: prefix %d holds %d of group %d, floor is %d", name, tp, c, g, min)
				}
			}
		}
	}
}

func TestInfeasibleTargetsTyped(t *testing.T) {
	in := twoGroups(48, 2) // group B has 2 members
	in.Targets = []float64{0.2, 0.8}
	for _, name := range []string{"fair", "detgreedy", "detcons"} {
		m, _ := ByName(name)
		in := in
		if name == "fair" {
			in.Alpha = 0.5 // make the tables demand more than 2 members
		}
		_, err := m.Rerank(in)
		if err == nil {
			t.Fatalf("%s: impossible target succeeded", name)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: error %v is not ErrInfeasible", name, err)
		}
		var ie *InfeasibleError
		if !errors.As(err, &ie) || ie.Group != 1 {
			t.Fatalf("%s: error %v does not name group 1", name, err)
		}
	}
}

func TestInputValidation(t *testing.T) {
	cases := map[string]func(Input) Input{
		"no scores":     func(in Input) Input { in.Scores = nil; return in },
		"no groups":     func(in Input) Input { in.Groups = nil; return in },
		"k too small":   func(in Input) Input { in.K = 0; return in },
		"k too large":   func(in Input) Input { in.K = 11; return in },
		"empty group":   func(in Input) Input { in.Groups = [][]int{in.Groups[0], nil}; return in },
		"row repeated":  func(in Input) Input { in.Groups[1][0] = in.Groups[0][0]; return in },
		"row missing":   func(in Input) Input { in.Groups[1] = in.Groups[1][:4]; return in },
		"target count":  func(in Input) Input { in.Targets = []float64{1}; return in },
		"target range":  func(in Input) Input { in.Targets = []float64{-0.1, 0.5}; return in },
		"targets sum":   func(in Input) Input { in.Targets = []float64{0.7, 0.7}; return in },
		"alpha range":   func(in Input) Input { in.Alpha = 1.5; return in },
		"row of bounds": func(in Input) Input { in.Groups[1][0] = 99; return in },
	}
	for name, mutate := range cases {
		in := twoGroups(5, 5)
		if _, err := (FAIR{}).Rerank(mutate(in)); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestExposureCapImprovesRatio(t *testing.T) {
	in := twoGroups(30, 20)
	ranking, err := ExposureCap{}.Rerank(in)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, ranking, 50)
	ratio := func(order []int) float64 {
		expo := [2]float64{}
		for pos, r := range order {
			g := 0
			if r >= 30 {
				g = 1
			}
			expo[g] += 1 / math.Log2(2+float64(pos))
		}
		a, b := expo[0]/30, expo[1]/20
		return math.Min(a, b) / math.Max(a, b)
	}
	baseline := make([]int, 50)
	for i := range baseline {
		baseline[i] = i // score order
	}
	if before, after := ratio(baseline), ratio(ranking); after <= before {
		t.Fatalf("exposure ratio %f did not improve on %f", after, before)
	}
}

func TestExposureCapRatioFloor(t *testing.T) {
	in := twoGroups(25, 25)
	ranking, err := ExposureCap{MinRatio: 0.99}.Rerank(in)
	if err != nil {
		t.Fatal(err)
	}
	expo := [2]float64{}
	for pos, r := range ranking {
		g := 0
		if r >= 25 {
			g = 1
		}
		expo[g] += 1 / math.Log2(2+float64(pos))
	}
	a, b := expo[0]/25, expo[1]/25
	if got := math.Min(a, b) / math.Max(a, b); got < 0.95 {
		t.Fatalf("equal-sized groups under a 0.99 floor ended at ratio %f", got)
	}
	if _, err := (ExposureCap{MinRatio: 1.5}).Rerank(in); err == nil {
		t.Fatal("ratio floor above 1 accepted")
	}
}
