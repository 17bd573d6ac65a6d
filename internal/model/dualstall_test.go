package model

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/sdr"
)

// TestWarmChildSolvesQuickly branches SDR2's root relaxation on its most
// fractional variable, as branch-and-bound does, and warm-starts both
// children from the root basis. The dual simplex must settle each child
// in a bounded number of pivots and agree with a cold solve of the same
// bounds: a dual run that stalls at a fixed objective here leaves the
// MILP engines exploring a handful of nodes at any budget.
func TestWarmChildSolvesQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("solves SDR2's root relaxation")
	}
	c, err := Build(sdr.SDR2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Branch-and-bound solves every node on the presolved model.
	m, infeasible := lp.Presolve(c.LP, true)
	if infeasible {
		t.Fatal("presolve reports SDR2 infeasible")
	}
	root := lp.Solve(m, lp.Options{ReturnBasis: true})
	if root.Status != lp.StatusOptimal || root.Basis == nil {
		t.Fatalf("root: %v", root.Status)
	}
	branch, worst := lp.VarID(-1), 1e-6
	for _, v := range m.IntegerVariables() {
		if f := math.Abs(root.X[v] - math.Round(root.X[v])); f > worst {
			branch, worst = v, f
		}
	}
	if branch < 0 {
		t.Fatal("root relaxation is integral; nothing to branch on")
	}
	n := m.NumVariables()
	nan := func() []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.NaN()
		}
		return b
	}
	floor := math.Floor(root.X[branch])
	downHi, upLo := nan(), nan()
	downHi[branch] = floor
	upLo[branch] = floor + 1
	children := []struct {
		name   string
		lo, hi []float64
	}{
		{"down", nil, downHi},
		{"up", upLo, nil},
	}
	optimal := 0
	for _, ch := range children {
		deadline := time.Now().Add(10 * time.Second)
		warm := lp.SolveWithBounds(m, lp.Options{WarmBasis: root.Basis, Deadline: deadline}, ch.lo, ch.hi)
		cold := lp.SolveWithBounds(m, lp.Options{}, ch.lo, ch.hi)
		t.Logf("%s child (%s): warm %v in %d pivots, obj %.4f; cold %v in %d pivots, obj %.4f",
			ch.name, m.VarName(branch), warm.Status, warm.Iterations, warm.Objective, cold.Status, cold.Iterations, cold.Objective)
		if warm.Status != cold.Status {
			t.Fatalf("%s child: warm status %v, cold %v", ch.name, warm.Status, cold.Status)
		}
		if warm.Iterations > 1000 {
			t.Errorf("%s child: warm solve took %d pivots, want at most 1000", ch.name, warm.Iterations)
		}
		if warm.Status != lp.StatusOptimal {
			continue
		}
		optimal++
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*math.Max(1, math.Abs(cold.Objective)) {
			t.Errorf("%s child: warm objective %.6f, cold %.6f", ch.name, warm.Objective, cold.Objective)
		}
	}
	if optimal == 0 {
		t.Fatal("neither child is feasible")
	}
}
