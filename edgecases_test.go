package els

import (
	"math"
	"strings"
	"testing"
)

// Query caps materialized rows at MaxRows but still counts everything.
func TestQueryRowCap(t *testing.T) {
	sys := New()
	rows := make([][]int64, MaxRows+500)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if err := sys.LoadTable("Big", []string{"k"}, rows); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT Big.k FROM Big", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(MaxRows+500) {
		t.Errorf("count = %d, want %d", res.Count, MaxRows+500)
	}
	if len(res.Rows) != MaxRows {
		t.Errorf("materialized rows = %d, want cap %d", len(res.Rows), MaxRows)
	}
}

// COUNT(*) queries do not materialize output columns.
func TestCountStarNoMaterialization(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("T", []string{"k"}, [][]int64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM T", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(res.Columns) != 0 {
		t.Errorf("COUNT(*) should not materialize: %v %v", res.Columns, res.Rows)
	}
}

// Explain under an algorithm without closure shows no implied predicates.
func TestExplainWithoutClosure(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("A", 100, map[string]float64{"k": 10})
	sys.MustDeclareStats("B", 100, map[string]float64{"k": 10})
	out, err := sys.Explain("SELECT COUNT(*) FROM A, B WHERE A.k = B.k", AlgorithmSM)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "implied by transitive closure") {
		t.Errorf("SM explain should show no implied predicates:\n%s", out)
	}
}

// Self-joins through aliases work end to end.
func TestSelfJoinExecution(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("E", []string{"id", "mgr"}, [][]int64{
		{1, 0}, {2, 1}, {3, 1}, {4, 2},
	}); err != nil {
		t.Fatal(err)
	}
	// Employees whose manager's manager is employee 0: ids 4 (mgr 2 -> mgr 1? no: 2's mgr is 1, 1's mgr is 0)...
	// Count pairs (e, m) where e.mgr = m.id.
	res, err := sys.Query("SELECT COUNT(*) FROM E e, E m WHERE e.mgr = m.id", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	// e=2→m=1, e=3→m=1, e=4→m=2: 3 pairs.
	if res.Count != 3 {
		t.Errorf("self-join count = %d, want 3", res.Count)
	}
}

// Estimating a query whose predicates contradict yields zero without
// breaking the planner or executor.
func TestContradictoryPredicates(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("T", []string{"k"}, [][]int64{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM T WHERE k = 1 AND k = 2", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Errorf("contradiction count = %d", res.Count)
	}
	if res.Estimate.FinalSize != 0 {
		t.Errorf("contradiction estimate = %g, want 0", res.Estimate.FinalSize)
	}
}

// Duplicate predicates (ELS step 1) neither change estimates nor results.
func TestDuplicatePredicatesIgnored(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("T", []string{"k"}, [][]int64{{1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	a, err := sys.Query("SELECT COUNT(*) FROM T WHERE k > 1", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Query("SELECT COUNT(*) FROM T WHERE k > 1 AND k > 1 AND k > 1", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count || a.Estimate.FinalSize != b.Estimate.FinalSize {
		t.Errorf("duplicates changed outcome: %d/%g vs %d/%g",
			a.Count, a.Estimate.FinalSize, b.Count, b.Estimate.FinalSize)
	}
}

// The paper's multi-local-predicate resolution surfaces through the facade:
// a range pair forms the tightest bound; an equality wins over ranges.
func TestMultiplePredicatesPerColumn(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("R", 1000, map[string]float64{"x": 1000})
	est, err := sys.Estimate("SELECT COUNT(*) FROM R WHERE x >= 100 AND x < 300 AND x < 900", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	// Tightest bound: [100, 300) = 200 of 1000 values (float tolerance for
	// the P(a)+P(b)−1 range intersection).
	if math.Abs(est.FinalSize-200) > 1e-9 {
		t.Errorf("tightest-range estimate = %g, want 200", est.FinalSize)
	}
	est, err = sys.Estimate("SELECT COUNT(*) FROM R WHERE x < 900 AND x = 5", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize != 1 {
		t.Errorf("equality-wins estimate = %g, want 1", est.FinalSize)
	}
}

// The j-equivalence machinery surfaces through the facade: joining both of
// a table's columns to the same column elsewhere implies the local equality
// and triggers the Section 6 fold.
func TestSection6ThroughFacade(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 100})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 10, "w": 50})
	est, err := sys.Estimate(
		"SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x = R2.w", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	// ‖R2‖′ = ⌈1000/50⌉ = 20, d′ = 9 (urn), join sel = 1/max(100, 9):
	// 100 × 20 / 100 = 20.
	if est.FinalSize != 20 {
		t.Errorf("Section 6 estimate = %g, want 20", est.FinalSize)
	}
	found := false
	for _, p := range est.ImpliedPredicates {
		if strings.Contains(p, "R2.w") && strings.Contains(p, "R2.y") {
			found = true
		}
	}
	if !found {
		t.Errorf("implied local equality missing: %v", est.ImpliedPredicates)
	}
}

// A memory budget must not change join results when the key columns mix
// int64 and float64: the hash join the budget selects (and its spill
// path at 4096 bytes) matches 1 = 1.0 and 2 = 2.0 exactly as the
// unbudgeted sort-merge plan does.
func TestMixedNumericJoinUnderMemoryBudget(t *testing.T) {
	for _, budget := range []int64{0, 1 << 20, 4096} {
		sys := New()
		if err := sys.LoadCSVReader("A", strings.NewReader("x\n1\n2\n3\n"), true, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadCSVReader("B", strings.NewReader("y\n1.0\n2.0\n2.5\n"), true, 0); err != nil {
			t.Fatal(err)
		}
		sys.SetLimits(Limits{MaxMemory: budget})
		res, err := sys.Query("SELECT COUNT(*) FROM A, B WHERE A.x = B.y", AlgorithmELS)
		if err != nil {
			t.Fatalf("MaxMemory=%d: %v", budget, err)
		}
		if res.Count != 2 {
			t.Errorf("MaxMemory=%d: count = %d, want 2", budget, res.Count)
		}
	}
}
