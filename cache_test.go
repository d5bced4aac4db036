package els

import (
	"reflect"
	"strings"
	"testing"
)

func cacheTestSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	mkRows := func(n, dom int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i % dom), int64(i % 7)}
		}
		return rows
	}
	if err := sys.LoadTable("R", []string{"a", "b"}, mkRows(200, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("S", []string{"a", "c"}, mkRows(300, 10)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// A repeated estimate is served from cache and is identical field for
// field to the cold one.
func TestCacheHitServesIdenticalEstimate(t *testing.T) {
	sys := cacheTestSystem(t)
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5"
	cold, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached estimate differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	st := sys.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	// The hit returned a copy: stamping one estimate must not leak into
	// later serves (replicas stamp lag on their copies).
	warm.ReplicaLag = 99
	again, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if again.ReplicaLag != 0 {
		t.Fatal("mutating a served estimate leaked into the cache")
	}
}

// Formatting-only variants of one statement share a cache entry;
// semantically distinct statements and distinct algorithms do not.
func TestCacheKeyNormalizationAndDiscrimination(t *testing.T) {
	sys := cacheTestSystem(t)
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5", AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{
		"select count(*) from R,S where R.b<5 and R.a=S.a",
		"SELECT COUNT(*) FROM r, s WHERE s.A = r.A AND r.B < 5",
	} {
		if _, err := sys.Estimate(variant, AlgorithmELS); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("normalized variants: hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	// A different algorithm and a different constant are different keys.
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5", AlgorithmSM); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 6", AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != 3 {
		t.Fatalf("distinct algo/constant: misses = %d, want 3", st.Misses)
	}
}

// Publishing a new catalog version invalidates — and a query after the
// bump re-plans against the new statistics, never a cached stale estimate.
func TestCacheInvalidationOnPublish(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("V", 1000, map[string]float64{"x": 10})
	const sql = "SELECT COUNT(*) FROM V"
	est, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize != 1000 {
		t.Fatalf("cold estimate %g, want 1000", est.FinalSize)
	}
	if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	v1 := sys.CatalogVersion()
	sys.MustDeclareStats("V", 2000, map[string]float64{"x": 10})
	est2, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est2.FinalSize != 2000 {
		t.Fatalf("estimate after publish = %g, want 2000 (stale cache serve?)", est2.FinalSize)
	}
	if est2.CatalogVersion != v1+1 {
		t.Fatalf("estimate pinned version %d, want %d", est2.CatalogVersion, v1+1)
	}
	if st := sys.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("publish retired no entries: %+v", st)
	}
}

// The plan cache keys on whether a memory budget is enforced. Without a
// budget the planner picks sort-merge; under one it must pick the hash
// join (which can spill), so a sort-merge plan cached before the budget
// was set must not be served after it: the repeat would fail on
// sort-merge scratch it cannot spill. Budgets of different sizes still
// share one entry.
func TestCacheKeyedByMemoryBudget(t *testing.T) {
	sys := New()
	sys.SetSpillDir(t.TempDir())
	for i, name := range []string{"A", "B"} {
		if err := sys.GenerateTable(name, "x", "permutation", 3000, 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT COUNT(*) FROM A, B WHERE A.x = B.x"
	run := func(phase string) *Result {
		t.Helper()
		res, err := sys.Query(q, AlgorithmSM)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if res.Count != 3000 {
			t.Fatalf("%s: counted %d rows, want 3000", phase, res.Count)
		}
		return res
	}
	explain := func() string {
		t.Helper()
		out, err := sys.Explain(q, AlgorithmSM)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	run("unbudgeted")
	if out := explain(); !strings.Contains(out, "SM(A ⋈ B)") {
		t.Fatalf("unbudgeted plan is not sort-merge:\n%s", out)
	}

	sys.SetLimits(Limits{MaxMemory: 4096})
	if res := run("budgeted repeat"); res.SpillCount == 0 {
		t.Errorf("budgeted repeat did not spill: it ran a plan made without the budget")
	}
	if out := explain(); !strings.Contains(out, "HASH(A ⋈ B)") {
		t.Errorf("Explain under a memory budget does not show the hash plan:\n%s", out)
	}

	hits := sys.CacheStats().Hits
	sys.SetLimits(Limits{MaxMemory: 1 << 20})
	run("larger budget")
	if sys.CacheStats().Hits == hits {
		t.Error("a different budget size missed the cache; only enforcement should be keyed")
	}
}

// Limits.DisableCache bypasses the cache wholesale — no lookups, no
// stores — and results are unchanged.
func TestCacheDisable(t *testing.T) {
	sys := cacheTestSystem(t)
	sys.SetLimits(Limits{DisableCache: true})
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	a, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("estimates differ with the cache disabled")
	}
	if st := sys.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache was touched: %+v", st)
	}
}

// EstimateOrder caches under an order-suffixed key: the same SQL with
// different forced orders occupies different entries, repeats hit, and
// the best-plan entry is separate from any forced-order one.
func TestCacheOrderSuffix(t *testing.T) {
	sys := cacheTestSystem(t)
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	ordRS, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"S", "R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("three distinct keys expected: %+v", st)
	}
	warm, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Hits != 1 {
		t.Fatalf("repeated order was not a hit: %+v", st)
	}
	if !reflect.DeepEqual(ordRS, warm) {
		t.Fatalf("cached ordered estimate differs:\ncold %+v\nwarm %+v", ordRS, warm)
	}
}

// Limits.PlanCacheSize bounds the cache; overflow evicts LRU entries.
func TestCachePlanCacheSizeLimit(t *testing.T) {
	sys := cacheTestSystem(t)
	sys.SetLimits(Limits{PlanCacheSize: 2})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM R WHERE R.b < 1",
		"SELECT COUNT(*) FROM R WHERE R.b < 2",
		"SELECT COUNT(*) FROM R WHERE R.b < 3",
	} {
		if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.CacheStats()
	if st.Capacity != 2 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("bounded cache stats = %+v", st)
	}
}

// The cache must be invisible to results: the same workload with the
// cache on (every statement issued twice) and off returns identical
// counts, rows, work counters, and estimates.
func TestDifferentialCacheOnOff(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a",
		"SELECT COUNT(*) FROM R WHERE R.b < 3",
		"SELECT R.a, COUNT(*) FROM R, S WHERE R.a = S.a GROUP BY R.a",
	}
	run := func(disable bool) []*Result {
		sys := cacheTestSystem(t)
		sys.SetLimits(Limits{DisableCache: disable})
		var out []*Result
		for _, sql := range queries {
			for rep := 0; rep < 2; rep++ {
				res, err := sys.Query(sql, AlgorithmELS)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				res.Elapsed = 0 // wall clock is not part of the contract
				res.Estimate.Warnings = nil
				out = append(out, res)
			}
		}
		if !disable {
			if st := sys.CacheStats(); st.Hits < uint64(len(queries)) {
				t.Fatalf("repeated workload hit only %d times: %+v", st.Hits, st)
			}
		}
		return out
	}
	on, off := run(false), run(true)
	for i := range on {
		if !reflect.DeepEqual(on[i], off[i]) {
			t.Fatalf("result %d differs between cache on and off:\non  %+v\noff %+v", i, on[i], off[i])
		}
	}
}
