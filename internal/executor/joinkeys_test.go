package executor

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// keyTable loads a table with a join key column k of type typ (row i holds
// key(i)) and an int64 payload column p = i that tells rows apart.
func keyTable(t *testing.T, cat *catalog.Catalog, name string, typ storage.Type, rows int, key func(i int) storage.Value) {
	t.Helper()
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: typ}, storage.ColumnDef{Name: "p", Type: storage.TypeInt64})
	data := make([][]storage.Value, rows)
	for i := range data {
		data[i] = []storage.Value{key(i), storage.Int64(int64(i))}
	}
	loadTable(t, cat, name, schema, data)
}

// sortedRowKeys renders a result's rows as sorted canonical keys (each cell
// a length-prefixed Value.Key()), so results compare as multisets.
func sortedRowKeys(tbl *storage.Table) []string {
	keys := make([]string, tbl.NumRows())
	for r := range keys {
		var k []byte
		for c := 0; c < tbl.Schema().NumColumns(); c++ {
			v := tbl.Value(r, c).Key()
			k = binary.LittleEndian.AppendUint32(k, uint32(len(v)))
			k = append(k, v...)
		}
		keys[r] = string(k)
	}
	sort.Strings(keys)
	return keys
}

// joinAllMethods joins A.k = B.k (outer A, inner B) with every join method
// — nested loops, sort-merge, hash, index nested loops on B.k — at workers
// 1 and 4, and with the hash join also under a byte budget that forces it
// to spill. Every run must produce the brute-force count and the same row
// multiset; it returns that count.
func joinAllMethods(t *testing.T, cat *catalog.Catalog) int64 {
	t.Helper()
	if err := cat.BuildIndex("B", "k"); err != nil {
		t.Fatal(err)
	}
	tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}}
	preds := []expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}
	want := int64(bruteForceJoinCount(t, cat, []string{"A", "B"}, []string{"A", "B"}, preds))
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	var wantRows []string
	for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin, optimizer.IndexNL} {
		o, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{m}})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := o.PlanForOrder([]string{"A", "B"})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		budgets := []int64{0}
		if m == optimizer.HashJoin {
			budgets = append(budgets, 1)
		}
		for _, budget := range budgets {
			for _, workers := range []int{1, 4} {
				gov := governor.New(context.Background(), governor.Limits{Workers: workers, MaxMemory: budget})
				e := NewGoverned(cat, gov)
				e.SetSpillDir(t.TempDir())
				res, err := e.Execute(plan)
				if err != nil {
					t.Fatalf("%v workers=%d budget=%d: %v", m, workers, budget, err)
				}
				if spills, _ := gov.SpillStats(); (spills > 0) != (budget > 0) {
					t.Fatalf("%v workers=%d budget=%d: %d spills", m, workers, budget, spills)
				}
				if res.Stats.RowsProduced != want {
					t.Fatalf("%v workers=%d budget=%d: %d rows, brute force counts %d",
						m, workers, budget, res.Stats.RowsProduced, want)
				}
				rows := sortedRowKeys(res.Table)
				if wantRows == nil {
					wantRows = rows
				} else if !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("%v workers=%d budget=%d: row multiset differs from nested loops", m, workers, budget)
				}
			}
		}
	}
	return want
}

// An int64 key joined with a float64 key matches by numeric value in every
// join method — storage.Compare's cross-type rule — including the hash
// join, in memory and spilled, with either side as the build input.
func TestMixedNumericJoinKeys(t *testing.T) {
	ints := func(i int) storage.Value { return storage.Int64([]int64{1, 2, 3}[i]) }
	floats := func(i int) storage.Value { return storage.Float64([]float64{1, 2, 2.5}[i]) }
	for _, intBuild := range []bool{false, true} {
		cat := catalog.New()
		if intBuild {
			keyTable(t, cat, "A", storage.TypeFloat64, 3, floats)
			keyTable(t, cat, "B", storage.TypeInt64, 3, ints)
		} else {
			keyTable(t, cat, "A", storage.TypeInt64, 3, ints)
			keyTable(t, cat, "B", storage.TypeFloat64, 3, floats)
		}
		if got := joinAllMethods(t, cat); got != 2 {
			t.Fatalf("int build side %v: %d rows, want 2 (1 = 1.0 and 2 = 2.0)", intBuild, got)
		}
	}
}

// Every join key type joins identically under every method, worker count,
// and spilling budget.
func TestJoinKeyTypes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nullEvery := func(n int, typ storage.Type, key func(i int) storage.Value) func(i int) storage.Value {
		return func(i int) storage.Value {
			if i%n == 0 {
				return storage.Null(typ)
			}
			return key(i)
		}
	}
	cases := []struct {
		name         string
		aType, bType storage.Type
		a, b         func(i int) storage.Value
	}{
		{"int64", storage.TypeInt64, storage.TypeInt64,
			nullEvery(13, storage.TypeInt64, func(i int) storage.Value { return storage.Int64(int64(i % 7)) }),
			func(i int) storage.Value { return storage.Int64(int64(i % 5)) }},
		{"float64", storage.TypeFloat64, storage.TypeFloat64,
			nullEvery(11, storage.TypeFloat64, func(i int) storage.Value {
				return storage.Float64([]float64{negZero, 0, 1.5, 2.25, 3}[i%5])
			}),
			func(i int) storage.Value { return storage.Float64([]float64{0, negZero, 1.5, 4}[i%4]) }},
		{"string", storage.TypeString, storage.TypeString,
			func(i int) storage.Value { return storage.String64([]string{"", "a", "b", "ab"}[i%4]) },
			nullEvery(9, storage.TypeString, func(i int) storage.Value {
				return storage.String64([]string{"a", "", "ba", "ab", "b"}[i%5])
			})},
		{"bool", storage.TypeBool, storage.TypeBool,
			nullEvery(7, storage.TypeBool, func(i int) storage.Value { return storage.Bool(i%3 == 0) }),
			func(i int) storage.Value { return storage.Bool(i%2 == 0) }},
		{"int64-float64", storage.TypeInt64, storage.TypeFloat64,
			func(i int) storage.Value { return storage.Int64([]int64{0, 1, 2, 3, 1<<53 + 1}[i%5]) },
			nullEvery(17, storage.TypeFloat64, func(i int) storage.Value {
				return storage.Float64([]float64{0, negZero, 1, 2.5, 3, 1 << 53}[i%6])
			})},
		{"float64-int64", storage.TypeFloat64, storage.TypeInt64,
			func(i int) storage.Value { return storage.Float64([]float64{negZero, 1, 1.5, 4}[i%4]) },
			func(i int) storage.Value { return storage.Int64(int64(i % 5)) }},
		{"all-null", storage.TypeInt64, storage.TypeInt64,
			func(int) storage.Value { return storage.Null(storage.TypeInt64) },
			func(i int) storage.Value { return storage.Int64(int64(i % 3)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New()
			keyTable(t, cat, "A", tc.aType, 200, tc.a)
			keyTable(t, cat, "B", tc.bType, 150, tc.b)
			got := joinAllMethods(t, cat)
			if tc.name == "all-null" && got != 0 {
				t.Fatalf("NULL keys joined %d rows", got)
			}
			if tc.name != "all-null" && got == 0 {
				t.Fatal("no rows joined; the case exercises nothing")
			}
		})
	}
}
