package executor

import (
	"context"
	"math"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// loadTable materializes hand-built rows into a fresh analyzed table.
func loadTable(t *testing.T, cat *catalog.Catalog, name string, schema *storage.Schema, rows [][]storage.Value) {
	t.Helper()
	tbl := storage.NewTable(name, schema)
	for _, row := range rows {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// columnarDiff plans the query and executes it at workers 1 and 4. The
// output cardinality must equal the brute-force count, and the parallel
// run must be identical to the serial one: rows, row order, work
// counters, and governor charges. Returns the serial result.
func columnarDiff(t *testing.T, cat *catalog.Catalog, tabs []cardest.TableRef,
	preds []expr.Predicate, disjs []expr.Disjunction, methods []optimizer.JoinMethod) *Result {
	t.Helper()
	est, err := cardest.NewQuery(cat, tabs, preds, disjs, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: methods, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, [2]int64) {
		gov := governor.New(context.Background(), governor.Limits{Workers: workers})
		res, err := NewGoverned(cat, gov).Execute(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tuples, rows, _ := gov.Usage()
		return res, [2]int64{tuples, rows}
	}
	serial, serialUsage := run(1)
	names := make([]string, len(tabs))
	for i, tab := range tabs {
		names[i] = tab.Table
	}
	if want := bruteForceJoinCount(t, cat, names, names, preds, disjs...); serial.Stats.RowsProduced != int64(want) {
		t.Fatalf("rows = %d, brute force counts %d", serial.Stats.RowsProduced, want)
	}
	par, parUsage := run(4)
	if par.Stats.RowsProduced != serial.Stats.RowsProduced ||
		par.Stats.TuplesScanned != serial.Stats.TuplesScanned ||
		par.Stats.Comparisons != serial.Stats.Comparisons {
		t.Fatalf("workers=4 (rows %d, tuples %d, cmp %d) vs serial (%d, %d, %d)",
			par.Stats.RowsProduced, par.Stats.TuplesScanned, par.Stats.Comparisons,
			serial.Stats.RowsProduced, serial.Stats.TuplesScanned, serial.Stats.Comparisons)
	}
	if parUsage != serialUsage {
		t.Fatalf("governor usage %v (workers=4) vs %v (serial)", parUsage, serialUsage)
	}
	for r := 0; r < serial.Table.NumRows(); r++ {
		for c := 0; c < serial.Table.Schema().NumColumns(); c++ {
			if par.Table.Value(r, c).Key() != serial.Table.Value(r, c).Key() {
				t.Fatalf("row %d col %d: %s (workers=4) vs %s (serial)",
					r, c, par.Table.Value(r, c), serial.Table.Value(r, c))
			}
		}
	}
	return serial
}

var hashOnly = []optimizer.JoinMethod{optimizer.HashJoin}

// Float kernels: -0.0 joins and filters like 0.0 (Compare and the hash
// key normalization agree), and NULLs never match a predicate or a join
// key.
func TestColumnarFloatKernel(t *testing.T) {
	cat := catalog.New()
	fcol := storage.MustSchema(storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "g", Type: storage.TypeFloat64})
	neg := math.Copysign(0, -1)
	loadTable(t, cat, "F1", fcol, [][]storage.Value{
		{storage.Float64(neg), storage.Float64(1.5)},
		{storage.Float64(0.0), storage.Float64(-2.5)},
		{storage.Float64(1.25), storage.Float64(0.5)},
		{storage.Null(storage.TypeFloat64), storage.Float64(3.0)},
		{storage.Float64(2.5), storage.Null(storage.TypeFloat64)},
	})
	loadTable(t, cat, "F2", fcol, [][]storage.Value{
		{storage.Float64(0.0), storage.Float64(0.0)},
		{storage.Float64(neg), storage.Float64(1.0)},
		{storage.Float64(2.5), storage.Float64(2.0)},
		{storage.Null(storage.TypeFloat64), storage.Float64(4.0)},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "F1"}, {Table: "F2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("F1", "f"), expr.OpEQ, ref("F2", "f")),
			expr.NewConst(ref("F1", "g"), expr.OpGT, storage.Float64(-3)),
		}, nil, hashOnly)
	// Oracle: -0.0 and 0.0 cross-match (2×2 pairs); the 2.5 match dies on
	// its NULL g (NULL fails every predicate); NULL keys never join.
	if res.Stats.RowsProduced != 4 {
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// String kernels: equality joins and range predicates over strings.
func TestColumnarStringKernel(t *testing.T) {
	cat := catalog.New()
	scol := storage.MustSchema(storage.ColumnDef{Name: "s", Type: storage.TypeString},
		storage.ColumnDef{Name: "u", Type: storage.TypeString})
	loadTable(t, cat, "S1", scol, [][]storage.Value{
		{storage.String64("apple"), storage.String64("x")},
		{storage.String64("pear"), storage.String64("y")},
		{storage.String64("fig"), storage.String64("z")},
		{storage.Null(storage.TypeString), storage.String64("w")},
		{storage.String64(""), storage.String64("v")},
	})
	loadTable(t, cat, "S2", scol, [][]storage.Value{
		{storage.String64("fig"), storage.String64("a")},
		{storage.String64("apple"), storage.String64("b")},
		{storage.String64("apple"), storage.String64("c")},
		{storage.String64(""), storage.String64("d")},
		{storage.Null(storage.TypeString), storage.String64("e")},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "S1"}, {Table: "S2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("S1", "s"), expr.OpEQ, ref("S2", "s")),
			expr.NewConst(ref("S1", "s"), expr.OpLT, storage.String64("zzz")),
		}, nil, hashOnly)
	// apple×2 + fig + ""×1; NULLs never join.
	if res.Stats.RowsProduced != 4 {
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// Int64 kernels must compare as integers: values beyond 2^53 that would
// collide under float64 rounding stay distinct.
func TestColumnarInt64PrecisionKernel(t *testing.T) {
	cat := catalog.New()
	icol := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64})
	big := int64(1) << 53
	loadTable(t, cat, "I1", icol, [][]storage.Value{
		{storage.Int64(big)}, {storage.Int64(big + 1)}, {storage.Int64(7)},
	})
	loadTable(t, cat, "I2", icol, [][]storage.Value{
		{storage.Int64(big + 1)}, {storage.Int64(7)},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "I1"}, {Table: "I2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("I1", "k"), expr.OpEQ, ref("I2", "k")),
			expr.NewConst(ref("I1", "k"), expr.OpGE, storage.Int64(0)),
		}, nil, hashOnly)
	if res.Stats.RowsProduced != 2 {
		t.Fatalf("rows = %d, want 2 (2^53 and 2^53+1 must not collide)", res.Stats.RowsProduced)
	}
}

// OR-group filters run through the columnar disjunction path.
func TestColumnarDisjunctions(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(120, 80)...)
	d := mustDisj(t,
		expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(10)),
		expr.NewConst(ref("T0", "v"), expr.OpGE, storage.Int64(90)),
		expr.NewConst(ref("T0", "k"), expr.OpEQ, storage.Int64(3)),
	)
	columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "T0"}, {Table: "T1"}},
		[]expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))},
		[]expr.Disjunction{d}, hashOnly)
}
