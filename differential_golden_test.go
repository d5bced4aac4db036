package els

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/querygen"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update-differential-golden", false,
	"rewrite testdata/differential_golden.json instead of checking against it")

const goldenPath = "testdata/differential_golden.json"

// goldenEntry pins one generated query's execution: output cardinality,
// the deterministic work counters, the governor's tuple/row charges, and
// a digest of the ordered result rows.
type goldenEntry struct {
	Seed          int64  `json:"seed"`
	RowsProduced  int64  `json:"rows_produced"`
	TuplesScanned int64  `json:"tuples_scanned"`
	Comparisons   int64  `json:"comparisons"`
	GovTuples     int64  `json:"gov_tuples"`
	GovRows       int64  `json:"gov_rows"`
	RowsSHA256    string `json:"rows_sha256"`
}

// rowsDigest hashes the result rows in order, each cell as its
// length-prefixed Value.Key().
func rowsDigest(tbl *storage.Table) string {
	h := sha256.New()
	var buf []byte
	for r := 0; r < tbl.NumRows(); r++ {
		buf = buf[:0]
		for c := 0; c < tbl.Schema().NumColumns(); c++ {
			buf = appendCellKey(buf, tbl.Value(r, c))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendCellKey appends v.Key() with a u32 length prefix. Int64 cells,
// the common case, are encoded without allocating.
func appendCellKey(dst []byte, v storage.Value) []byte {
	if !v.IsNull() && v.Type() == storage.TypeInt64 {
		var tmp [16]byte
		k := strconv.AppendInt(append(tmp[:0], 1), v.Int(), 36)
		return append(binary.LittleEndian.AppendUint32(dst, uint32(len(k))), k...)
	}
	k := v.Key()
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(k))), k...)
}

func newGoldenEntry(seed int64, res *executor.Result, usage [2]int64) goldenEntry {
	return goldenEntry{
		Seed:          seed,
		RowsProduced:  res.Stats.RowsProduced,
		TuplesScanned: res.Stats.TuplesScanned,
		Comparisons:   res.Stats.Comparisons,
		GovTuples:     usage[0],
		GovRows:       usage[1],
		RowsSHA256:    rowsDigest(res.Table),
	}
}

// TestDifferentialGolden checks the executor against pinned per-query
// results for the 500 seeded random queries: rows produced, tuples
// scanned, comparisons, governor tuple/row charges, and the ordered
// result rows' digest must match the pins exactly at workers 1, 4, and 8.
// The pins were first written while two independent engines (row-at-a-time
// and columnar) still agreed on every field. Divergences are appended to
// the ELS_DIFF_REPORT artifact before the test fails.
func TestDifferentialGolden(t *testing.T) {
	queries := differentialQueries(t)
	if *updateGolden {
		writeGolden(t)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []goldenEntry
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	if int64(len(pins)) < queries {
		t.Fatalf("%s pins %d queries, want %d", goldenPath, len(pins), queries)
	}
	for seed := int64(0); seed < queries; seed++ {
		want := pins[seed]
		if want.Seed != seed {
			t.Fatalf("%s entry %d has seed %d", goldenPath, seed, want.Seed)
		}
		q := querygen.Generate(seed)
		cat, plan := planGenerated(t, q)
		for _, workers := range []int{1, 4, 8} {
			res, usage := execWorkers(t, cat, plan, workers)
			if got := newGoldenEntry(seed, res, usage); got != want {
				diffReport(t, map[string]any{
					"harness": "golden", "seed": seed, "workers": workers,
					"query": q.String(), "got": got, "want": want,
				})
				t.Fatalf("seed %d workers %d (%s):\n got %+v\nwant %+v", seed, workers, q, got, want)
			}
		}
	}
}

// writeGolden regenerates the pins. Every query's result must match the
// brute-force reference evaluator's row multiset, and agree exactly at
// workers 1, 4, and 8, before its pin is written.
func writeGolden(t *testing.T) {
	var pins []goldenEntry
	for seed := int64(0); seed < 500; seed++ {
		q := querygen.Generate(seed)
		cat, plan := planGenerated(t, q)
		serial, serialUsage := execWorkers(t, cat, plan, 1)
		checkReference(t, seed, q, cat, serial.Table)
		want := newGoldenEntry(seed, serial, serialUsage)
		for _, workers := range []int{4, 8} {
			res, usage := execWorkers(t, cat, plan, workers)
			if got := newGoldenEntry(seed, res, usage); got != want {
				t.Fatalf("seed %d workers %d (%s): differs from serial:\n got %+v\nwant %+v",
					seed, workers, q, got, want)
			}
		}
		pins = append(pins, want)
	}
	// One pin per line keeps diffs of a regenerated file reviewable.
	data := []byte("[\n")
	for i, p := range pins {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			data = append(data, ",\n"...)
		}
		data = append(data, b...)
	}
	data = append(data, "\n]"...)
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialReference checks every seeded random query's result
// rows, as a multiset, against a brute-force evaluator that shares no
// code with the executor.
func TestDifferentialReference(t *testing.T) {
	queries := differentialQueries(t)
	for seed := int64(0); seed < queries; seed++ {
		q := querygen.Generate(seed)
		cat, plan := planGenerated(t, q)
		res, _ := execWorkers(t, cat, plan, 4)
		checkReference(t, seed, q, cat, res.Table)
	}
}

// checkReference fails the test unless got holds exactly the reference
// evaluator's rows for q, in any order.
func checkReference(t *testing.T, seed int64, q querygen.Query, cat *catalog.Catalog, got *storage.Table) {
	t.Helper()
	want := referenceRows(t, cat, q)
	// Result columns are named "table.column" in plan order; group them
	// by query table, in schema order.
	cols := make([][]int, len(q.Tables))
	for i, ref := range q.Tables {
		schema := cat.Data(ref.Table).Schema()
		for c := 0; c < schema.NumColumns(); c++ {
			rc := got.Schema().ColumnIndex(ref.Table + "." + schema.Column(c).Name)
			if rc < 0 {
				t.Fatalf("seed %d: result lacks column %s.%s", seed, ref.Table, schema.Column(c).Name)
			}
			cols[i] = append(cols[i], rc)
		}
	}
	have := make(map[uint64]int, len(want))
	var buf []byte
	for r := 0; r < got.NumRows(); r++ {
		h := uint64(0)
		for _, tc := range cols {
			var th uint64
			th, buf = rowHash(got, r, tc, buf)
			h = combineRowHash(h, th)
		}
		have[h]++
	}
	if !reflect.DeepEqual(have, want) {
		diffReport(t, map[string]any{
			"harness": "reference", "seed": seed, "query": q.String(),
			"rows": got.NumRows(), "distinct": len(have), "want_distinct": len(want),
		})
		t.Fatalf("seed %d (%s): %d result rows (%d distinct) differ from the reference's %d distinct",
			seed, q, got.NumRows(), len(have), len(want))
	}
}

// rowHash is the FNV-1a hash of tbl's row r over the given columns, each
// cell encoded by appendCellKey into buf (reused; returned for the next
// call).
func rowHash(tbl *storage.Table, r int, cols []int, buf []byte) (uint64, []byte) {
	buf = buf[:0]
	for _, c := range cols {
		buf = appendCellKey(buf, tbl.Value(r, c))
	}
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h, buf
}

// combineRowHash folds one table's row hash into a result row's hash, in
// query-table order.
func combineRowHash(h, table uint64) uint64 {
	return (h^table)*1099511628211 + 0x9e3779b97f4a7c15
}

// refBinding binds each query table (by position) to one row of its data
// table.
type refBinding struct {
	cols []refCol
	rows []int
}

type refCol struct {
	ref        expr.ColumnRef
	tbl        *storage.Table
	table, col int
}

func (b *refBinding) ColumnValue(ref expr.ColumnRef) (storage.Value, error) {
	for _, c := range b.cols {
		if c.ref == ref && b.rows[c.table] >= 0 {
			return c.tbl.Value(b.rows[c.table], c.col), nil
		}
	}
	return storage.Value{}, fmt.Errorf("reference: %s is not bound", ref)
}

// refPred is one predicate with every outcome precomputed by Eval: ok
// holds, for each row combination of the tables it references (one or
// two, by query position), whether the predicate is true.
type refPred struct {
	a, b int // b == -1 for a single-table predicate
	nb   int
	ok   []bool
}

func (p refPred) holds(rows []int) bool {
	if p.b < 0 {
		return p.ok[rows[p.a]]
	}
	return p.ok[rows[p.a]*p.nb+rows[p.b]]
}

// referenceRows evaluates q by brute force. Every predicate is evaluated
// with expr.Predicate.Eval on every row combination of the tables it
// references; the tables are then bound in a connected order (each next
// table shares a predicate with one already bound, where possible), each
// predicate is applied as soon as all its tables are bound, and every
// surviving full binding is one result row, hashed as checkReference
// hashes executor rows.
func referenceRows(t *testing.T, cat *catalog.Catalog, q querygen.Query) map[uint64]int {
	t.Helper()
	n := len(q.Tables)
	b := &refBinding{rows: make([]int, n)}
	pos := map[string]int{}
	tables := make([]*storage.Table, n)
	for i, ref := range q.Tables {
		pos[ref.Table] = i
		tables[i] = cat.Data(ref.Table)
		b.rows[i] = -1
		for c := 0; c < tables[i].Schema().NumColumns(); c++ {
			col := expr.ColumnRef{Table: ref.Table, Column: tables[i].Schema().Column(c).Name}
			b.cols = append(b.cols, refCol{ref: col, tbl: tables[i], table: i, col: c})
		}
	}
	eval := func(p expr.Predicate) bool {
		ok, err := p.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	preds := make([]refPred, len(q.Preds))
	for i, p := range q.Preds {
		tabs := p.Tables()
		rp := refPred{a: pos[tabs[0]], b: -1}
		if len(tabs) == 1 {
			for r := 0; r < tables[rp.a].NumRows(); r++ {
				b.rows[rp.a] = r
				rp.ok = append(rp.ok, eval(p))
			}
		} else {
			rp.b, rp.nb = pos[tabs[1]], tables[pos[tabs[1]]].NumRows()
			for ra := 0; ra < tables[rp.a].NumRows(); ra++ {
				b.rows[rp.a] = ra
				for rb := 0; rb < rp.nb; rb++ {
					b.rows[rp.b] = rb
					rp.ok = append(rp.ok, eval(p))
				}
			}
			b.rows[rp.b] = -1
		}
		b.rows[rp.a] = -1
		preds[i] = rp
	}

	order := []int{0}
	placed := map[int]bool{0: true}
	for len(order) < n {
		next := -1
		for _, p := range preds {
			if p.b >= 0 && placed[p.a] != placed[p.b] {
				next = p.a
				if placed[next] {
					next = p.b
				}
				break
			}
		}
		for i := 0; next < 0 && i < n; i++ {
			if !placed[i] {
				next = i
			}
		}
		order = append(order, next)
		placed[next] = true
	}
	// ready[i] holds the predicates whose tables are all bound once
	// order[:i+1] is.
	step := make([]int, n)
	for i, ti := range order {
		step[ti] = i
	}
	ready := make([][]refPred, n)
	for _, p := range preds {
		last := step[p.a]
		if p.b >= 0 && step[p.b] > last {
			last = step[p.b]
		}
		ready[last] = append(ready[last], p)
	}
	// Per-table row hashes, combined in query-table order per result row.
	hashes := make([][]uint64, n)
	var buf []byte
	for i, tbl := range tables {
		cols := make([]int, tbl.Schema().NumColumns())
		for c := range cols {
			cols[c] = c
		}
		for r := 0; r < tbl.NumRows(); r++ {
			var h uint64
			h, buf = rowHash(tbl, r, cols, buf)
			hashes[i] = append(hashes[i], h)
		}
	}

	out := map[uint64]int{}
	rows := b.rows
	var bind func(i int)
	bind = func(i int) {
		if i == n {
			h := uint64(0)
			for ti, r := range rows {
				h = combineRowHash(h, hashes[ti][r])
			}
			out[h]++
			return
		}
		ti := order[i]
	next:
		for r := 0; r < tables[ti].NumRows(); r++ {
			rows[ti] = r
			for _, p := range ready[i] {
				if !p.holds(rows) {
					continue next
				}
			}
			bind(i + 1)
		}
		rows[ti] = -1
	}
	bind(0)
	return out
}
