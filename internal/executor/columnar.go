// Vectorized execution. Scans and hash joins run over column chunks:
// predicates evaluate type-specialized kernels over flat column slices,
// qualifying rows live in selection vectors (no row is materialized until
// the final gather), and matched join pairs gather column-wise into the
// output. Scratch buffers are recycled through internal/workpool arenas so
// chunk-parallel execution stays allocation-flat.
//
// The kernels count work exactly as the row-at-a-time operators'
// compiled.eval does, so TuplesScanned and Comparisons mean the same thing
// in every operator: a conjunction evaluates each predicate only over the
// survivors of the previous one, a NULL operand is counted as a comparison
// and then dropped, and OR-groups stop counting a row at its first true
// disjunct.
package executor

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/workpool"
)

// colBatch is the columnar scan batch size: base-table rows are visited,
// filtered, and gathered in runs of this many, bounding selection-vector
// memory while keeping per-batch bookkeeping negligible. The hash join
// flushes matched pairs at the same granularity.
const colBatch = 4096

// Arenas for the batch engine's scratch buffers, shared across executors
// and worker goroutines.
var (
	selArena = workpool.NewArena[int]()
	keyArena = workpool.NewArena[uint64]()
)

// scanRange filters base rows [start, end) into out, charging the visit
// and row budgets. It is the body of the serial scan and of one parallel
// scan chunk (then out and stats are chunk-local, the governor shared).
// Rows are visited in batches, filtered through selection vectors, and
// gathered column-wise into out.
func (e *Executor) scanRange(base *storage.Table, start, end int, filter compiled,
	orFilter []compiledDisj, out *storage.Table, stats *Stats) error {
	for b := start; b < end; b += colBatch {
		bEnd := b + colBatch
		if bEnd > end {
			bEnd = end
		}
		n := bEnd - b
		stats.TuplesScanned += int64(n)
		if err := e.gov.TickTuples(int64(n)); err != nil {
			return err
		}
		sel := selArena.Get(n)
		arena := int64(8 * cap(sel))
		e.gov.ChargeBytes(arena) // batch-arena scratch, released with the batch
		put := func() {
			e.gov.ReleaseBytes(arena)
			selArena.Put(sel)
		}
		for r := b; r < bEnd; r++ {
			sel = append(sel, r)
		}
		for _, p := range filter.preds {
			if len(sel) == 0 {
				break
			}
			sel = predSel(base, p, sel, stats)
		}
		sel = disjSel(base, orFilter, sel, stats)
		if len(sel) > 0 {
			if err := e.gov.TickRows(int64(len(sel))); err != nil {
				put()
				return err
			}
			if err := out.AppendGather(base, sel); err != nil {
				put()
				return err
			}
		}
		put()
	}
	return nil
}

// cmpOrd is the shared ordering kernel. For float64 it matches
// storage.Compare's compareFloat exactly (NaN compares "equal" to
// everything, as neither < nor > holds).
func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// predSel filters sel down to the rows of tbl satisfying p, compacting in
// place. Every row in sel counts one comparison (NULL operands included),
// matching compiledPred.evalOne.
func predSel(tbl *storage.Table, p compiledPred, sel []int, stats *Stats) []int {
	stats.Comparisons += int64(len(sel))
	ld := tbl.ColumnData(p.leftIdx)
	if p.rightIdx < 0 {
		c := p.constant
		if c.IsNull() {
			return sel[:0]
		}
		switch {
		case ld.Type == storage.TypeInt64 && c.Type() == storage.TypeInt64:
			return selCmpConst(ld.Ints, ld.Nulls, c.Int(), p.op, sel)
		case ld.Type == storage.TypeFloat64 && c.Type() == storage.TypeFloat64:
			return selCmpConst(ld.Floats, ld.Nulls, c.Float(), p.op, sel)
		case ld.Type == storage.TypeString && c.Type() == storage.TypeString:
			return selCmpConst(ld.Strs, ld.Nulls, c.Str(), p.op, sel)
		case numericType(ld.Type) && numericType(c.Type()):
			return selCmpConstMixed(ld, c.AsFloat(), p.op, sel)
		}
	} else {
		rd := tbl.ColumnData(p.rightIdx)
		switch {
		case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
			return selCmpCols(ld.Ints, ld.Nulls, rd.Ints, rd.Nulls, p.op, sel)
		case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
			return selCmpCols(ld.Floats, ld.Nulls, rd.Floats, rd.Nulls, p.op, sel)
		case ld.Type == storage.TypeString && rd.Type == storage.TypeString:
			return selCmpCols(ld.Strs, ld.Nulls, rd.Strs, rd.Nulls, p.op, sel)
		case numericType(ld.Type) && numericType(rd.Type):
			return selCmpColsMixed(ld, rd, p.op, sel)
		}
	}
	// Generic fallback: boxed compare with exactly compiled.eval's
	// semantics, including its panic on non-comparable type pairs.
	out := sel[:0]
	for _, r := range sel {
		lv := ld.Value(r)
		rv := p.constant
		if p.rightIdx >= 0 {
			rv = tbl.ColumnData(p.rightIdx).Value(r)
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if p.op.Holds(storage.Compare(lv, rv)) {
			out = append(out, r)
		}
	}
	return out
}

func numericType(t storage.Type) bool {
	return t == storage.TypeInt64 || t == storage.TypeFloat64
}

// selCmpConst is the column-vs-constant kernel for one ordered type.
func selCmpConst[T int64 | float64 | string](vals []T, nulls []bool, c T, op expr.CompareOp, sel []int) []int {
	out := sel[:0]
	if nulls == nil {
		for _, r := range sel {
			if op.Holds(cmpOrd(vals[r], c)) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range sel {
		if nulls[r] {
			continue
		}
		if op.Holds(cmpOrd(vals[r], c)) {
			out = append(out, r)
		}
	}
	return out
}

// selCmpCols is the column-vs-column kernel for one ordered type.
func selCmpCols[T int64 | float64 | string](l []T, ln []bool, r []T, rn []bool, op expr.CompareOp, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
			continue
		}
		if op.Holds(cmpOrd(l[i], r[i])) {
			out = append(out, i)
		}
	}
	return out
}

// selCmpConstMixed compares a numeric column against a numeric constant of
// the other width via float64, matching storage.Compare's cross-type rule.
func selCmpConstMixed(ld storage.ColumnData, c float64, op expr.CompareOp, sel []int) []int {
	out := sel[:0]
	for _, r := range sel {
		if ld.Null(r) {
			continue
		}
		var f float64
		if ld.Type == storage.TypeInt64 {
			f = float64(ld.Ints[r])
		} else {
			f = ld.Floats[r]
		}
		if op.Holds(cmpOrd(f, c)) {
			out = append(out, r)
		}
	}
	return out
}

// selCmpColsMixed compares two numeric columns of different widths via
// float64, matching storage.Compare's cross-type rule.
func selCmpColsMixed(ld, rd storage.ColumnData, op expr.CompareOp, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if ld.Null(i) || rd.Null(i) {
			continue
		}
		lf := ld.Floats
		var a, b float64
		if ld.Type == storage.TypeInt64 {
			a = float64(ld.Ints[i])
		} else {
			a = lf[i]
		}
		if rd.Type == storage.TypeInt64 {
			b = float64(rd.Ints[i])
		} else {
			b = rd.Floats[i]
		}
		if op.Holds(cmpOrd(a, b)) {
			out = append(out, i)
		}
	}
	return out
}

// disjSel applies the OR-groups in order, each over the survivors of the
// previous. Within a group a row stops counting at its first true disjunct,
// exactly like evalDisjunctions.
func disjSel(tbl *storage.Table, ds []compiledDisj, sel []int, stats *Stats) []int {
	for _, d := range ds {
		if len(sel) == 0 {
			return sel
		}
		out := sel[:0]
		for _, r := range sel {
			if disjRow(tbl, d, r, stats) {
				out = append(out, r)
			}
		}
		sel = out
	}
	return sel
}

// disjRow evaluates one OR-group for one row, boxed. Disjunctions are rare
// enough that the batch engine keeps them scalar; the counting matches
// evalOne per disjunct evaluated.
func disjRow(tbl *storage.Table, d compiledDisj, r int, stats *Stats) bool {
	for _, p := range d.preds {
		stats.Comparisons++
		lv := tbl.ColumnData(p.leftIdx).Value(r)
		rv := p.constant
		if p.rightIdx >= 0 {
			rv = tbl.ColumnData(p.rightIdx).Value(r)
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if p.op.Holds(storage.Compare(lv, rv)) {
			return true
		}
	}
	return false
}

// mixedKeys reports whether hash-join key columns of types l and r mix
// int64 and float64. Such keys hash by float64 value on both sides, the
// cross-type equality storage.Compare (and so every other join method)
// applies. Any other type mismatch is not comparable.
func mixedKeys(l, r storage.Type) (bool, error) {
	if l == r {
		return false, nil
	}
	if numericType(l) && numericType(r) {
		return true, nil
	}
	return false, fmt.Errorf("executor: hash join keys of types %s and %s are not comparable", l, r)
}

// joinKey is the spill-partition routing key of a non-NULL join key value:
// equal for exactly the key pairs the typed hash table matches.
func joinKey(v storage.Value, mixed bool) string {
	if mixed {
		return storage.Float64(v.AsFloat()).Key()
	}
	return v.Key()
}

// joinTable is a hash join's build side: right-input rows grouped by a
// typed key, probed with left-input rows.
type joinTable interface {
	// match appends one (l, r) pair to lsel/rsel per build row r whose
	// key equals left row l's. A NULL left key matches nothing.
	match(l int, lsel, rsel []int) ([]int, []int)
}

// typedTable is the joinTable over key columns of one Go type.
type typedTable[K comparable] struct {
	lk    []K
	ln    []bool
	build map[K][]int
}

func newTypedTable[K comparable](lk, rk []K, ln, rn []bool) *typedTable[K] {
	build := make(map[K][]int, len(rk))
	for r, k := range rk {
		if rn != nil && rn[r] {
			continue
		}
		build[k] = append(build[k], r)
	}
	return &typedTable[K]{lk: lk, ln: ln, build: build}
}

func (t *typedTable[K]) match(l int, lsel, rsel []int) ([]int, []int) {
	if t.ln != nil && t.ln[l] {
		return lsel, rsel
	}
	for _, r := range t.build[t.lk[l]] {
		lsel = append(lsel, l)
		rsel = append(rsel, r)
	}
	return lsel, rsel
}

// buildJoinTable builds the typed hash table over right's key column rKey
// for probing with left's key column lKey, whose types mixedKeys has
// accepted. The returned release frees the key scratch.
func (e *Executor) buildJoinTable(left, right *storage.Table, lKey, rKey int) (joinTable, func()) {
	ld, rd := left.ColumnData(lKey), right.ColumnData(rKey)
	switch {
	case ld.Type != rd.Type || ld.Type == storage.TypeFloat64:
		lk, rk := floatKeys(ld), floatKeys(rd)
		arena := int64(8 * (cap(lk) + cap(rk)))
		e.gov.ChargeBytes(arena) // key-arena scratch, released with the join
		return newTypedTable(lk, rk, ld.Nulls, rd.Nulls), func() {
			keyArena.Put(lk)
			keyArena.Put(rk)
			e.gov.ReleaseBytes(arena)
		}
	case ld.Type == storage.TypeInt64:
		return newTypedTable(ld.Ints, rd.Ints, ld.Nulls, rd.Nulls), func() {}
	case ld.Type == storage.TypeString:
		return newTypedTable(ld.Strs, rd.Strs, ld.Nulls, rd.Nulls), func() {}
	default:
		return newTypedTable(ld.Bools, rd.Bools, ld.Nulls, rd.Nulls), func() {}
	}
}

// floatKeys maps a numeric column to hashable float64 bit patterns (int64
// values converted to float64). -0.0 maps to 0.0, matching Value.Key()'s
// float encoding and storage.Compare.
func floatKeys(d storage.ColumnData) []uint64 {
	if d.Type == storage.TypeInt64 {
		out := keyArena.Get(len(d.Ints))
		for _, i := range d.Ints {
			out = append(out, math.Float64bits(float64(i)))
		}
		return out
	}
	out := keyArena.Get(len(d.Floats))
	for _, f := range d.Floats {
		if f == 0 {
			f = 0
		}
		out = append(out, math.Float64bits(f))
	}
	return out
}

// pairProbe probes a joinTable one left row at a time, batching matched
// (left, right) pairs and flushing them through the residual filter and
// the column-wise pair gather into out.
type pairProbe struct {
	e           *Executor
	table       joinTable
	left, right *storage.Table
	residual    compiled
	out         *storage.Table
	stats       *Stats
	lsel, rsel  []int
	arena       int64
	// origin, when set, receives the left row index of every emitted row
	// (the spill path merges partition outputs by it).
	origin *[]int
}

func (e *Executor) newPairProbe(table joinTable, left, right *storage.Table, residual compiled,
	out *storage.Table, stats *Stats) *pairProbe {
	p := &pairProbe{e: e, table: table, left: left, right: right, residual: residual, out: out,
		stats: stats, lsel: selArena.Get(colBatch), rsel: selArena.Get(colBatch)}
	p.arena = int64(8 * (cap(p.lsel) + cap(p.rsel)))
	e.gov.ChargeBytes(p.arena) // pair-batch arena scratch, released by close
	return p
}

// row probes left row l, flushing once the pair batch fills.
func (p *pairProbe) row(l int) error {
	p.lsel, p.rsel = p.table.match(l, p.lsel, p.rsel)
	if len(p.lsel) >= colBatch {
		return p.flush()
	}
	return nil
}

// flush filters the batched pairs and gathers the survivors into out.
func (p *pairProbe) flush() error {
	if len(p.lsel) == 0 {
		return nil
	}
	fl, fr := filterPairs(p.left, p.right, p.residual, p.lsel, p.rsel, p.stats)
	if len(fl) > 0 {
		if err := p.e.gov.TickRows(int64(len(fl))); err != nil {
			return err
		}
		if err := p.out.AppendPairGather(p.left, p.right, fl, fr); err != nil {
			return err
		}
		if p.origin != nil {
			*p.origin = append(*p.origin, fl...)
		}
	}
	p.lsel, p.rsel = p.lsel[:0], p.rsel[:0]
	return nil
}

// close returns the pair-batch arenas.
func (p *pairProbe) close() {
	selArena.Put(p.lsel)
	selArena.Put(p.rsel)
	p.e.gov.ReleaseBytes(p.arena)
}

// filterPairs applies the residual conjunction to matched pairs, compacting
// lsel/rsel in place. Counting matches compiled.eval per pair: each
// predicate evaluates only over the pairs that survived the previous one.
func filterPairs(left, right *storage.Table, residual compiled, lsel, rsel []int, stats *Stats) ([]int, []int) {
	lcols := left.Schema().NumColumns()
	for _, p := range residual.preds {
		if len(lsel) == 0 {
			return lsel, rsel
		}
		lsel, rsel = predPairSel(left, right, lcols, p, lsel, rsel, stats)
	}
	return lsel, rsel
}

// pairSide resolves a joined-schema column ordinal to the underlying input
// column view and the pair-index slice that addresses it.
func pairSide(left, right *storage.Table, lcols, idx int, lsel, rsel []int) (storage.ColumnData, []int) {
	if idx < lcols {
		return left.ColumnData(idx), lsel
	}
	return right.ColumnData(idx - lcols), rsel
}

// predPairSel filters matched pairs by one residual predicate, compacting
// both selection vectors in place. Every pair counts one comparison.
func predPairSel(left, right *storage.Table, lcols int, p compiledPred, lsel, rsel []int, stats *Stats) ([]int, []int) {
	n := len(lsel)
	stats.Comparisons += int64(n)
	ld, lrows := pairSide(left, right, lcols, p.leftIdx, lsel, rsel)
	isConst := p.rightIdx < 0
	var rd storage.ColumnData
	var rrows []int
	if !isConst {
		rd, rrows = pairSide(left, right, lcols, p.rightIdx, lsel, rsel)
	}
	out := 0
	keep := func(i int) {
		lsel[out] = lsel[i]
		rsel[out] = rsel[i]
		out++
	}
	switch {
	case isConst && p.constant.IsNull():
		// NULL constant: counted, never true.
	case isConst && ld.Type == storage.TypeInt64 && p.constant.Type() == storage.TypeInt64:
		c := p.constant.Int()
		for i := 0; i < n; i++ {
			r := lrows[i]
			if !ld.Null(r) && p.op.Holds(cmpOrd(ld.Ints[r], c)) {
				keep(i)
			}
		}
	case isConst && ld.Type == storage.TypeFloat64 && p.constant.Type() == storage.TypeFloat64:
		c := p.constant.Float()
		for i := 0; i < n; i++ {
			r := lrows[i]
			if !ld.Null(r) && p.op.Holds(cmpOrd(ld.Floats[r], c)) {
				keep(i)
			}
		}
	case isConst && ld.Type == storage.TypeString && p.constant.Type() == storage.TypeString:
		c := p.constant.Str()
		for i := 0; i < n; i++ {
			r := lrows[i]
			if !ld.Null(r) && p.op.Holds(cmpOrd(ld.Strs[r], c)) {
				keep(i)
			}
		}
	case !isConst && ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
		for i := 0; i < n; i++ {
			lr, rr := lrows[i], rrows[i]
			if !ld.Null(lr) && !rd.Null(rr) && p.op.Holds(cmpOrd(ld.Ints[lr], rd.Ints[rr])) {
				keep(i)
			}
		}
	case !isConst && ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
		for i := 0; i < n; i++ {
			lr, rr := lrows[i], rrows[i]
			if !ld.Null(lr) && !rd.Null(rr) && p.op.Holds(cmpOrd(ld.Floats[lr], rd.Floats[rr])) {
				keep(i)
			}
		}
	case !isConst && ld.Type == storage.TypeString && rd.Type == storage.TypeString:
		for i := 0; i < n; i++ {
			lr, rr := lrows[i], rrows[i]
			if !ld.Null(lr) && !rd.Null(rr) && p.op.Holds(cmpOrd(ld.Strs[lr], rd.Strs[rr])) {
				keep(i)
			}
		}
	default:
		// Generic fallback: boxed compare, matching compiled.eval exactly.
		for i := 0; i < n; i++ {
			lv := ld.Value(lrows[i])
			rv := p.constant
			if !isConst {
				rv = rd.Value(rrows[i])
			}
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if p.op.Holds(storage.Compare(lv, rv)) {
				keep(i)
			}
		}
	}
	return lsel[:out], rsel[:out]
}
