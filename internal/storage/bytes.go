package storage

// Byte accounting for the governor's memory ledger. The model is a fixed
// per-value footprint — int64/float64 8 bytes, bool 1 byte, string 16
// bytes of header plus its content — chosen so that the same total is
// reached whether a materialization is charged value-by-value (row-wise
// emit paths), row-by-row (spill runs), or table-at-once (operator
// outputs): Table.ApproxBytes equals the sum of RowBytes over the
// table's rows exactly. NULLs charge their type's base footprint (the
// column slot is allocated either way); the lazily-built null bitmap is
// deliberately excluded from both sides to keep the equality exact.

// valueBaseBytes is the footprint of one value of the given type,
// excluding string content.
func valueBaseBytes(t Type) int64 {
	switch t {
	case TypeBool:
		return 1
	case TypeString:
		return 16
	default:
		return 8
	}
}

// ValueBytes returns the accounted footprint of one value.
func ValueBytes(v Value) int64 {
	n := valueBaseBytes(v.Type())
	if v.Type() == TypeString && !v.IsNull() {
		n += int64(len(v.s))
	}
	return n
}

// RowBytes returns the accounted footprint of one materialized row.
func RowBytes(vals []Value) int64 {
	var n int64
	for _, v := range vals {
		n += ValueBytes(v)
	}
	return n
}

// ApproxBytes returns the accounted footprint of the whole table under
// the same per-value model, computed column-wise without boxing.
func (t *Table) ApproxBytes() int64 {
	var n int64
	for _, c := range t.cols {
		switch c.typ {
		case TypeInt64:
			n += 8 * int64(len(c.ints))
		case TypeFloat64:
			n += 8 * int64(len(c.floats))
		case TypeBool:
			n += int64(len(c.bools))
		case TypeString:
			n += 16 * int64(len(c.strs))
			for _, s := range c.strs {
				n += int64(len(s))
			}
		}
	}
	return n
}
