package sql

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/btrim"
	"repro/internal/catalog"
	"repro/internal/row"
)

// TableError is the typed "no such table" error.
type TableError struct{ Table string }

func (e *TableError) Error() string { return fmt.Sprintf("sql: no such table %q", e.Table) }

// idxMeta is one index of a resolved table, for the compile-time access
// path choice.
type idxMeta struct {
	name    string
	colOrds []int
	unique  bool
}

// tableMeta is a compile-scoped view of one table's schema, resolved
// from the live catalog. Compiled plans stamp the catalog DDL version
// they resolved against and are recompiled when it moves, so a stale
// tableMeta can never execute.
type tableMeta struct {
	name    string
	cols    []btrim.Column
	ords    map[string]int
	pkOrds  []int
	indexes []idxMeta
}

func resolveTable(cat *catalog.Catalog, name string) (*tableMeta, error) {
	t := cat.Table(name)
	if t == nil {
		return nil, &TableError{Table: name}
	}
	m := &tableMeta{name: name, pkOrds: t.PKOrds, ords: make(map[string]int, t.Schema.NumColumns())}
	m.cols = make([]btrim.Column, t.Schema.NumColumns())
	for i := range m.cols {
		c := t.Schema.Column(i)
		m.cols[i] = btrim.Column{Name: c.Name, Type: btrim.ColumnType(c.Kind)}
		m.ords[c.Name] = i
	}
	for _, ix := range t.Indexes {
		m.indexes = append(m.indexes, idxMeta{
			name:    ix.Name,
			colOrds: append([]int(nil), ix.ColOrds...),
			unique:  ix.Unique,
		})
	}
	return m, nil
}

func (m *tableMeta) ord(col string) (int, error) {
	o, ok := m.ords[col]
	if !ok {
		return 0, fmt.Errorf("sql: no column %q in table %s", col, m.name)
	}
	return o, nil
}

// coerce converts a literal to a value of the column's type. Integer
// literals widen to float columns; everything else must match exactly.
func coerce(lit Literal, typ btrim.ColumnType, col string) (btrim.Value, error) {
	switch typ {
	case btrim.Int64Type:
		if lit.Kind == LitInt {
			return btrim.Int64(lit.I), nil
		}
	case btrim.Float64Type:
		if lit.Kind == LitFloat {
			return btrim.Float64(lit.F), nil
		}
		if lit.Kind == LitInt {
			return btrim.Float64(float64(lit.I)), nil
		}
	case btrim.StringType:
		if lit.Kind == LitString {
			return btrim.String(lit.S), nil
		}
	case btrim.BytesType:
		if lit.Kind == LitString {
			return btrim.Bytes([]byte(lit.S)), nil
		}
	}
	if lit.Kind == LitNull {
		return btrim.Null, nil
	}
	if lit.Kind == LitParam {
		return btrim.Null, fmt.Errorf("sql: unbound %s (column %s)", lit, col)
	}
	return btrim.Null, fmt.Errorf("sql: %s does not fit column %s", lit, col)
}

// coerceValue converts an already-typed bind value to the column's
// type, with the same widening rules as coerce.
func coerceValue(v btrim.Value, typ btrim.ColumnType, col string) (btrim.Value, error) {
	if v.IsNull() {
		return btrim.Null, nil
	}
	switch typ {
	case btrim.Int64Type:
		if v.Kind() == row.KindInt64 {
			return v, nil
		}
	case btrim.Float64Type:
		if v.Kind() == row.KindFloat64 {
			return v, nil
		}
		if v.Kind() == row.KindInt64 {
			return btrim.Float64(float64(v.Int())), nil
		}
	case btrim.StringType:
		if v.Kind() == row.KindString {
			return v, nil
		}
	case btrim.BytesType:
		if v.Kind() == row.KindBytes {
			return v, nil
		}
		if v.Kind() == row.KindString {
			return btrim.Bytes([]byte(v.Str())), nil
		}
	}
	return btrim.Null, fmt.Errorf("sql: %v parameter does not fit column %s", v.Kind(), col)
}

// valSlot is a compiled value position: either a concrete value coerced
// at compile time (param < 0) or a parameter reference resolved against
// the bind args at execution time.
type valSlot struct {
	val   btrim.Value
	param int
	neg   bool // negate the bound numeric value (`- ?`)
	typ   btrim.ColumnType
	col   string
}

// compileLit turns a parsed literal into a slot targeting the given
// column type.
func compileLit(lit Literal, typ btrim.ColumnType, col string) (valSlot, error) {
	if lit.Kind == LitParam {
		return valSlot{param: int(lit.I), neg: lit.Neg, typ: typ, col: col}, nil
	}
	v, err := coerce(lit, typ, col)
	if err != nil {
		return valSlot{}, err
	}
	return valSlot{param: -1, val: v}, nil
}

// resolve produces the slot's value for this execution.
func (s *valSlot) resolve(args []btrim.Value) (btrim.Value, error) {
	if s.param < 0 {
		return s.val, nil
	}
	if s.param >= len(args) {
		return btrim.Null, fmt.Errorf("sql: missing value for parameter $%d", s.param+1)
	}
	v := args[s.param]
	if s.neg {
		switch v.Kind() {
		case row.KindInt64:
			v = btrim.Int64(-v.Int())
		case row.KindFloat64:
			v = btrim.Float64(-v.Float())
		default:
			return btrim.Null, fmt.Errorf("sql: cannot negate %v parameter $%d", v.Kind(), s.param+1)
		}
	}
	return coerceValue(v, s.typ, s.col)
}

// predSlot is a compiled WHERE conjunct: column ordinal, operator and
// value slot(s). in != nil selects the membership form.
type predSlot struct {
	col  string
	ord  int
	op   CmpOp
	slot valSlot
	in   []valSlot
}

// compilePreds resolves WHERE conjuncts against the table.
func compilePreds(m *tableMeta, preds []Pred) ([]predSlot, error) {
	out := make([]predSlot, 0, len(preds))
	for _, p := range preds {
		o, err := m.ord(p.Col)
		if err != nil {
			return nil, err
		}
		typ := m.cols[o].Type
		ps := predSlot{col: p.Col, ord: o, op: p.Op}
		if p.In != nil {
			ps.in = make([]valSlot, len(p.In))
			for i, lit := range p.In {
				if lit.Kind == LitNull {
					return nil, fmt.Errorf("sql: NULL in IN list is not supported (column %s)", p.Col)
				}
				if ps.in[i], err = compileLit(lit, typ, p.Col); err != nil {
					return nil, err
				}
			}
		} else {
			if p.Lit.Kind == LitNull {
				return nil, fmt.Errorf("sql: NULL comparisons are not supported (column %s)", p.Col)
			}
			if ps.slot, err = compileLit(p.Lit, typ, p.Col); err != nil {
				return nil, err
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// rpred is a predicate resolved for one execution: concrete values in
// place of slots.
type rpred struct {
	ord int
	op  CmpOp
	val btrim.Value
	in  []btrim.Value
}

// resolvePreds materializes predicate values for this execution. A
// parameter bound to NULL in a comparison fails here, matching the
// compile-time rule for literal NULLs.
func resolvePreds(preds []predSlot, args []btrim.Value, buf []rpred) ([]rpred, error) {
	if len(preds) == 0 {
		return buf[:0], nil
	}
	out := buf[:0]
	for i := range preds {
		p := &preds[i]
		r := rpred{ord: p.ord, op: p.op}
		if p.in != nil {
			r.in = make([]btrim.Value, len(p.in))
			for j := range p.in {
				v, err := p.in[j].resolve(args)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					return nil, fmt.Errorf("sql: NULL comparisons are not supported (column %s)", p.col)
				}
				r.in[j] = v
			}
		} else {
			v, err := p.slot.resolve(args)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				return nil, fmt.Errorf("sql: NULL comparisons are not supported (column %s)", p.col)
			}
			r.val = v
		}
		out = append(out, r)
	}
	return out, nil
}

// splitPoint returns the primary-key slots if every PK column is pinned
// by an equality predicate, plus the residual predicates. The executor
// routes the point form to Tx.Get/Update/Delete and everything else to
// an index lookup or scan.
func splitPoint(m *tableMeta, preds []predSlot) (pk []valSlot, residual []predSlot, ok bool) {
	pk = make([]valSlot, len(m.pkOrds))
	used := make([]bool, len(preds))
	for i, pkOrd := range m.pkOrds {
		found := false
		for j := range preds {
			p := &preds[j]
			if !used[j] && p.in == nil && p.op == OpEq && p.ord == pkOrd {
				pk[i] = p.slot
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil, nil, false
		}
	}
	for j := range preds {
		if !used[j] {
			residual = append(residual, preds[j])
		}
	}
	return pk, residual, true
}

// cmpValues compares a row value with a predicate value of the same
// column type. The bool is false when the comparison is undefined
// (NULL operand), in which case the predicate is false.
func cmpValues(a, b btrim.Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch a.Kind() {
	case row.KindInt64:
		x, y := a.Int(), b.Int()
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	case row.KindFloat64:
		x, y := a.Float(), b.Float()
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	case row.KindString:
		return strings.Compare(a.Str(), b.Str()), true
	case row.KindBytes:
		return bytes.Compare(a.Raw(), b.Raw()), true
	}
	return 0, false
}

func applyOp(cmp int, op CmpOp) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// rowMatches evaluates resolved predicates against a full row.
func rowMatches(preds []rpred, r btrim.Row) bool {
	for i := range preds {
		p := &preds[i]
		if p.in != nil {
			hit := false
			for _, v := range p.in {
				if cmp, ok := cmpValues(r[p.ord], v); ok && cmp == 0 {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
			continue
		}
		cmp, ok := cmpValues(r[p.ord], p.val)
		if !ok || !applyOp(cmp, p.op) {
			return false
		}
	}
	return true
}

// vecMatches evaluates one predicate against batch row i of vector v.
func vecMatches(v *btrim.Vec, i int, p *rpred) bool {
	if v.IsNull(i) {
		return false
	}
	if p.in != nil {
		for _, pv := range p.in {
			if cmp, ok := vecCmp(v, i, pv); ok && cmp == 0 {
				return true
			}
		}
		return false
	}
	cmp, ok := vecCmp(v, i, p.val)
	return ok && applyOp(cmp, p.op)
}

// vecCmp compares batch row i of vector v with a predicate value of
// the column's type. The bool is false for incomparable kinds.
func vecCmp(v *btrim.Vec, i int, pv btrim.Value) (int, bool) {
	switch v.Kind {
	case row.KindInt64:
		x, y := v.I64[i], pv.Int()
		if x < y {
			return -1, true
		} else if x > y {
			return 1, true
		}
		return 0, true
	case row.KindFloat64:
		x, y := v.F64[i], pv.Float()
		if x < y {
			return -1, true
		} else if x > y {
			return 1, true
		}
		return 0, true
	case row.KindString:
		return strings.Compare(string(v.Str[i]), pv.Str()), true
	case row.KindBytes:
		return bytes.Compare(v.Str[i], pv.Raw()), true
	default:
		return 0, false
	}
}

// dedupValues removes duplicate values in place (IN lists are sets:
// `pk IN (1, 1)` must not return the row twice). Lists are small, so
// the quadratic scan beats building a hash set.
func dedupValues(vals []btrim.Value) []btrim.Value {
	out := vals[:0]
next:
	for _, v := range vals {
		for _, u := range out {
			if cmp, ok := cmpValues(u, v); ok && cmp == 0 {
				continue next
			}
		}
		out = append(out, v)
	}
	return out
}

// sortedTableNames lists catalog tables for SHOW TABLES.
func sortedTableNames(cat *catalog.Catalog) []string {
	ts := cat.Tables()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}
