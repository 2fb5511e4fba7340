package sql

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/btrim"
	"repro/internal/catalog"
)

// compiled is a parameterized, catalog-resolved statement: the lex,
// parse and plan work is done once, and run executes it against a
// vector of bind args. A compiled statement stamps the catalog DDL
// version it resolved against; the session recompiles when the stamp
// goes stale, so a plan can never run against a dropped or recreated
// table's old schema.
type compiled struct {
	version   uint64
	numParams int
	run       func(tx Txn, args []btrim.Value) (*Result, error)
}

// compile resolves and plans one DML statement against the live
// catalog. numParams is the statement's placeholder count (from the
// parser).
func compile(cat *catalog.Catalog, stmt Statement, numParams int) (*compiled, error) {
	// Read the version before resolving: concurrent DDL between the two
	// reads leaves the stamp older than the resolution, which only
	// forces a spurious recompile — never a stale plan.
	c := &compiled{version: cat.Version(), numParams: numParams}
	var err error
	switch st := stmt.(type) {
	case *Select:
		c.run, err = compileSelect(cat, st)
	case *Insert:
		c.run, err = compileInsert(cat, st)
	case *Update:
		c.run, err = compileUpdate(cat, st)
	case *Delete:
		c.run, err = compileDelete(cat, st)
	default:
		return nil, fmt.Errorf("sql: statement %T cannot be compiled", stmt)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// bindScratch holds per-execution buffers (resolved keys and
// predicates) recycled across statements, so the hot EXECUTE path
// stays near zero allocations.
type bindScratch struct {
	vals  []btrim.Value
	preds []rpred
}

var scratchPool = sync.Pool{New: func() any {
	return &bindScratch{vals: make([]btrim.Value, 0, 8), preds: make([]rpred, 0, 8)}
}}

// resolveSlots materializes a slot list into buf.
func resolveSlots(slots []valSlot, args []btrim.Value, buf []btrim.Value) ([]btrim.Value, error) {
	out := buf[:0]
	for i := range slots {
		v, err := slots[i].resolve(args)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// selKind is the access path of a compiled SELECT.
type selKind uint8

const (
	selScan       selKind = iota // vectorized scan with pushed projection
	selPoint                     // full-PK equality → Tx.Get
	selMultiGet                  // single-col PK IN (...) → Get per value
	selIndex                     // index equality prefix → LookupAll
	selIndexMulti                // index first-col IN (...) → LookupAll per value
)

// selPlan is a compiled SELECT.
type selPlan struct {
	meta    *tableMeta
	outCols []string
	outOrds []int // schema ordinals of outCols (row-source paths)
	limit   int64
	kind    selKind

	residual []predSlot // row-source paths: evaluated on fetched rows

	pkSlots   []valSlot // selPoint
	inSlots   []valSlot // selMultiGet, selIndexMulti
	indexName string    // selIndex, selIndexMulti
	keySlots  []valSlot // selIndex: equality prefix, index column order

	scanCols    []string   // selScan: outCols ∪ predicate columns
	scanPreds   []predSlot // selScan: ord rebased onto scanCols
	scanOutOrds []int      // selScan: outCols positions in scanCols
}

// chooseIndex picks the index with the longest equality-pinned column
// prefix (ties broken toward unique indexes). Returns the matched
// predicate slots in index column order plus the residual.
func chooseIndex(m *tableMeta, preds []predSlot) (name string, keys []valSlot, residual []predSlot, ok bool) {
	bestLen := 0
	bestIdx := -1
	bestUnique := false
	for ii, ix := range m.indexes {
		k := 0
		for _, colOrd := range ix.colOrds {
			found := false
			for j := range preds {
				p := &preds[j]
				if p.in == nil && p.op == OpEq && p.ord == colOrd {
					found = true
					break
				}
			}
			if !found {
				break
			}
			k++
		}
		if k > bestLen || (k == bestLen && k > 0 && ix.unique && !bestUnique) {
			bestLen, bestIdx, bestUnique = k, ii, ix.unique
		}
	}
	if bestLen == 0 {
		return "", nil, nil, false
	}
	ix := m.indexes[bestIdx]
	used := make([]bool, len(preds))
	keys = make([]valSlot, bestLen)
	for i := 0; i < bestLen; i++ {
		for j := range preds {
			p := &preds[j]
			if !used[j] && p.in == nil && p.op == OpEq && p.ord == ix.colOrds[i] {
				keys[i] = p.slot
				used[j] = true
				break
			}
		}
	}
	for j := range preds {
		if !used[j] {
			residual = append(residual, preds[j])
		}
	}
	return ix.name, keys, residual, true
}

// chooseIndexIn finds an IN predicate on the first column of some
// index, turning the membership test into one LookupAll per value.
func chooseIndexIn(m *tableMeta, preds []predSlot) (name string, in []valSlot, residual []predSlot, ok bool) {
	for _, ix := range m.indexes {
		for j := range preds {
			p := &preds[j]
			if p.in != nil && p.ord == ix.colOrds[0] {
				residual = append(residual, preds[:j]...)
				residual = append(residual, preds[j+1:]...)
				return ix.name, p.in, residual, true
			}
		}
	}
	return "", nil, nil, false
}

func compileSelect(cat *catalog.Catalog, st *Select) (func(Txn, []btrim.Value) (*Result, error), error) {
	m, err := resolveTable(cat, st.Table)
	if err != nil {
		return nil, err
	}
	p := &selPlan{meta: m, limit: st.Limit}
	if st.Star {
		for _, c := range m.cols {
			p.outCols = append(p.outCols, c.Name)
		}
	} else {
		for _, c := range st.Columns {
			if _, err := m.ord(c); err != nil {
				return nil, err
			}
			p.outCols = append(p.outCols, c)
		}
	}
	p.outOrds = make([]int, len(p.outCols))
	for i, c := range p.outCols {
		p.outOrds[i] = m.ords[c]
	}
	preds, err := compilePreds(m, st.Where)
	if err != nil {
		return nil, err
	}
	if len(preds) > 0 {
		if pk, residual, ok := splitPoint(m, preds); ok {
			p.kind, p.pkSlots, p.residual = selPoint, pk, residual
			return p.run, nil
		}
		if len(m.pkOrds) == 1 {
			for j := range preds {
				if preds[j].in != nil && preds[j].ord == m.pkOrds[0] {
					p.kind, p.inSlots = selMultiGet, preds[j].in
					p.residual = append(p.residual, preds[:j]...)
					p.residual = append(p.residual, preds[j+1:]...)
					return p.run, nil
				}
			}
		}
		if name, keys, residual, ok := chooseIndex(m, preds); ok {
			p.kind, p.indexName, p.keySlots, p.residual = selIndex, name, keys, residual
			return p.run, nil
		}
		if name, in, residual, ok := chooseIndexIn(m, preds); ok {
			p.kind, p.indexName, p.inSlots, p.residual = selIndexMulti, name, in, residual
			return p.run, nil
		}
	}
	// Scan path: push the union of output and predicate columns into the
	// batch projection so unreferenced columns of frozen rows are never
	// decompressed, then rebase predicate ordinals onto that projection.
	p.kind = selScan
	pos := make(map[string]int, len(p.outCols))
	for _, c := range p.outCols {
		if _, dup := pos[c]; !dup {
			pos[c] = len(p.scanCols)
			p.scanCols = append(p.scanCols, c)
		}
	}
	for i := range preds {
		if _, ok := pos[preds[i].col]; !ok {
			pos[preds[i].col] = len(p.scanCols)
			p.scanCols = append(p.scanCols, preds[i].col)
		}
	}
	p.scanPreds = make([]predSlot, len(preds))
	for i, pr := range preds {
		pr.ord = pos[pr.col]
		p.scanPreds[i] = pr
	}
	p.scanOutOrds = make([]int, len(p.outCols))
	for i, c := range p.outCols {
		p.scanOutOrds[i] = pos[c]
	}
	return p.run, nil
}

// rowArena carves the rows of one result out of shared backing arrays.
// Each row is capped at its own width, so an append to one row cannot
// run into the next.
type rowArena struct{ buf []btrim.Value }

// reserve makes room for rows more rows of width values in one array.
func (a *rowArena) reserve(rows, width int) {
	if cap(a.buf)-len(a.buf) < rows*width {
		a.buf = make([]btrim.Value, 0, rows*width)
	}
}

// next returns a fresh row of width values. Without a reserve in
// force, each new array is twice the last, so a result of n rows takes
// O(log n) arrays.
func (a *rowArena) next(width int) btrim.Row {
	if cap(a.buf)-len(a.buf) < width {
		a.reserve(max(2*cap(a.buf)/width, 1), width)
	}
	n := len(a.buf)
	a.buf = a.buf[:n+width]
	return a.buf[n : n+width : n+width]
}

// project copies the output columns of a full schema row.
func (a *rowArena) project(r btrim.Row, ords []int) btrim.Row {
	out := a.next(len(ords))
	for i, o := range ords {
		out[i] = r[o]
	}
	return out
}

// atLimit reports whether res holds the LIMIT's rows.
func (p *selPlan) atLimit(res *Result) bool {
	return p.limit >= 0 && int64(len(res.Rows)) >= p.limit
}

func (p *selPlan) run(tx Txn, args []btrim.Value) (*Result, error) {
	res := &Result{Cols: p.outCols, Msg: "SELECT"}
	if p.limit == 0 {
		return res, nil
	}
	sc := scratchPool.Get().(*bindScratch)
	defer scratchPool.Put(sc)

	if p.kind == selScan {
		rps, err := resolvePreds(p.scanPreds, args, sc.preds)
		if err != nil {
			return nil, err
		}
		sc.preds = rps[:0]
		stop := false
		var arena rowArena
		err = tx.ScanBatches(p.meta.name, p.scanCols, 0, func(b *btrim.Batch) bool {
		rows:
			for i := 0; i < b.Len(); i++ {
				for j := range rps {
					if !vecMatches(&b.Cols[rps[j].ord], i, &rps[j]) {
						continue rows
					}
				}
				out := arena.next(len(p.scanOutOrds))
				for j, o := range p.scanOutOrds {
					out[j] = b.Cols[o].Value(i) // owned: the batch is reused
				}
				res.Rows = append(res.Rows, out)
				if p.atLimit(res) {
					stop = true
					return false
				}
			}
			return true
		})
		if err != nil && !stop {
			// A SELECT tolerates shards that are down mid-fan-out: the rows
			// from healthy shards are returned with the partial-result
			// notice as a warning. Writes never get this treatment.
			if errors.Is(err, btrim.ErrPartialResult) {
				res.Warning = err.Error()
				return res, nil
			}
			return nil, err
		}
		return res, nil
	}

	rps, err := resolvePreds(p.residual, args, sc.preds)
	if err != nil {
		return nil, err
	}
	sc.preds = rps[:0]
	var arena rowArena
	emit := func(r btrim.Row) {
		if rowMatches(rps, r) {
			res.Rows = append(res.Rows, arena.project(r, p.outOrds))
		}
	}
	// reserve sizes the result for n more fetched rows, up to the limit.
	reserve := func(n int) {
		if p.limit >= 0 {
			n = min(n, int(p.limit)-len(res.Rows))
		}
		arena.reserve(n, len(p.outOrds))
		res.Rows = slices.Grow(res.Rows, n)
	}
	switch p.kind {
	case selPoint:
		pk, err := resolveSlots(p.pkSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = pk[:0]
		r, ok, err := tx.Get(p.meta.name, pk...)
		if err != nil {
			return nil, err
		}
		if ok {
			emit(r)
		}
	case selMultiGet:
		vals, err := resolveSlots(p.inSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = vals[:0]
		vals = dedupValues(vals)
		reserve(len(vals))
		for _, v := range vals {
			r, ok, err := tx.Get(p.meta.name, v)
			if err != nil {
				return nil, err
			}
			if ok {
				emit(r)
			}
			if p.atLimit(res) {
				break
			}
		}
	case selIndex:
		keys, err := resolveSlots(p.keySlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = keys[:0]
		rows, err := tx.LookupAll(p.meta.name, p.indexName, keys...)
		if err != nil {
			return nil, err
		}
		reserve(len(rows))
		for _, r := range rows {
			emit(r)
			if p.atLimit(res) {
				break
			}
		}
	case selIndexMulti:
		vals, err := resolveSlots(p.inSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = vals[:0]
		vals = dedupValues(vals)
	outer:
		for _, v := range vals {
			rows, err := tx.LookupAll(p.meta.name, p.indexName, v)
			if err != nil {
				return nil, err
			}
			reserve(len(rows))
			for _, r := range rows {
				emit(r)
				if p.atLimit(res) {
					break outer
				}
			}
		}
	}
	if p.limit >= 0 && int64(len(res.Rows)) > p.limit {
		res.Rows = res.Rows[:p.limit]
	}
	return res, nil
}

// insertPlan is a compiled INSERT: value slots in schema order, one
// list per VALUES tuple.
type insertPlan struct {
	name  string
	slots [][]valSlot
}

func compileInsert(cat *catalog.Catalog, st *Insert) (func(Txn, []btrim.Value) (*Result, error), error) {
	m, err := resolveTable(cat, st.Table)
	if err != nil {
		return nil, err
	}
	// An explicit column list must cover every column (the engine has no
	// defaults); it only allows reordering.
	perm := make([]int, len(m.cols)) // perm[schemaOrd] = position in the VALUES tuple
	if st.Columns == nil {
		for i := range perm {
			perm[i] = i
		}
	} else {
		if len(st.Columns) != len(m.cols) {
			return nil, fmt.Errorf("sql: table %s has %d columns, INSERT names %d",
				m.name, len(m.cols), len(st.Columns))
		}
		for i := range perm {
			perm[i] = -1
		}
		for pos, c := range st.Columns {
			o, err := m.ord(c)
			if err != nil {
				return nil, err
			}
			if perm[o] != -1 {
				return nil, fmt.Errorf("sql: column %q named twice in INSERT", c)
			}
			perm[o] = pos
		}
	}
	p := &insertPlan{name: m.name}
	for _, lits := range st.Rows {
		if len(lits) != len(m.cols) {
			return nil, fmt.Errorf("sql: table %s has %d columns, got %d values",
				m.name, len(m.cols), len(lits))
		}
		slots := make([]valSlot, len(m.cols))
		for o := range m.cols {
			s, err := compileLit(lits[perm[o]], m.cols[o].Type, m.cols[o].Name)
			if err != nil {
				return nil, err
			}
			slots[o] = s
		}
		p.slots = append(p.slots, slots)
	}
	return p.run, nil
}

func (p *insertPlan) run(tx Txn, args []btrim.Value) (*Result, error) {
	var n int64
	for _, slots := range p.slots {
		// The row escapes into the engine's write set: allocate fresh.
		r := make(btrim.Row, len(slots))
		for o := range slots {
			v, err := slots[o].resolve(args)
			if err != nil {
				return nil, err
			}
			r[o] = v
		}
		if err := tx.Insert(p.name, r); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n, Msg: "INSERT"}, nil
}

// assignSlot is one compiled SET item.
type assignSlot struct {
	ord    int
	slot   valSlot
	refOrd int // >= 0 selects the arithmetic read-modify-write form
	neg    bool
	typ    btrim.ColumnType
}

func compileAssigns(m *tableMeta, assigns []Assign) ([]assignSlot, error) {
	out := make([]assignSlot, 0, len(assigns))
	for _, a := range assigns {
		o, err := m.ord(a.Col)
		if err != nil {
			return nil, err
		}
		for _, pkOrd := range m.pkOrds {
			if o == pkOrd {
				return nil, fmt.Errorf("sql: cannot UPDATE primary-key column %q", a.Col)
			}
		}
		typ := m.cols[o].Type
		as := assignSlot{ord: o, refOrd: -1, typ: typ}
		if as.slot, err = compileLit(a.Lit, typ, a.Col); err != nil {
			return nil, err
		}
		if a.RefCol != "" {
			if typ != btrim.Int64Type && typ != btrim.Float64Type {
				return nil, fmt.Errorf("sql: arithmetic SET on non-numeric column %q", a.Col)
			}
			refOrd, err := m.ord(a.RefCol)
			if err != nil {
				return nil, err
			}
			if m.cols[refOrd].Type != typ {
				return nil, fmt.Errorf("sql: type mismatch in SET %s = %s %c ...", a.Col, a.RefCol, a.ArithOp)
			}
			as.refOrd = refOrd
			as.neg = a.ArithOp == '-'
		}
		out = append(out, as)
	}
	return out, nil
}

// mutator builds the Update callback over this execution's resolved
// assign values. The arithmetic form reads the locked current row
// image, so concurrent `SET v = v + 1` sessions never lose increments.
func mutator(assigns []assignSlot, avals []btrim.Value) func(btrim.Row) (btrim.Row, error) {
	return func(r btrim.Row) (btrim.Row, error) {
		for i := range assigns {
			a := &assigns[i]
			if a.refOrd < 0 {
				r[a.ord] = avals[i]
				continue
			}
			if r[a.refOrd].IsNull() || avals[i].IsNull() {
				return nil, fmt.Errorf("sql: arithmetic on NULL column")
			}
			switch a.typ {
			case btrim.Int64Type:
				d := avals[i].Int()
				if a.neg {
					d = -d
				}
				r[a.ord] = btrim.Int64(r[a.refOrd].Int() + d)
			case btrim.Float64Type:
				d := avals[i].Float()
				if a.neg {
					d = -d
				}
				r[a.ord] = btrim.Float64(r[a.refOrd].Float() + d)
			}
		}
		return r, nil
	}
}

// writePlan is the shared compiled shape of UPDATE and DELETE: a point
// path when the WHERE pins the full primary key, a collect-then-mutate
// scan otherwise.
type writePlan struct {
	meta     *tableMeta
	assigns  []assignSlot // nil for DELETE
	preds    []predSlot   // scan path
	point    bool
	pkSlots  []valSlot
	residual []predSlot
	verb     string
}

func compileWrite(cat *catalog.Catalog, table string, assigns []Assign, where []Pred, verb string) (func(Txn, []btrim.Value) (*Result, error), error) {
	m, err := resolveTable(cat, table)
	if err != nil {
		return nil, err
	}
	p := &writePlan{meta: m, verb: verb}
	if assigns != nil {
		if p.assigns, err = compileAssigns(m, assigns); err != nil {
			return nil, err
		}
	}
	preds, err := compilePreds(m, where)
	if err != nil {
		return nil, err
	}
	p.preds = preds
	if len(preds) > 0 {
		if pk, residual, ok := splitPoint(m, preds); ok {
			p.point, p.pkSlots, p.residual = true, pk, residual
		}
	}
	return p.run, nil
}

func compileUpdate(cat *catalog.Catalog, st *Update) (func(Txn, []btrim.Value) (*Result, error), error) {
	return compileWrite(cat, st.Table, st.Assigns, st.Where, "UPDATE")
}

func compileDelete(cat *catalog.Catalog, st *Delete) (func(Txn, []btrim.Value) (*Result, error), error) {
	return compileWrite(cat, st.Table, nil, st.Where, "DELETE")
}

func (p *writePlan) run(tx Txn, args []btrim.Value) (*Result, error) {
	var mutate func(btrim.Row) (btrim.Row, error)
	if p.assigns != nil {
		avals := make([]btrim.Value, len(p.assigns))
		for i := range p.assigns {
			v, err := p.assigns[i].slot.resolve(args)
			if err != nil {
				return nil, err
			}
			avals[i] = v
		}
		mutate = mutator(p.assigns, avals)
	}
	apply := func(pk []btrim.Value) (bool, error) {
		if mutate != nil {
			return tx.Update(p.meta.name, pk, mutate)
		}
		return tx.Delete(p.meta.name, pk...)
	}
	var n int64
	if p.point {
		// Write path: the pk may escape into the write set, so no scratch.
		pk := make([]btrim.Value, len(p.pkSlots))
		for i := range p.pkSlots {
			v, err := p.pkSlots[i].resolve(args)
			if err != nil {
				return nil, err
			}
			pk[i] = v
		}
		if len(p.residual) > 0 {
			rps, err := resolvePreds(p.residual, args, nil)
			if err != nil {
				return nil, err
			}
			r, found, err := tx.Get(p.meta.name, pk...)
			if err != nil {
				return nil, err
			}
			if !found || !rowMatches(rps, r) {
				return &Result{Affected: 0, Msg: p.verb}, nil
			}
		}
		ok, err := apply(pk)
		if err != nil {
			return nil, err
		}
		if ok {
			n = 1
		}
		return &Result{Affected: n, Msg: p.verb}, nil
	}
	rps, err := resolvePreds(p.preds, args, nil)
	if err != nil {
		return nil, err
	}
	pks, err := matchingPKs(tx, p.meta, rps)
	if err != nil {
		return nil, err
	}
	for _, pk := range pks {
		ok, err := apply(pk)
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	return &Result{Affected: n, Msg: p.verb}, nil
}

// matchingPKs collects the primary keys of rows matching preds, for the
// scan forms of UPDATE and DELETE. Keys are collected first and then
// mutated one by one, so the scan snapshot is never chased by its own
// writes. A partial fan-out (down shard) propagates as an error: a
// write predicate evaluated over a partial view would silently skip the
// down shard's rows, so writes must see every shard or fail.
func matchingPKs(tx Txn, m *tableMeta, preds []rpred) ([][]btrim.Value, error) {
	var pks [][]btrim.Value
	err := tx.Scan(m.name, func(r btrim.Row) bool {
		if !rowMatches(preds, r) {
			return true
		}
		pk := make([]btrim.Value, len(m.pkOrds))
		for i, o := range m.pkOrds {
			pk[i] = r[o]
		}
		pks = append(pks, pk)
		return true
	})
	if err != nil {
		return nil, err
	}
	return pks, nil
}
