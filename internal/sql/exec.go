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

// bindScratch holds per-execution buffers recycled across statements,
// so the hot EXECUTE path stays near zero allocations: resolved keys and
// predicates, the row a point read decodes into, and the values of the
// result being built.
type bindScratch struct {
	vals  []btrim.Value
	preds []rpred
	read  btrim.Row
	out   []btrim.Value // the result's rows, back to back

	// The row sink of the SELECT being run: its plan and resolved
	// predicates, and emit bound once per scratch, so handing it to the
	// engine costs no allocation per statement.
	plan   *selPlan
	rps    []rpred
	emitFn func(btrim.Row) bool
}

// maxScratchVals bounds the result buffer a pooled scratch keeps, so
// one huge SELECT does not pin its size.
const maxScratchVals = 4096

var scratchPool = sync.Pool{New: func() any {
	sc := &bindScratch{vals: make([]btrim.Value, 0, 8), preds: make([]rpred, 0, 8)}
	sc.emitFn = sc.emit
	return sc
}}

// emit appends the output columns of a row read as the plan's readCols
// (its values are the reader's to keep) if it passes the predicates,
// and reports whether the result wants more rows.
func (sc *bindScratch) emit(r btrim.Row) bool {
	if rowMatches(sc.rps, r) {
		for _, o := range sc.plan.outPos {
			sc.out = append(sc.out, r[o])
		}
	}
	return !sc.plan.full(sc.out)
}

// row returns the scratch row, width values wide and cleared.
func (sc *bindScratch) row(width int) btrim.Row {
	if cap(sc.read) < width {
		sc.read = make(btrim.Row, width)
	}
	sc.read = sc.read[:width]
	clear(sc.read)
	return sc.read
}

// put returns sc to the pool without the values it held.
func (sc *bindScratch) put() {
	sc.plan, sc.rps = nil, nil
	clear(sc.read)
	clear(sc.out)
	if cap(sc.out) > maxScratchVals {
		sc.out = nil
	}
	sc.out = sc.out[:0]
	scratchPool.Put(sc)
}

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

// selPlan is a compiled SELECT. Every access path reads only readCols
// (the output columns, then the predicate columns not among them): the
// scan pushes them into its batch projection, the point and index
// paths into the engine's projected decode (GetCols, LookupCols), so a
// column nobody asked for is neither decompressed nor copied.
type selPlan struct {
	meta    *tableMeta
	outCols []string
	limit   int64
	kind    selKind

	readCols []string   // outCols ∪ predicate columns
	readOrds []int      // schema ordinals of readCols
	preds    []predSlot // what the access path leaves, ord rebased onto readCols
	outPos   []int      // outCols positions in readCols

	pkSlots   []valSlot // selPoint
	inSlots   []valSlot // selMultiGet, selIndexMulti
	indexName string    // selIndex, selIndexMulti
	keySlots  []valSlot // selIndex: equality prefix, index column order
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
	preds, err := compilePreds(m, st.Where)
	if err != nil {
		return nil, err
	}
	p.kind = selScan
	residual := preds
	if len(preds) > 0 {
		if pk, rest, ok := splitPoint(m, preds); ok {
			p.kind, p.pkSlots, residual = selPoint, pk, rest
		} else if j := multiGetPred(m, preds); j >= 0 {
			p.kind, p.inSlots = selMultiGet, preds[j].in
			residual = slices.Delete(slices.Clone(preds), j, j+1)
		} else if name, keys, rest, ok := chooseIndex(m, preds); ok {
			p.kind, p.indexName, p.keySlots, residual = selIndex, name, keys, rest
		} else if name, in, rest, ok := chooseIndexIn(m, preds); ok {
			p.kind, p.indexName, p.inSlots, residual = selIndexMulti, name, in, rest
		}
	}
	p.project(residual)
	return p.run, nil
}

// multiGetPred returns the position of an IN predicate on a one-column
// primary key, or -1.
func multiGetPred(m *tableMeta, preds []predSlot) int {
	if len(m.pkOrds) != 1 {
		return -1
	}
	for j := range preds {
		if preds[j].in != nil && preds[j].ord == m.pkOrds[0] {
			return j
		}
	}
	return -1
}

// project fixes what the plan reads: the output columns, then the
// columns of the predicates left after the access path, each once, with
// the predicates' ordinals rebased onto that list.
func (p *selPlan) project(preds []predSlot) {
	pos := make(map[string]int, len(p.outCols)+len(preds))
	add := func(c string) int {
		if i, ok := pos[c]; ok {
			return i
		}
		pos[c] = len(p.readCols)
		p.readCols = append(p.readCols, c)
		p.readOrds = append(p.readOrds, p.meta.ords[c])
		return pos[c]
	}
	p.outPos = make([]int, len(p.outCols))
	for i, c := range p.outCols {
		p.outPos[i] = add(c)
	}
	p.preds = make([]predSlot, len(preds))
	for i, pr := range preds {
		pr.ord = add(pr.col)
		p.preds[i] = pr
	}
}

// full reports whether out holds the LIMIT's rows.
func (p *selPlan) full(out []btrim.Value) bool {
	return p.limit >= 0 && int64(len(out)/len(p.outPos)) >= p.limit
}

func (p *selPlan) run(tx Txn, args []btrim.Value) (*Result, error) {
	res := &Result{Cols: p.outCols, Msg: "SELECT"}
	if p.limit == 0 {
		return res, nil
	}
	sc := scratchPool.Get().(*bindScratch)
	defer sc.put()
	rps, err := resolvePreds(p.preds, args, sc.preds)
	if err != nil {
		return nil, err
	}
	sc.preds = rps[:0]

	if p.kind == selScan {
		stop := false
		err = tx.ScanBatches(p.meta.name, p.readCols, 0, func(b *btrim.Batch) bool {
		rows:
			for i := 0; i < b.Len(); i++ {
				for j := range rps {
					if !vecMatches(&b.Cols[rps[j].ord], i, &rps[j]) {
						continue rows
					}
				}
				for _, o := range p.outPos {
					sc.out = append(sc.out, b.Cols[o].Value(i)) // owned: the batch is reused
				}
				if p.full(sc.out) {
					stop = true
					return false
				}
			}
			return true
		})
		if stop {
			err = nil
		}
		return p.finish(res, sc.out, err)
	}

	sc.plan, sc.rps = p, rps
	switch p.kind {
	case selPoint:
		pk, err := resolveSlots(p.pkSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = pk[:0]
		r := sc.row(len(p.readOrds))
		ok, err := getCols(tx, p.meta.name, pk, p.readOrds, r)
		if err != nil {
			return nil, err
		}
		if ok {
			sc.emit(r)
		}
	case selMultiGet:
		vals, err := resolveSlots(p.inSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = vals[:0]
		vals = dedupValues(vals)
		r := sc.row(len(p.readOrds))
		for i := range vals {
			ok, err := getCols(tx, p.meta.name, vals[i:i+1], p.readOrds, r)
			if err != nil {
				return nil, err
			}
			if ok && !sc.emit(r) {
				break
			}
		}
	case selIndex:
		keys, err := resolveSlots(p.keySlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = keys[:0]
		err = lookupCols(tx, p.meta.name, p.indexName, keys, p.readOrds, sc.emitFn)
		return p.finish(res, sc.out, err)
	case selIndexMulti:
		vals, err := resolveSlots(p.inSlots, args, sc.vals)
		if err != nil {
			return nil, err
		}
		sc.vals = vals[:0]
		vals = dedupValues(vals)
		var partial error
		for i := range vals {
			err := lookupCols(tx, p.meta.name, p.indexName, vals[i:i+1], p.readOrds, sc.emitFn)
			if errors.Is(err, btrim.ErrPartialResult) {
				partial, err = err, nil
			}
			if err != nil {
				return nil, err
			}
			if p.full(sc.out) {
				break
			}
		}
		return p.finish(res, sc.out, partial)
	}
	return p.finish(res, sc.out, nil)
}

// finish ends a read: the values gathered in out become the result's
// rows, carved out of one array (two allocations whatever the row
// count). A SELECT tolerates shards that are down mid-fan-out: the rows
// from healthy shards are returned with the partial-result notice as a
// warning. Writes never get this treatment.
func (p *selPlan) finish(res *Result, out []btrim.Value, err error) (*Result, error) {
	if err != nil && !errors.Is(err, btrim.ErrPartialResult) {
		return nil, err
	}
	if err != nil {
		res.Warning = err.Error()
	}
	if w := len(p.outPos); len(out) > 0 {
		vals := slices.Clone(out)
		res.Rows = make([]btrim.Row, len(vals)/w)
		for i := range res.Rows {
			res.Rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
		}
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

// assignSlot is one compiled SET item. ord and refOrd index the whole
// row, at and refAt the plan's setCols.
type assignSlot struct {
	ord    int
	slot   valSlot
	refOrd int // >= 0 selects the arithmetic read-modify-write form
	at     int
	refAt  int
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

// set applies the SET items to r with the values resolved for this
// execution (p.avals): r is the whole row, or with projected only the
// plan's setCols. The arithmetic form reads the locked current row
// image, so concurrent `SET v = v + 1` sessions never lose increments.
func (p *writePlan) set(r btrim.Row, projected bool) error {
	for i := range p.assigns {
		a := &p.assigns[i]
		dst, ref := a.ord, a.refOrd
		if projected {
			dst, ref = a.at, a.refAt
		}
		if ref < 0 {
			r[dst] = p.avals[i]
			continue
		}
		if r[ref].IsNull() || p.avals[i].IsNull() {
			return fmt.Errorf("sql: arithmetic on NULL column")
		}
		switch a.typ {
		case btrim.Int64Type:
			d := p.avals[i].Int()
			if a.neg {
				d = -d
			}
			r[dst] = btrim.Int64(r[ref].Int() + d)
		case btrim.Float64Type:
			d := p.avals[i].Float()
			if a.neg {
				d = -d
			}
			r[dst] = btrim.Float64(r[ref].Float() + d)
		}
	}
	return nil
}

// writePlan is the shared compiled shape of UPDATE and DELETE: a point
// path when the WHERE pins the full primary key, a collect-then-mutate
// scan otherwise.
//
// An UPDATE binds its row callbacks once, at compile time, over values
// it resolves per execution into avals: a plan runs on its session's
// goroutine, one execution at a time. setCols lists, ascending, the
// columns its SET items write and read; when none is a primary-key
// column the update goes through UpdateCols over them (setVals), else
// through Update over the whole row (setRow).
type writePlan struct {
	meta     *tableMeta
	assigns  []assignSlot // nil for DELETE
	preds    []predSlot   // scan path
	point    bool
	pkSlots  []valSlot
	residual []predSlot
	verb     string

	avals   []btrim.Value
	setCols []int
	setVals func(btrim.Row) error
	setRow  func(btrim.Row) (btrim.Row, error)
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
		p.bindSet()
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

// bindSet sizes avals, lists setCols and binds the row callbacks.
func (p *writePlan) bindSet() {
	p.avals = make([]btrim.Value, len(p.assigns))
	p.setRow = func(r btrim.Row) (btrim.Row, error) { return r, p.set(r, false) }
	for _, a := range p.assigns {
		p.setCols = append(p.setCols, a.ord, a.refOrd) // refOrd -1 sorts first
	}
	slices.Sort(p.setCols)
	p.setCols = slices.Compact(p.setCols)
	if p.setCols[0] < 0 {
		p.setCols = p.setCols[1:]
	}
	if slices.ContainsFunc(p.setCols, func(o int) bool { return slices.Contains(p.meta.pkOrds, o) }) {
		p.setCols = nil // SET v = pk + 1: a read UpdateCols refuses
		return
	}
	for i := range p.assigns {
		a := &p.assigns[i]
		a.at, a.refAt = slices.Index(p.setCols, a.ord), slices.Index(p.setCols, a.refOrd)
	}
	p.setVals = func(vals btrim.Row) error { return p.set(vals, true) }
}

func compileUpdate(cat *catalog.Catalog, st *Update) (func(Txn, []btrim.Value) (*Result, error), error) {
	return compileWrite(cat, st.Table, st.Assigns, st.Where, "UPDATE")
}

func compileDelete(cat *catalog.Catalog, st *Delete) (func(Txn, []btrim.Value) (*Result, error), error) {
	return compileWrite(cat, st.Table, nil, st.Where, "DELETE")
}

func (p *writePlan) run(tx Txn, args []btrim.Value) (*Result, error) {
	for i := range p.assigns {
		v, err := p.assigns[i].slot.resolve(args)
		if err != nil {
			return nil, err
		}
		p.avals[i] = v
	}
	apply := func(pk []btrim.Value) (bool, error) {
		switch {
		case p.assigns == nil:
			return tx.Delete(p.meta.name, pk...)
		case p.setCols != nil:
			return updateCols(tx, p.meta.name, pk, p.setCols, p.setVals)
		}
		return tx.Update(p.meta.name, pk, p.setRow)
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
