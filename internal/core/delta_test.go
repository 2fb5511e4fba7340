package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/rid"
	"repro/internal/row"
	"repro/internal/wal"
)

// Tests of the column update (UpdateCols), the delta record IMRS
// updates log, and its replay.

func wideSchema() *row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "name", Kind: row.KindString},
		row.Column{Name: "qty", Kind: row.KindInt64},
		row.Column{Name: "price", Kind: row.KindFloat64},
		row.Column{Name: "note", Kind: row.KindString},
		row.Column{Name: "blob", Kind: row.KindBytes},
	)
}

func createWide(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.CreateTable("wide", wideSchema(), []string{"id"}, catalog.PartitionSpec{},
		[]catalog.IndexSpec{{Name: "wide_name", Cols: []string{"name"}}}); err != nil {
		t.Fatal(err)
	}
}

// randValue draws a value of kind k: NULL, or strings and bytes from
// empty to a few dozen bytes, so updates grow and shrink rows.
func randValue(rng *rand.Rand, k row.Kind) row.Value {
	if rng.Intn(6) == 0 {
		return row.Null
	}
	switch k {
	case row.KindInt64:
		return row.Int64(rng.Int63n(1000) - 500)
	case row.KindFloat64:
		return row.Float64(float64(rng.Intn(1000)) / 8)
	case row.KindString:
		return row.String(fmt.Sprintf("%.*s", rng.Intn(40), "a string long enough to cut at any length here"))
	}
	b := make([]byte, rng.Intn(24))
	rng.Read(b)
	return row.Bytes(b)
}

// encoded is the image of r. Decode and encode are inverse on every
// image (FuzzRowDecode), so rows with equal encodings come from
// byte-identical images.
func encoded(t *testing.T, s *row.Schema, r row.Row) []byte {
	t.Helper()
	b, err := row.Encode(s, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUpdateColsMatchesUpdate is the property test of the column
// update: on two engines fed the same random updates, UpdateCols and
// Update(mutate) leave byte-identical row images and log byte-identical
// records. The updates set NULLs and values, grow and shrink strings,
// touch the indexed column (UpdateCols's whole-row path) and update a
// row twice in one transaction (a delta on the transaction's own
// version).
func TestUpdateColsMatchesUpdate(t *testing.T) {
	cols, upd := openEngine(t, nil), openEngine(t, nil)
	s := wideSchema()
	rng := rand.New(rand.NewSource(1))
	const rows = 16
	for _, e := range []*Engine{cols, upd} {
		createWide(t, e)
		tx := e.Begin()
		for id := int64(1); id <= rows; id++ {
			r := row.Row{row.Int64(id)}
			for o := 1; o < s.NumColumns(); o++ {
				r = append(r, randValue(rand.New(rand.NewSource(id*10+int64(o))), s.Column(o).Kind))
			}
			if err := tx.Insert("wide", r); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 400; i++ {
		txc, txu := cols.Begin(), upd.Begin()
		defer txc.Abort() // a no-op once committed; lets a failed test close
		defer txu.Abort()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			id := 1 + rng.Int63n(rows)
			var set []int
			for o := 1; o < s.NumColumns(); o++ {
				if rng.Intn(3) == 0 {
					set = append(set, o)
				}
			}
			vals := make(row.Row, len(set))
			for j, o := range set {
				vals[j] = randValue(rng, s.Column(o).Kind)
			}
			nc, nu := len(txc.imrsRecs), len(txu.imrsRecs)
			okc, err := txc.UpdateCols("wide", pk(id), set, func(v row.Row) error {
				copy(v, vals)
				return nil
			})
			if err != nil || !okc {
				t.Fatalf("UpdateCols(%d, %v): %v %v", id, set, okc, err)
			}
			oku, err := txu.Update("wide", pk(id), func(r row.Row) (row.Row, error) {
				for j, o := range set {
					r[o] = vals[j]
				}
				return r, nil
			})
			if err != nil || !oku {
				t.Fatalf("Update(%d, %v): %v %v", id, set, oku, err)
			}
			rc, ru := txc.imrsRecs[nc:], txu.imrsRecs[nu:]
			if len(rc) != len(ru) || len(rc) != 1 || rc[0].Type != ru[0].Type || !bytes.Equal(rc[0].After, ru[0].After) {
				t.Fatalf("update %d of row %d, columns %v: UpdateCols logged %v, Update logged %v", i, id, set, rc, ru)
			}
		}
		mustCommit(t, txc)
		mustCommit(t, txu)
	}
	txc, txu := cols.Begin(), upd.Begin()
	defer txc.Abort()
	defer txu.Abort()
	for id := int64(1); id <= rows; id++ {
		rc, _, err1 := txc.Get("wide", pk(id))
		ru, _, err2 := txu.Get("wide", pk(id))
		if err1 != nil || err2 != nil || !bytes.Equal(encoded(t, s, rc), encoded(t, s, ru)) {
			t.Fatalf("row %d: UpdateCols left %v (%v), Update %v (%v)", id, rc, err1, ru, err2)
		}
	}
	if n := countRecords(t, cols)[wal.RecIMRSDelta]; n == 0 {
		t.Fatal("no update was logged as a delta")
	}
}

// countRecords counts a live engine's sysimrslogs records by type.
func countRecords(t *testing.T, e *Engine) map[wal.RecType]int {
	t.Helper()
	rdr, err := e.imrslog.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	n := map[wal.RecType]int{}
	for {
		rec, err := rdr.Next()
		if err != nil {
			return n
		}
		n[rec.Type]++
	}
}

func TestUpdateColsRejects(t *testing.T) {
	e := openEngine(t, nil)
	createWide(t, e)
	tx := e.Begin()
	defer tx.Abort()
	if err := tx.Insert("wide", row.Row{row.Int64(1), row.String("n"), row.Int64(2), row.Null, row.Null, row.Null}); err != nil {
		t.Fatal(err)
	}
	keep := func(row.Row) error { return nil }
	for _, cols := range [][]int{{0, 2}, {3, 2}, {2, 2}, {6}, {-1}} {
		if _, err := tx.UpdateCols("wide", pk(1), cols, keep); err == nil {
			t.Errorf("UpdateCols over %v accepted", cols)
		}
	}
	if _, err := tx.UpdateCols("wide", pk(1), []int{0}, keep); !errors.Is(err, ErrPKChange) {
		t.Errorf("UpdateCols of the key: %v, want ErrPKChange", err)
	}
	if _, err := tx.UpdateCols("wide", pk(1), []int{2}, func(v row.Row) error {
		v[0] = row.String("not an int")
		return nil
	}); err == nil {
		t.Error("UpdateCols accepted a value of the wrong kind")
	}
	// An update nested in fn has buffers of its own.
	if err := tx.Insert("wide", row.Row{row.Int64(2), row.String("m"), row.Int64(5), row.Null, row.Null, row.Null}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateCols("wide", pk(1), []int{2, 3}, func(v row.Row) error {
		if _, err := tx.UpdateCols("wide", pk(2), []int{2}, func(w row.Row) error {
			w[0] = row.Int64(w[0].Int() * 10)
			return nil
		}); err != nil {
			return err
		}
		v[0], v[1] = row.Int64(v[0].Int()+1), row.Float64(0.5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r1, _, _ := tx.Get("wide", pk(1))
	r2, _, _ := tx.Get("wide", pk(2))
	if r1[2].Int() != 3 || r1[3].Float() != 0.5 || r2[2].Int() != 50 {
		t.Fatalf("after the nested update: %v and %v", r1, r2)
	}
}

// TestInsertDuplicateLeavesNothing: without a search ahead of it, a
// duplicate insert fails at its index insert and unwinds, on the IMRS
// path and on the page-store path alike: no IMRS entry, RID-map slot,
// heap row, index or hash entry or log record stays behind, for a
// duplicate primary key and for a duplicate of a unique secondary key
// whose primary-key entry went in first.
func TestInsertDuplicateLeavesNothing(t *testing.T) {
	for _, imrs := range []bool{true, false} {
		t.Run(fmt.Sprintf("imrs=%v", imrs), func(t *testing.T) {
			e := openEngine(t, nil)
			if _, err := e.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{},
				[]catalog.IndexSpec{{Name: "items_name", Cols: []string{"name"}, Unique: true}}); err != nil {
				t.Fatal(err)
			}
			if err := e.PinTable("items", imrs); err != nil {
				t.Fatal(err)
			}
			tx := e.Begin()
			if err := tx.Insert("items", itemRow(1, "a", 1)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			state := func() string {
				rt, err := e.table("items")
				if err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				for _, ix := range rt.indexes {
					n, err := ix.tree.Count()
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%s=%d ", ix.def.Name, n)
					if ix.hash != nil {
						fmt.Fprintf(&b, "hash=%d ", ix.hash.Len())
					}
				}
				rows := 0
				tx := e.Begin()
				defer tx.Abort()
				if err := tx.ScanTable("items", func(row.Row) bool { rows++; return true }); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "imrs=%d rmap=%d rows=%d", e.Store().Rows(), e.rmap.LenRaw(), rows)
				return b.String()
			}
			before := state()
			tx = e.Begin()
			for _, dup := range []row.Row{itemRow(1, "b", 2), itemRow(2, "a", 2)} {
				if err := tx.Insert("items", dup); !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("insert of %v: %v, want ErrDuplicateKey", dup, err)
				}
			}
			if tx.HasWrites() {
				t.Fatalf("failed inserts left %d syslogs and %d sysimrslogs records", len(tx.sysRecs), len(tx.imrsRecs))
			}
			mustCommit(t, tx)
			if after := state(); after != before {
				t.Fatalf("duplicate inserts left state behind:\n before %s\n after  %s", before, after)
			}
		})
	}
}

// TestFrozenRowWrittenTwiceKillsOnce: a transaction that writes a
// frozen row twice stages the kill of its cold copy once: one
// RecSegKill, one unfreeze counted, and the second write reads the
// first one's image. With migration it un-freezes into the IMRS; pinned
// out of the IMRS it un-freezes back to the heap, where the copy, live
// until commit, must not shadow the transaction's own write.
func TestFrozenRowWrittenTwiceKillsOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inMemory bool
		del      bool
	}{{"migrate", true, false}, {"heap", false, false}, {"migrate-then-delete", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := openEngine(t, coldConfig)
			createItems(t, e)
			tx := e.Begin()
			for i := int64(1); i <= 100; i++ {
				if err := tx.Insert("items", itemRow(i, "w", i)); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
			freezeRows(t, e, 100)
			if !tc.inMemory {
				if err := e.PinTable("items", false); err != nil {
					t.Fatal(err)
				}
			}
			bump := func(v row.Row) error {
				v[0] = row.Int64(v[0].Int() + 1000)
				return nil
			}
			tx = e.Begin()
			for i := 0; i < 2; i++ {
				if ok, err := tx.UpdateCols("items", pk(7), []int{2}, bump); err != nil || !ok {
					t.Fatalf("write %d of the frozen row: %v %v", i, ok, err)
				}
			}
			if tc.del {
				if ok, err := tx.Delete("items", pk(7)); err != nil || !ok {
					t.Fatalf("delete after the writes: %v %v", ok, err)
				}
			}
			kills := 0
			for _, r := range tx.sysRecs {
				if r.Type == wal.RecSegKill {
					kills++
				}
			}
			mustCommit(t, tx)
			if kills != 1 {
				t.Fatalf("staged %d cold-copy kills, want 1", kills)
			}
			if cs := e.Stats().ColdStore; cs.Unfreezes != 1 || cs.Kills != 1 {
				t.Fatalf("cold stats: %+v, want one unfreeze and one kill", cs)
			}
			rd := e.Begin()
			defer rd.Abort()
			r, ok, err := rd.Get("items", pk(7))
			switch {
			case err != nil:
				t.Fatal(err)
			case tc.del && ok:
				t.Fatalf("deleted row reads %v", r)
			case !tc.del && (!ok || r[2].Int() != 2007):
				t.Fatalf("row after two writes: %v %v, want qty 2007", r, ok)
			}
		})
	}
}

// The crash harness of the delta chains. A chain runs steps on one
// engine, each changing the rows and the oracle (the rows it must
// hold) together, and records after each its crash point: how long the
// logs were. Every point is then reopened from a copy of the logs cut
// there, and also cut at and inside every record the next step began
// to write, and every row image must equal the oracle's.

type chainStep struct {
	name string
	run  func(t *testing.T, e *Engine, want map[int64]row.Row)
}

type crashPoint struct {
	step string
	sys  int64
	ims  map[uint64]int64 // sysimrslogs length by generation (0: the first backend)
	want map[int64]row.Row
}

func backendSize(t *testing.T, b *wal.MemBackend) int64 {
	t.Helper()
	n, err := b.Size()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// cut copies g's logs cut at sys and ims (by generation) bytes.
func (g *genStorage) cut(t *testing.T, sys int64, ims map[uint64]int64) *genStorage {
	t.Helper()
	c := &genStorage{sharedStorage: &sharedStorage{dev: g.dev, sys: g.sys.Clone(), ims: g.ims.Clone()},
		gens: map[uint64]*wal.MemBackend{}}
	if err := c.sys.Truncate(sys); err != nil {
		t.Fatal(err)
	}
	if err := c.ims.Truncate(ims[0]); err != nil {
		t.Fatal(err)
	}
	for gen, n := range ims {
		if gen != 0 {
			c.gens[gen] = g.gens[gen].Clone()
			if err := c.gens[gen].Truncate(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// frameStarts lists where each record of b between from and to starts.
func frameStarts(t *testing.T, b *wal.MemBackend, from, to int64) []int64 {
	t.Helper()
	l, err := wal.NewLog(b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for {
		rec, err := rdr.Next()
		if err != nil {
			return out
		}
		if at := int64(rec.LSN) - 1; at > from && at < to {
			out = append(out, at)
		}
	}
}

// checkOracle reopens st and compares every row in ids with want.
func checkOracle(t *testing.T, label string, st *genStorage, cfg func(*Config), ids []int64, want map[int64]row.Row) *Engine {
	t.Helper()
	e, err := Open(st.config(cfg))
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	tx := e.Begin()
	defer tx.Abort()
	s := testSchema()
	for _, id := range ids {
		got, ok, err := tx.Get("items", pk(id))
		w, wok := want[id]
		if err != nil || ok != wok || ok && !bytes.Equal(encoded(t, s, got), encoded(t, s, w)) {
			t.Fatalf("%s: row %d = %v (found %v, %v), want %v (found %v)", label, id, got, ok, err, w, wok)
		}
	}
	return e
}

// runChain runs setup, checkpoints, runs the steps recording a crash
// point after each, crashes, and checks every point; it returns the
// storage as the crash left it.
func runChain(t *testing.T, cfg func(*Config), setup func(t *testing.T, e *Engine, want map[int64]row.Row), steps []chainStep) *genStorage {
	t.Helper()
	g := newGenStorage()
	e, err := Open(g.config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	want := map[int64]row.Row{}
	setup(t, e, want)
	// Steps change no heap page a later point would not also hold on
	// the shared data device.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	point := func(name string) crashPoint {
		p := crashPoint{step: name, sys: backendSize(t, g.sys), ims: map[uint64]int64{0: backendSize(t, g.ims)}, want: maps.Clone(want)}
		for gen, b := range g.gens {
			p.ims[gen] = backendSize(t, b)
		}
		return p
	}
	points := []crashPoint{point("setup")}
	for _, s := range steps {
		s.run(t, e, want)
		points = append(points, point(s.name))
	}
	if err := e.Halt(); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, p := range points {
		for id := range p.want {
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
	}
	for i, p := range points {
		checkOracle(t, "after "+p.step, g.cut(t, p.sys, p.ims), cfg, ids, p.want).Halt()
		if i == 0 {
			continue
		}
		prev := points[i-1]
		gen := uint64(0)
		for g := range p.ims {
			gen = max(gen, g)
		}
		if _, same := prev.ims[gen]; !same {
			continue // the step switched generations (compaction)
		}
		b := g.ims
		if gen != 0 {
			b = g.gens[gen]
		}
		// Cut inside the step: the sysimrslogs tail at, or torn inside,
		// each record it wrote before its commit made it durable; and
		// the whole IMRS half durable beside a syslogs cut before the
		// step, where a mixed transaction's decision lies.
		for _, at := range frameStarts(t, b, prev.ims[gen], p.ims[gen]) {
			for _, n := range []int64{at, at + 5} {
				ims := maps.Clone(prev.ims)
				ims[gen] = n
				checkOracle(t, fmt.Sprintf("inside %s at byte %d", p.step, n), g.cut(t, prev.sys, ims), cfg, ids, prev.want).Halt()
			}
		}
		if p.sys != prev.sys {
			checkOracle(t, p.step+" without its syslogs half", g.cut(t, prev.sys, p.ims), cfg, ids, prev.want).Halt()
		}
	}
	return g
}

// setQty updates the qty of each id through UpdateCols, in one
// transaction, and records it in want.
func setQty(t *testing.T, e *Engine, want map[int64]row.Row, qty int64, ids ...int64) {
	t.Helper()
	tx := e.Begin()
	for _, id := range ids {
		if ok, err := tx.UpdateCols("items", pk(id), []int{2}, func(v row.Row) error {
			v[0] = row.Int64(qty)
			return nil
		}); err != nil || !ok {
			t.Fatalf("UpdateCols(%d): %v %v", id, ok, err)
		}
		want[id] = itemRow(id, want[id][1].Str(), qty)
	}
	mustCommit(t, tx)
}

func insertRows(t *testing.T, e *Engine, want map[int64]row.Row, name string, ids ...int64) {
	t.Helper()
	tx := e.Begin()
	for _, id := range ids {
		want[id] = itemRow(id, name, id)
		if err := tx.Insert("items", want[id]); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
}

// cacheRows inserts ids into the page store and reads them back, which
// caches them in the IMRS as rows sysimrslogs does not hold.
func cacheRows(t *testing.T, e *Engine, want map[int64]row.Row, ids ...int64) {
	t.Helper()
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, want, "paged", ids...)
	if err := e.PinTable("items", true); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for _, id := range ids {
		if _, ok, err := tx.Get("items", pk(id)); err != nil || !ok {
			t.Fatalf("read of page-store row %d: %v %v", id, ok, err)
		}
	}
	mustCommit(t, tx)
	for _, id := range ids {
		if en := e.rmap.Get(e.mustRID(t, id)); en == nil || en.Logged() {
			t.Fatalf("row %d: entry %v, want a cached row the log does not hold", id, en)
		}
	}
}

func (e *Engine) mustRID(t *testing.T, id int64) rid.RID {
	t.Helper()
	rt, err := e.table("items")
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := rt.indexes[0].tree.Search(row.EncodeKey(nil, row.Int64(id)))
	if err != nil || !ok {
		t.Fatalf("row %d not indexed: %v", id, err)
	}
	return r
}

// TestDeltaChainCrashRecovery crashes at every point of the delta
// chains (see runChain) and checks each recovered row image against a
// full-image oracle.
func TestDeltaChainCrashRecovery(t *testing.T) {
	quiet := func(c *Config) { c.PackInterval = time.Hour }
	t.Run("cached-full-then-delta", func(t *testing.T) {
		g := runChain(t, quiet, func(t *testing.T, e *Engine, want map[int64]row.Row) {
			cacheRows(t, e, want, 1, 2, 3)
		}, []chainStep{
			{"full image", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 10, 1)
			}},
			{"delta", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 11, 1)
			}},
			{"full image then own delta", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 20, 2, 2, 1)
			}},
		})
		if n := imrsTypes(t, g.ims); n[wal.RecIMRSUpdate] != 2 || n[wal.RecIMRSDelta] != 3 {
			t.Fatalf("sysimrslogs holds %v, want 2 full images and 3 deltas", n)
		}
	})
	t.Run("compaction-then-delta", func(t *testing.T) {
		g := runChain(t, quiet, func(t *testing.T, e *Engine, want map[int64]row.Row) {
			insertRows(t, e, want, "hot", 1, 2)
			cacheRows(t, e, want, 3)
		}, []chainStep{
			{"delta", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 5, 1)
			}},
			{"compaction", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				if err := e.CompactIMRSLog(); err != nil {
					t.Fatal(err)
				}
			}},
			{"delta after compaction", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 6, 1, 3)
			}},
		})
		if n := imrsTypes(t, g.gens[1]); n[wal.RecIMRSDelta] != 2 || n[wal.RecIMRSUpdate] != 0 {
			t.Fatalf("compacted generation holds %v, want the cached row's update as a delta too", n)
		}
	})
	t.Run("mixed-imrs-heap", func(t *testing.T) {
		runChain(t, quiet, func(t *testing.T, e *Engine, want map[int64]row.Row) {
			insertRows(t, e, want, "hot", 1, 2)
			if err := e.PinTable("items", false); err != nil {
				t.Fatal(err)
			}
			insertRows(t, e, want, "paged", 10, 11)
		}, []chainStep{
			{"mixed", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 7, 1, 10)
			}},
			{"mixed again", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 8, 11, 1, 2)
			}},
		})
	})
	t.Run("prepared-in-doubt", func(t *testing.T) {
		abort := func(c *Config) {
			quiet(c)
			c.TwoPCResolver = func(uint64, uint32) TwoPCOutcome { return TwoPCAbort }
		}
		var committed map[int64]row.Row
		g := runChain(t, abort, func(t *testing.T, e *Engine, want map[int64]row.Row) {
			insertRows(t, e, want, "hot", 1, 2)
		}, []chainStep{
			{"delta", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 3, 1)
			}},
			{"prepare", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				committed = maps.Clone(want)
				tx := e.Begin()
				for _, id := range []int64{1, 2} {
					if _, err := tx.UpdateCols("items", pk(id), []int{2}, func(v row.Row) error {
						v[0] = row.Int64(-id)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					committed[id] = itemRow(id, "hot", -id)
				}
				if err := tx.Prepare(77, 1); err != nil {
					t.Fatal(err)
				}
			}},
		})
		e := checkOracle(t, "in doubt, resolved commit", g, func(c *Config) {
			quiet(c)
			c.TwoPCResolver = func(uint64, uint32) TwoPCOutcome { return TwoPCCommit }
		}, []int64{1, 2}, committed)
		defer e.Close()
		if rs := e.Stats().Recovery; rs.InDoubtCommitted != 1 {
			t.Fatalf("in-doubt counters %+v", rs)
		}
	})
	t.Run("torn-tail", func(t *testing.T) {
		g := runChain(t, quiet, func(t *testing.T, e *Engine, want map[int64]row.Row) {
			insertRows(t, e, want, "hot", 1, 2, 3)
		}, []chainStep{
			{"deltas", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				setQty(t, e, want, 100, 1, 2, 3)
			}},
			{"whole-row update", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				tx := e.Begin()
				if _, err := tx.Update("items", pk(2), func(r row.Row) (row.Row, error) {
					r[1] = row.String("a longer name than before")
					return r, nil
				}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
				want[2] = itemRow(2, "a longer name than before", 100)
			}},
			{"shrink", func(t *testing.T, e *Engine, want map[int64]row.Row) {
				tx := e.Begin()
				if _, err := tx.Update("items", pk(2), func(r row.Row) (row.Row, error) {
					r[1], r[2] = row.String(""), row.Int64(-2)
					return r, nil
				}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
				want[2] = itemRow(2, "", -2)
			}},
		})
		if n := imrsTypes(t, g.ims); n[wal.RecIMRSDelta] != 5 || n[wal.RecIMRSUpdate] != 0 {
			t.Fatalf("sysimrslogs holds %v, want every update of the inserted rows as a delta", n)
		}
	})
}

// imrsTypes counts the records of one sysimrslogs backend by type.
func imrsTypes(t *testing.T, b *wal.MemBackend) map[wal.RecType]int {
	t.Helper()
	l, err := wal.NewLog(b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	n := map[wal.RecType]int{}
	for {
		rec, err := rdr.Next()
		if err != nil {
			return n
		}
		n[rec.Type]++
	}
}

// TestRecoveryDeltaWithoutBase: a delta whose row no earlier record
// holds fails recovery with ErrDeltaWithoutBase and makes no entry.
func TestRecoveryDeltaWithoutBase(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(nil))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)
	part := e.table0(t, "items").cat.ID
	if err := e.Halt(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.NewLog(st.ims)
	if err != nil {
		t.Fatal(err)
	}
	d := append([]byte{2}, row.AppendEncoded(row.Row{row.Int64(9)}, nil)...)
	for _, rec := range []wal.Record{
		{Type: wal.RecIMRSDelta, TxnID: 1 << 40, RID: rid.NewVirtual(part, 1), After: d},
		{Type: wal.RecIMRSCommit, TxnID: 1 << 40, CommitTS: 1 << 40},
	} {
		if _, err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st.config(nil)); !errors.Is(err, ErrDeltaWithoutBase) {
		t.Fatalf("recovery of a delta without a base: %v, want ErrDeltaWithoutBase", err)
	}
}
