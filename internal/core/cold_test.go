package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/row"
	"repro/internal/storage/colseg"
)

// coldConfig quiets the background packer so tests drive freezing
// explicitly, and keeps segments small so multi-segment paths run.
func coldConfig(c *Config) {
	c.PackInterval = time.Hour
	c.ILM.InitialTSF = 1
	c.ILM.PackCyclePct = 1.0
	c.ColdSegmentRows = 64
}

// freezeRows drives the packer until at least want rows have been
// frozen into cold segments (the engine must have a single-partition
// "items" table with want IMRS-resident rows).
func freezeRows(t *testing.T, e *Engine, want int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, want)
	e.Packer().SetForceAggressive(true)
	defer e.Packer().SetForceAggressive(false)
	base := e.cold.Stats().RowsFrozen
	for i := 0; i < 50 && e.cold.Stats().RowsFrozen-base < int64(want); i++ {
		e.Packer().Step()
	}
	if got := e.cold.Stats().RowsFrozen - base; got < int64(want) {
		t.Fatalf("froze %d rows, want >= %d", got, want)
	}
}

// idRange returns lo..hi inclusive.
func idRange(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		out = append(out, id)
	}
	return out
}

// getSet is the oracle the scans are checked against: it point-reads
// every id (through the index and the RID map — a read path that shares
// nothing with ScanBatches) and collects the rows found as sorted
// "id|name|qty" strings. Pass every id the test ever inserted: deleted
// ones must come back not-found, which the callers' row counts pin down.
func getSet(t *testing.T, tx *Txn, ids []int64) []string {
	t.Helper()
	var rows []string
	for _, id := range ids {
		rw, ok, err := tx.Get("items", pk(id))
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		if ok {
			rows = append(rows, fmt.Sprintf("%d|%s|%d", rw[0].Int(), rw[1].Str(), rw[2].Int()))
		}
	}
	sort.Strings(rows)
	return rows
}

// checkScans compares both scan entry points — ScanTable and
// ScanBatches at the given batch size — with the point-read oracle over
// ids, and returns the oracle's rows.
func checkScans(t *testing.T, label string, tx *Txn, ids []int64, batchRows int) []string {
	t.Helper()
	want := getSet(t, tx, ids)
	equalSets(t, label+" scan", scanSet(t, tx), want)
	equalSets(t, label+" batches", batchSet(t, tx, batchRows), want)
	return want
}

// scanSet collects a table scan into the same representation.
func scanSet(t *testing.T, tx *Txn) []string {
	t.Helper()
	var rows []string
	if err := tx.ScanTable("items", func(rw row.Row) bool {
		rows = append(rows, fmt.Sprintf("%d|%s|%d", rw[0].Int(), rw[1].Str(), rw[2].Int()))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// batchSet collects a vectorized scan into the same representation.
func batchSet(t *testing.T, tx *Txn, batchRows int) []string {
	t.Helper()
	var rows []string
	err := tx.ScanBatches("items", []string{"id", "name", "qty"}, batchRows, func(b *colseg.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, fmt.Sprintf("%d|%s|%d",
				b.Cols[0].I64[i], string(b.Cols[1].Str[i]), b.Cols[2].I64[i]))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

func equalSets(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestColdFreezeAndRead: rows frozen into column segments stay fully
// readable through every read path — point reads, secondary-index
// lookups, row scans, and vectorized scans — and the compressed
// footprint of the (dictionary- and delta-friendly) data beats raw.
func TestColdFreezeAndRead(t *testing.T) {
	e := openEngine(t, coldConfig)
	createItems(t, e)

	const n = 300
	tx := e.Begin()
	for i := int64(1); i <= n; i++ {
		// Three distinct names (dictionary-friendly), sequential qty
		// (delta-friendly).
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("name-%d", i%3), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	freezeRows(t, e, n)

	cs := e.Stats().ColdStore
	if cs.Segments == 0 || cs.RowsLive != n {
		t.Fatalf("cold stats: %+v, want %d live rows in >0 segments", cs, n)
	}
	if cs.CompressedBytes >= cs.RawBytes {
		t.Fatalf("no compression: %d compressed vs %d raw", cs.CompressedBytes, cs.RawBytes)
	}
	if e.Store().Rows() != 0 {
		t.Fatalf("IMRS still holds %d rows after freeze", e.Store().Rows())
	}

	tx = e.Begin()
	for i := int64(1); i <= n; i++ {
		rw, ok, err := tx.Get("items", pk(i))
		if err != nil || !ok {
			t.Fatalf("frozen row %d: %v %v", i, ok, err)
		}
		if rw[1].Str() != fmt.Sprintf("name-%d", i%3) || rw[2].Int() != i {
			t.Fatalf("frozen row %d corrupted: %v", i, rw)
		}
	}
	// Secondary index still resolves (RIDs were never repointed).
	rows, err := tx.LookupAll("items", "items_name", []row.Value{row.String("name-1")})
	if err != nil || len(rows) != n/3 {
		t.Fatalf("index lookup over frozen rows: %d rows, err %v", len(rows), err)
	}

	for _, br := range []int{1, 7, 64, 1024} {
		if want := checkScans(t, fmt.Sprintf("batch=%d", br), tx, idRange(1, n), br); len(want) != n {
			t.Fatalf("point reads found %d rows, want %d", len(want), n)
		}
	}

	// Projection pushdown: only the requested column comes back.
	var qtySum int64
	if err := tx.ScanBatches("items", []string{"qty"}, 0, func(b *colseg.Batch) bool {
		if len(b.Cols) != 1 {
			t.Fatalf("projected batch has %d cols", len(b.Cols))
		}
		for i := 0; i < b.Len(); i++ {
			qtySum += b.Cols[0].I64[i]
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if qtySum != n*(n+1)/2 {
		t.Fatalf("projected qty sum = %d, want %d", qtySum, n*(n+1)/2)
	}
	mustCommit(t, tx)
}

// TestColdUnfreezeMigrate: the first dirtying update of a frozen row
// pulls it back into the IMRS; the killed segment copy stays visible to
// snapshots taken before the update committed.
func TestColdUnfreezeMigrate(t *testing.T) {
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

	old := e.Begin() // snapshot before the un-freeze
	tx = e.Begin()
	ok, err := tx.Update("items", pk(7), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(-7)
		return r, nil
	})
	if err != nil || !ok {
		t.Fatalf("update frozen row: %v %v", ok, err)
	}
	mustCommit(t, tx)

	// Old snapshot still reads the killed segment copy.
	rw, ok, err := old.Get("items", pk(7))
	if err != nil || !ok || rw[2].Int() != 7 {
		t.Fatalf("old snapshot after unfreeze: %v %v %v", rw, ok, err)
	}
	oldRows := checkScans(t, "old snapshot", old, idRange(1, 100), 16)
	if len(oldRows) != 100 || oldRows[sort.SearchStrings(oldRows, "7|")] != "7|w|7" {
		t.Fatalf("old snapshot wrong: %d rows", len(oldRows))
	}
	mustCommit(t, old)

	// New snapshot reads the IMRS image, exactly once.
	tx = e.Begin()
	rw, ok, err = tx.Get("items", pk(7))
	if err != nil || !ok || rw[2].Int() != -7 {
		t.Fatalf("new snapshot after unfreeze: %v %v %v", rw, ok, err)
	}
	if newRows := checkScans(t, "new snapshot", tx, idRange(1, 100), 16); len(newRows) != 100 {
		t.Fatalf("new snapshot saw %d rows", len(newRows))
	}
	mustCommit(t, tx)

	cs := e.Stats().ColdStore
	if cs.Unfreezes != 1 || cs.Kills != 1 || cs.RowsLive != 99 {
		t.Fatalf("cold stats after unfreeze: %+v", cs)
	}
}

// TestColdUnfreezeToHeap: with migration disabled (table pinned out of
// memory) an update of a frozen row lands in the page store instead,
// repointing indexes as needed; reads and scans stay consistent.
func TestColdUnfreezeToHeap(t *testing.T) {
	e := openEngine(t, coldConfig)
	createItems(t, e)

	tx := e.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("h%d", i%5), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	freezeRows(t, e, 100)
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}

	tx = e.Begin()
	for _, id := range []int64{3, 50, 99} {
		ok, err := tx.Update("items", pk(id), func(r row.Row) (row.Row, error) {
			r[1] = row.String("moved")
			r[2] = row.Int64(-id)
			return r, nil
		})
		if err != nil || !ok {
			t.Fatalf("unfreeze-to-heap %d: %v %v", id, ok, err)
		}
	}
	mustCommit(t, tx)

	tx = e.Begin()
	for _, id := range []int64{3, 50, 99} {
		rw, ok, err := tx.Get("items", pk(id))
		if err != nil || !ok || rw[2].Int() != -id || rw[1].Str() != "moved" {
			t.Fatalf("heap-unfrozen row %d: %v %v %v", id, rw, ok, err)
		}
	}
	// Index repoint: the new name finds all three, the old name none of
	// them.
	moved, err := tx.LookupAll("items", "items_name", []row.Value{row.String("moved")})
	if err != nil || len(moved) != 3 {
		t.Fatalf("index after unfreeze-to-heap: %d rows, err %v", len(moved), err)
	}
	if rows := checkScans(t, "after heap unfreeze", tx, idRange(1, 100), 32); len(rows) != 100 {
		t.Fatalf("%d rows after heap unfreeze", len(rows))
	}
	mustCommit(t, tx)

	if cs := e.Stats().ColdStore; cs.Unfreezes != 3 || cs.RowsLive != 97 {
		t.Fatalf("cold stats after heap unfreeze: %+v", cs)
	}
}

// TestColdDeleteFrozen: deleting a frozen row kills its segment copy.
// Deletes are read-committed (as for every page-store-resident row):
// the row disappears from old snapshots too, consistently across point
// reads (whose index entry is gone) and scans.
func TestColdDeleteFrozen(t *testing.T) {
	e := openEngine(t, coldConfig)
	createItems(t, e)

	tx := e.Begin()
	for i := int64(1); i <= 80; i++ {
		if err := tx.Insert("items", itemRow(i, "d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	freezeRows(t, e, 80)

	old := e.Begin()
	tx = e.Begin()
	ok, err := tx.Delete("items", pk(42))
	if err != nil || !ok {
		t.Fatalf("delete frozen row: %v %v", ok, err)
	}
	mustCommit(t, tx)

	// Read-committed: the delete is visible to the older snapshot too,
	// and point reads agree with the scans.
	if _, ok, err := old.Get("items", pk(42)); err != nil || ok {
		t.Fatalf("deleted frozen row still visible to old snapshot: %v %v", ok, err)
	}
	if got := checkScans(t, "old snapshot", old, idRange(1, 80), 16); len(got) != 79 {
		t.Fatalf("old snapshot saw %d rows, want 79", len(got))
	}
	mustCommit(t, old)

	tx = e.Begin()
	if _, ok, _ := tx.Get("items", pk(42)); ok {
		t.Fatal("deleted frozen row still visible")
	}
	if ok, err := tx.Delete("items", pk(42)); err != nil || ok {
		t.Fatalf("second delete: %v %v", ok, err)
	}
	if got := checkScans(t, "after delete", tx, idRange(1, 80), 16); len(got) != 79 {
		t.Fatalf("%d rows after delete, want 79", len(got))
	}
	mustCommit(t, tx)
}

// TestColdCrashRecovery is the randomized freeze → mutate → crash →
// recover property test: a model map tracks the expected contents while
// rows are frozen, un-frozen by updates, deleted, and re-inserted; a
// crash (Halt without checkpoint) followed by recovery must reproduce
// the model exactly through both scan entry points and point reads.
func TestColdCrashRecovery(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			st := newSharedStorage()
			e, err := Open(st.config(coldConfig))
			if err != nil {
				t.Fatal(err)
			}
			createItems(t, e)
			rng := rand.New(rand.NewSource(seed))
			model := map[int64][2]int64{} // id -> {name variant, qty}

			insert := func(tx *Txn, id int64) {
				nv := rng.Int63n(4)
				if err := tx.Insert("items", itemRow(id, fmt.Sprintf("n%d", nv), id*10)); err != nil {
					t.Fatal(err)
				}
				model[id] = [2]int64{nv, id * 10}
			}
			tx := e.Begin()
			for i := int64(1); i <= 200; i++ {
				insert(tx, i)
			}
			mustCommit(t, tx)
			freezeRows(t, e, 200)

			nextID := int64(201)
			ids := func() []int64 {
				out := make([]int64, 0, len(model))
				for id := range model {
					out = append(out, id)
				}
				sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
				return out
			}
			for round := 0; round < 60; round++ {
				tx := e.Begin()
				for op := 0; op < 1+rng.Intn(3); op++ {
					live := ids()
					switch k := rng.Intn(10); {
					case k < 3 || len(live) == 0: // insert
						insert(tx, nextID)
						nextID++
					case k < 8: // update (un-freezes frozen victims)
						id := live[rng.Intn(len(live))]
						nv := rng.Int63n(4)
						if _, err := tx.Update("items", pk(id), func(r row.Row) (row.Row, error) {
							r[1] = row.String(fmt.Sprintf("n%d", nv))
							r[2] = row.Int64(r[2].Int() + 1)
							return r, nil
						}); err != nil {
							t.Fatal(err)
						}
						m := model[id]
						model[id] = [2]int64{nv, m[1] + 1}
					default: // delete
						id := live[rng.Intn(len(live))]
						if _, err := tx.Delete("items", pk(id)); err != nil {
							t.Fatal(err)
						}
						delete(model, id)
					}
				}
				mustCommit(t, tx)
				if round == 30 {
					// Mid-run freeze of whatever has cooled down again.
					for i := 0; i < 200; i++ {
						e.Clock().Tick()
					}
					e.Packer().SetForceAggressive(true)
					e.Packer().Step()
					e.Packer().SetForceAggressive(false)
				}
			}

			wantRows := func() []string {
				var out []string
				for id, m := range model {
					out = append(out, fmt.Sprintf("%d|n%d|%d", id, m[0], m[1]))
				}
				sort.Strings(out)
				return out
			}()

			check := func(e *Engine, label string) {
				tx := e.Begin()
				// Every id ever inserted goes to the oracle, so deleted
				// ones are checked absent.
				equalSets(t, label+" point reads", checkScans(t, label, tx, idRange(1, nextID-1), 32), wantRows)
				for _, id := range ids() {
					m := model[id]
					rw, ok, err := tx.Get("items", pk(id))
					if err != nil || !ok {
						t.Fatalf("%s: row %d lost: %v %v", label, id, ok, err)
					}
					if rw[1].Str() != fmt.Sprintf("n%d", m[0]) || rw[2].Int() != m[1] {
						t.Fatalf("%s: row %d = %v, want n%d/%d", label, id, rw, m[0], m[1])
					}
				}
				mustCommit(t, tx)
			}
			check(e, "pre-crash")

			e.Halt() // crash: no checkpoint, no clean close
			e2, err := Open(st.config(coldConfig))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer e2.Halt()
			check(e2, "post-recovery")

			// The recovered engine keeps working: un-freeze a recovered
			// frozen row and read it back.
			live := ids()
			victim := live[0]
			tx = e2.Begin()
			if _, err := tx.Update("items", pk(victim), func(r row.Row) (row.Row, error) {
				r[2] = row.Int64(-1)
				return r, nil
			}); err != nil {
				t.Fatalf("post-recovery update: %v", err)
			}
			mustCommit(t, tx)
			tx = e2.Begin()
			rw, ok, err := tx.Get("items", pk(victim))
			if err != nil || !ok || rw[2].Int() != -1 {
				t.Fatalf("post-recovery unfreeze read: %v %v %v", rw, ok, err)
			}
			mustCommit(t, tx)
		})
	}
}

// TestColdStoreDisabled: the baseline knob reverts freezing to the
// legacy page path — no segments appear, rows stay readable.
func TestColdStoreDisabled(t *testing.T) {
	e := openEngine(t, func(c *Config) {
		coldConfig(c)
		c.DisableColdStore = true
	})
	createItems(t, e)

	tx := e.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := tx.Insert("items", itemRow(i, "x", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < 200; i++ {
		e.Clock().Tick()
	}
	waitQueueLen(t, e, 100)
	e.Packer().SetForceAggressive(true)
	e.Packer().Step()
	e.Packer().SetForceAggressive(false)
	if e.Packer().RowsPacked.Load() == 0 {
		t.Fatal("nothing packed")
	}
	if cs := e.Stats().ColdStore; cs.SegmentsWritten != 0 {
		t.Fatalf("segments written with cold store disabled: %+v", cs)
	}
	tx = e.Begin()
	if got := checkScans(t, "cold store disabled", tx, idRange(1, 100), 16); len(got) != 100 {
		t.Fatalf("%d rows", len(got))
	}
	mustCommit(t, tx)
}

// TestScanBatchesAllocBudget: after warm-up, a vectorized scan over
// frozen segments must not allocate per batch — the scratch (batch
// vectors, selection vector, arena) is pooled, and segment strings
// alias the blob. The budget covers the per-CALL fixed costs only; it
// would blow up ~8x if any per-batch or per-row allocation crept in
// (1024 rows / 128-row batches below).
const scanBatchesAllocBudget = 8

func TestScanBatchesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is meaningless")
	}
	e := openEngine(t, func(c *Config) {
		coldConfig(c)
		c.ColdSegmentRows = 256
		c.CheckpointEvery = 0
	})
	createItems(t, e)

	const n = 1024
	tx := e.Begin()
	for i := int64(1); i <= n; i++ {
		if err := tx.Insert("items", itemRow(i, fmt.Sprintf("name-%d", i%7), i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	freezeRows(t, e, n)

	cols := []string{"id", "qty"}
	scan := func(tx *Txn) int64 {
		var sum int64
		var rows int
		if err := tx.ScanBatches("items", cols, 128, func(b *colseg.Batch) bool {
			rows += b.Len()
			for i := 0; i < b.Len(); i++ {
				sum += b.Cols[1].I64[i]
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if rows != n {
			t.Fatalf("scanned %d rows, want %d", rows, n)
		}
		return sum
	}

	rtx := e.Begin()
	defer rtx.Abort()
	for i := 0; i < 10; i++ { // warm the scratch pool
		scan(rtx)
	}
	avg := testing.AllocsPerRun(100, func() {
		if got := scan(rtx); got != int64(n)*(n+1)/2 {
			t.Fatalf("bad sum %d", got)
		}
	})
	t.Logf("vectorized scan: %.1f allocs per 1024-row scan (budget %d)", avg, scanBatchesAllocBudget)
	if avg > scanBatchesAllocBudget {
		t.Fatalf("ScanBatches allocates %.1f per scan, budget %d — per-batch allocation crept in",
			avg, scanBatchesAllocBudget)
	}
}

// TestColdFrozenSlotNotReused: freezing a dirty physical row must keep
// its heap slot occupied while the cold copy is live. The freeze used
// to delete the stale heap copy, freeing the slot for reuse — a later
// page-store insert could then land on the same RID, leaving two
// logical rows behind one RID: the index found the new row's RID, the
// read resolved it through the live cold entry to the frozen row's
// image, and the new row became unreachable (point reads ended in
// ErrRetry, scans dropped it).
func TestColdFrozenSlotNotReused(t *testing.T) {
	st := newSharedStorage()
	e, err := Open(st.config(coldConfig))
	if err != nil {
		t.Fatal(err)
	}
	createItems(t, e)

	// Rows born in the page store (table pinned out of the IMRS).
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}
	const frozen = 40
	tx := e.Begin()
	for i := int64(1); i <= frozen; i++ {
		if err := tx.Insert("items", itemRow(i, "cold", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Updates migrate them into the IMRS as dirty entries that keep
	// their physical RIDs; the freeze then moves those RIDs to the cold
	// store. (If migration didn't trigger, freezeRows fails below — the
	// setup is self-checking.)
	if err := e.UnpinTable("items"); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	for i := int64(1); i <= frozen; i++ {
		ok, err := tx.Update("items", pk(i), func(r row.Row) (row.Row, error) {
			r[2] = row.Int64(i + 1000)
			return r, nil
		})
		if err != nil || !ok {
			t.Fatalf("migrate %d: %v %v", i, ok, err)
		}
	}
	mustCommit(t, tx)
	freezeRows(t, e, frozen)

	// A burst of new page-store inserts. If the freeze freed the heap
	// slots, these reuse them and collide with the live cold copies.
	if err := e.PinTable("items", false); err != nil {
		t.Fatal(err)
	}
	const fresh = 120
	tx = e.Begin()
	for i := int64(1001); i <= 1000+fresh; i++ {
		if err := tx.Insert("items", itemRow(i, "new", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	check := func(e *Engine, label string) {
		tx := e.Begin()
		for i := int64(1); i <= frozen; i++ {
			rw, ok, err := tx.Get("items", pk(i))
			if err != nil || !ok || rw[2].Int() != i+1000 {
				t.Fatalf("%s: frozen row %d: %v %v %v", label, i, rw, ok, err)
			}
		}
		for i := int64(1001); i <= 1000+fresh; i++ {
			rw, ok, err := tx.Get("items", pk(i))
			if err != nil || !ok || rw[2].Int() != i {
				t.Fatalf("%s: new row %d: %v %v %v", label, i, rw, ok, err)
			}
		}
		ids := append(idRange(1, frozen), idRange(1001, 1000+fresh)...)
		if got := checkScans(t, label, tx, ids, 32); len(got) != frozen+fresh {
			t.Fatalf("%s: %d rows, want %d", label, len(got), frozen+fresh)
		}
		mustCommit(t, tx)
	}
	check(e, "live")

	// Crash-recover: replay must reproduce the same pinned-slot state.
	e.Halt()
	e2, err := Open(st.config(coldConfig))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer e2.Halt()
	check(e2, "post-recovery")
}

// TestScanTableRowsOutliveTheBatch: ScanTable hands fn rows it may keep.
// The batches underneath reuse their vectors and arena, so a kept row
// whose strings or bytes still pointed into them would change when the
// next batch is filled.
func TestScanTableRowsOutliveTheBatch(t *testing.T) {
	e := openEngine(t, nil)
	schema := row.MustSchema(
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "s", Kind: row.KindString},
		row.Column{Name: "b", Kind: row.KindBytes},
	)
	if _, err := e.CreateTable("blobs", schema, []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		t.Fatal(err)
	}
	// Several batches' worth of IMRS rows, every value distinct.
	const n = 3*colseg.DefaultSegmentRows + 17
	tx := e.Begin()
	for i := int64(1); i <= n; i++ {
		v := fmt.Sprintf("value-%06d", i)
		if err := tx.Insert("blobs", row.Row{row.Int64(i), row.String(v), row.Bytes([]byte(v))}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	tx = e.Begin()
	var kept []row.Row
	if err := tx.ScanTable("blobs", func(rw row.Row) bool {
		kept = append(kept, rw)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if len(kept) != n {
		t.Fatalf("scan saw %d rows, want %d", len(kept), n)
	}
	for _, rw := range kept {
		want := fmt.Sprintf("value-%06d", rw[0].Int())
		if rw[1].Str() != want || string(rw[2].Raw()) != want {
			t.Fatalf("row %d kept across batches now reads %q / %q", rw[0].Int(), rw[1].Str(), rw[2].Raw())
		}
	}
}
