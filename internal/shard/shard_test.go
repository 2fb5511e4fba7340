package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/row"
	"repro/internal/storage/colseg"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// shardMedia is one shard's in-memory storage, kept across node
// incarnations so a reopen sees exactly what the shard made durable.
type shardMedia struct {
	dev *disk.MemDevice
	sys *wal.MemBackend
	ims *wal.MemBackend
}

func newMedia(n int) []*shardMedia {
	out := make([]*shardMedia, n)
	for i := range out {
		out[i] = &shardMedia{
			dev: disk.NewMemDevice(0, 0),
			sys: wal.NewMemBackend(),
			ims: wal.NewMemBackend(),
		}
	}
	return out
}

func nodeConfig(media []*shardMedia) Config {
	return Config{
		Shards: len(media),
		Engine: func(i int) core.Config {
			cfg := core.DefaultConfig()
			cfg.IMRSCacheBytes = 8 << 20
			cfg.BufferPoolPages = 256
			cfg.DataDevice = media[i].dev
			cfg.SysLogBackend = media[i].sys
			cfg.IMRSLogBackend = media[i].ims
			return cfg
		},
	}
}

func testSchema() *row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "name", Kind: row.KindString},
		row.Column{Name: "qty", Kind: row.KindInt64},
	)
}

func openNode(t *testing.T, media []*shardMedia) *Node {
	t.Helper()
	n, err := Open(nodeConfig(media))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func createItems(t *testing.T, n *Node) {
	t.Helper()
	if err := n.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{}, nil); err != nil {
		t.Fatal(err)
	}
}

func itemRow(id int64, qty int64) row.Row {
	return row.Row{row.Int64(id), row.String(fmt.Sprintf("n%d", id)), row.Int64(qty)}
}

func pk(id int64) []row.Value { return []row.Value{row.Int64(id)} }

// keysOnDistinctShards returns one key per requested shard index.
func keysOnDistinctShards(r router, shards ...int) []int64 {
	out := make([]int64, len(shards))
	found := 0
	for id := int64(1); found < len(shards); id++ {
		s := r.shardOfKey([]row.Value{row.Int64(id)})
		for k, want := range shards {
			if out[k] == 0 && s == want {
				out[k] = id
				found++
				break
			}
		}
	}
	return out
}

// linesSchema is a table keyed by (w, id): w leads, as a TPC-C
// warehouse id does.
func linesSchema() *row.Schema {
	return row.MustSchema(
		row.Column{Name: "w", Kind: row.KindInt64},
		row.Column{Name: "id", Kind: row.KindInt64},
		row.Column{Name: "qty", Kind: row.KindInt64},
	)
}

// createLines creates a (w, id)-keyed table with one index led by w and
// one that is not.
func createLines(t *testing.T, n *Node, name string) {
	t.Helper()
	if err := n.CreateTable(name, linesSchema(), []string{"w", "id"}, catalog.PartitionSpec{},
		[]catalog.IndexSpec{{Name: name + "_wq", Cols: []string{"w", "qty"}}, {Name: name + "_qty", Cols: []string{"qty"}}}); err != nil {
		t.Fatal(err)
	}
}

func lineRow(w, id, qty int64) row.Row { return row.Row{row.Int64(w), row.Int64(id), row.Int64(qty)} }

func linePK(w, id int64) []row.Value { return []row.Value{row.Int64(w), row.Int64(id)} }

func TestRoutingStableAcrossRestart(t *testing.T) {
	media := newMedia(4)
	n := openNode(t, media)
	createLines(t, n, "lines")
	tx := n.Begin()
	for w := int64(1); w <= 20; w++ {
		for id := int64(1); id <= 10; id++ {
			if err := tx.Insert("lines", lineRow(w, id, w*100+id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Per-shard row totals must sum to 200 and be spread (hash of 20
	// leading values, 4 shards: every shard gets some), and a leading
	// value's rows all sit on the shard it routes to.
	var total int64
	for i := 0; i < 4; i++ {
		rows := n.Engine(i).Store().Rows()
		if rows == 0 {
			t.Fatalf("shard %d empty — router not spreading", i)
		}
		total += rows
	}
	if total != 200 {
		t.Fatalf("rows across shards = %d, want 200", total)
	}
	for w := int64(1); w <= 20; w++ {
		etx := n.Engine(ShardOf(row.Int64(w), 4)).Begin()
		for id := int64(1); id <= 10; id++ {
			if _, ok, err := etx.Get("lines", linePK(w, id)); err != nil || !ok {
				t.Fatalf("row (%d, %d) not on shard %d: ok=%v err=%v", w, id, ShardOf(row.Int64(w), 4), ok, err)
			}
		}
		etx.Abort()
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Same media, fresh node: the fixed-seed router must find every key
	// on the shard that recovered it.
	n2 := openNode(t, media)
	defer n2.Close()
	tx2 := n2.Begin()
	defer tx2.Abort()
	for w := int64(1); w <= 20; w++ {
		for id := int64(1); id <= 10; id++ {
			rw, ok, err := tx2.Get("lines", linePK(w, id))
			if err != nil || !ok || rw[2].Int() != w*100+id {
				t.Fatalf("key (%d, %d) after restart: ok=%v err=%v rw=%v", w, id, ok, err, rw)
			}
		}
	}
}

func TestRouterZeroAllocs(t *testing.T) {
	r := router{n: 8}
	key := []row.Value{row.Int64(12345), row.String("user-9")}
	rw := row.Row{row.Int64(7), row.String("abc"), row.Int64(1)}
	ords := []int{0, 1}
	if n := testing.AllocsPerRun(1000, func() { _ = r.shardOfKey(key) }); n != 0 {
		t.Fatalf("shardOfKey allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = r.shardOfRow(rw, ords) }); n != 0 {
		t.Fatalf("shardOfRow allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = ShardOf(key[0], 8) }); n != 0 {
		t.Fatalf("ShardOf allocs/op = %v, want 0", n)
	}
	// A composite key routes by its leading column through both entry
	// points, whatever the columns after it hold.
	want := ShardOf(row.Int64(7), 8)
	for _, tail := range []string{"abc", "xyz", ""} {
		if got := r.shardOfKey([]row.Value{row.Int64(7), row.String(tail)}); got != want {
			t.Fatalf("shardOfKey(7, %q) = %d, want %d", tail, got, want)
		}
		if got := r.shardOfRow(row.Row{row.Int64(7), row.String(tail), row.Int64(1)}, ords); got != want {
			t.Fatalf("shardOfRow(7, %q) = %d, want %d", tail, got, want)
		}
	}
	// Swapped key order: the row's leading key column is the one named
	// first, not the row's first column.
	if r.shardOfRow(rw, []int{1, 0}) != ShardOf(row.String("abc"), 8) {
		t.Fatal("shardOfRow did not route by the leading key column")
	}
}

// TestLeadingKeyTransactionsCommitOnOneShard: a transaction that writes
// rows sharing a leading key value across three tables touches one
// shard and commits without two-phase commit.
func TestLeadingKeyTransactionsCommitOnOneShard(t *testing.T) {
	n := openNode(t, newMedia(4))
	defer n.Close()
	tables := []string{"districts", "orders", "lines"}
	for _, name := range tables {
		createLines(t, n, name)
	}
	for w := int64(1); w <= 16; w++ {
		tx := n.Begin()
		for k, name := range tables {
			for id := int64(1); id <= 3; id++ {
				if err := tx.Insert(name, lineRow(w, id, int64(k))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c := n.Counters()
	if c.SingleShardCommits != 16 || c.CrossShardCommits != 0 {
		t.Fatalf("counters = %+v, want 16 single-shard commits and no cross-shard one", c)
	}
	for i := 0; i < 4; i++ {
		if p := n.Engine(i).Stats().TwoPC.Prepares; p != 0 {
			t.Fatalf("shard %d prepared %d times, want 0", i, p)
		}
	}
}

// TestRoutedLookupReadsOneShard: a lookup on an index led by the
// leading key column that binds it reads only the shard the value routes
// to, so it returns every match with the other shards halted; a lookup
// on any other index reads every shard and reports them down.
func TestRoutedLookupReadsOneShard(t *testing.T) {
	n := openNode(t, newMedia(3))
	defer n.Close()
	createLines(t, n, "lines")
	tx := n.Begin()
	for w := int64(1); w <= 12; w++ {
		for id := int64(1); id <= 5; id++ {
			if err := tx.Insert("lines", lineRow(w, id, id%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const w = 4
	home := ShardOf(row.Int64(w), 3)
	for i := 0; i < 3; i++ {
		if i != home {
			if err := n.HaltShard(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx = n.Begin()
	defer tx.Abort()
	for _, c := range []struct {
		index string
		vals  []row.Value
		want  int
	}{
		{"lines_pk", []row.Value{row.Int64(w)}, 5},
		{"lines_wq", []row.Value{row.Int64(w)}, 5},
		{"lines_wq", []row.Value{row.Int64(w), row.Int64(1)}, 3},
	} {
		got := 0
		err := tx.LookupCols("lines", c.index, c.vals, nil, func(r row.Row) bool {
			if r[0].Int() != w {
				t.Errorf("%s lookup of %v yielded %v", c.index, c.vals, r)
			}
			got++
			return true
		})
		if err != nil || got != c.want {
			t.Fatalf("%s lookup of %v with shard %d alone up: %d rows, %v; want %d rows, no error", c.index, c.vals, home, got, err, c.want)
		}
	}
	err := tx.LookupCols("lines", "lines_qty", []row.Value{row.Int64(1)}, nil, func(row.Row) bool { return true })
	var pe *PartialResultError
	if !errors.As(err, &pe) || len(pe.Down) != 2 {
		t.Fatalf("lines_qty lookup with two shards down: %v, want a partial result naming both", err)
	}
}

func TestSingleShardCommitCounters(t *testing.T) {
	media := newMedia(4)
	n := openNode(t, media)
	defer n.Close()
	createItems(t, n)

	tx := n.Begin()
	if err := tx.Insert("items", itemRow(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A read-only fan-out scan is also a single-shard (zero-writer) commit.
	tx = n.Begin()
	var seen int
	if err := tx.ScanTable("items", func(row.Row) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("scan saw %d rows, want 1", seen)
	}
	c := n.Counters()
	if c.SingleShardCommits != 2 || c.CrossShardCommits != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestCrossShardCommitAndRecovery(t *testing.T) {
	media := newMedia(4)
	n := openNode(t, media)
	createItems(t, n)
	keys := keysOnDistinctShards(n.r, 0, 2, 3)

	tx := n.Begin()
	for _, id := range keys {
		if err := tx.Insert("items", itemRow(id, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := n.Counters()
	if c.CrossShardCommits != 1 || c.SingleShardCommits != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Shard 0 (lowest writer) coordinated.
	if d := n.Engine(0).Stats().TwoPC.Decisions; d != 1 {
		t.Fatalf("coordinator decisions = %d, want 1", d)
	}
	for _, i := range []int{0, 2, 3} {
		s := n.Engine(i).Stats().TwoPC
		if s.Prepares != 1 || s.PreparedCommits != 1 {
			t.Fatalf("shard %d twopc = %+v", i, s)
		}
	}
	if err := n.Halt(); err != nil {
		t.Fatal(err)
	}

	n2 := openNode(t, media)
	defer n2.Close()
	tx2 := n2.Begin()
	defer tx2.Abort()
	for _, id := range keys {
		if _, ok, err := tx2.Get("items", pk(id)); err != nil || !ok {
			t.Fatalf("cross-shard key %d after restart: ok=%v err=%v", id, ok, err)
		}
	}
}

// crashBetweenPhases drives a cross-shard transaction up to (and
// optionally past) the decision, then crash-halts the whole node —
// exercising the in-doubt resolution paths end to end.
func crashBetweenPhases(t *testing.T, media []*shardMedia, decide bool) (keys []int64) {
	t.Helper()
	n := openNode(t, media)
	createItems(t, n)
	keys = keysOnDistinctShards(n.r, 1, 2)

	tx := n.Begin()
	for _, id := range keys {
		if err := tx.Insert("items", itemRow(id, id)); err != nil {
			t.Fatal(err)
		}
	}
	coord := 1 // lowest writing shard
	gid := tx.subs[coord].ID()
	for _, i := range []int{1, 2} {
		if err := tx.subs[i].Prepare(gid, uint32(coord)); err != nil {
			t.Fatal(err)
		}
	}
	if decide {
		if err := n.Engine(coord).LogDecision(gid, true); err != nil {
			t.Fatal(err)
		}
	}
	// Crash before any CommitPrepared: both participants are in doubt.
	if err := n.Halt(); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestInDoubtRecoveryDecisionDurable(t *testing.T) {
	media := newMedia(4)
	keys := crashBetweenPhases(t, media, true)

	n2 := openNode(t, media)
	defer n2.Close()
	for _, i := range []int{1, 2} {
		rs := n2.Engine(i).Stats().Recovery
		if rs.InDoubt != 1 || rs.InDoubtCommitted != 1 {
			t.Fatalf("shard %d in-doubt counters = %+v", i, rs)
		}
		if got := n2.Engine(i).HealthState(); got != core.StateHealthy {
			t.Fatalf("shard %d health = %v", i, got)
		}
	}
	tx := n2.Begin()
	defer tx.Abort()
	for _, id := range keys {
		if _, ok, err := tx.Get("items", pk(id)); err != nil || !ok {
			t.Fatalf("decided key %d lost: ok=%v err=%v", id, ok, err)
		}
	}
}

func TestInDoubtRecoveryPresumedAbort(t *testing.T) {
	media := newMedia(4)
	keys := crashBetweenPhases(t, media, false)

	n2 := openNode(t, media)
	defer n2.Close()
	for _, i := range []int{1, 2} {
		rs := n2.Engine(i).Stats().Recovery
		if rs.InDoubt != 1 || rs.InDoubtAborted != 1 {
			t.Fatalf("shard %d in-doubt counters = %+v", i, rs)
		}
		if got := n2.Engine(i).HealthState(); got != core.StateHealthy {
			t.Fatalf("shard %d health = %v", i, got)
		}
	}
	tx := n2.Begin()
	defer tx.Abort()
	for _, id := range keys {
		if _, ok, _ := tx.Get("items", pk(id)); ok {
			t.Fatalf("undecided key %d resurrected (presumed abort violated)", id)
		}
	}
}

func TestShardDownFailsCleanly(t *testing.T) {
	media := newMedia(4)
	n := openNode(t, media)
	defer n.Close()
	createItems(t, n)
	keys := keysOnDistinctShards(n.r, 0, 1, 2, 3)

	tx := n.Begin()
	for _, id := range keys {
		if err := tx.Insert("items", itemRow(id, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	victim := 2
	if err := n.HaltShard(victim); err != nil {
		t.Fatal(err)
	}

	// Ops routed to the dead shard fail with the typed error...
	tx = n.Begin()
	_, _, err := tx.Get("items", pk(keys[victim]))
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("get on dead shard: %v, want ErrShardDown", err)
	}
	tx.Abort()

	// ...while survivors keep serving reads and writes.
	tx = n.Begin()
	if _, ok, err := tx.Get("items", pk(keys[0])); err != nil || !ok {
		t.Fatalf("survivor read: ok=%v err=%v", ok, err)
	}
	if _, err := tx.Update("items", pk(keys[0]), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(999)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutStopsWhenCallbackStops: once fn returns false, a fan-out
// read is over — the remaining shards are not scanned and fn is never
// called again.
func TestFanOutStopsWhenCallbackStops(t *testing.T) {
	n := openNode(t, newMedia(3))
	defer n.Close()
	if err := n.CreateTable("items", testSchema(), []string{"id"}, catalog.PartitionSpec{},
		[]catalog.IndexSpec{{Name: "items_qty", Cols: []string{"qty"}}}); err != nil {
		t.Fatal(err)
	}
	tx := n.Begin()
	for i := int64(1); i <= 60; i++ {
		if err := tx.Insert("items", itemRow(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n.Engine(i).Stats().IMRSRows == 0 {
			t.Fatalf("shard %d holds no rows; the test needs every shard populated", i)
		}
	}

	// stopAt returns a callback that returns false on call number k;
	// calls beyond k were made after it stopped the read.
	var calls int
	stopAt := func(k int) func() bool {
		calls = 0
		return func() bool {
			calls++
			return calls < k
		}
	}
	scans := map[string]func(tx *Txn, fn func() bool) error{
		"ScanTable": func(tx *Txn, fn func() bool) error {
			return tx.ScanTable("items", func(row.Row) bool { return fn() })
		},
		"ScanBatches": func(tx *Txn, fn func() bool) error {
			return tx.ScanBatches("items", nil, 4, func(*colseg.Batch) bool { return fn() })
		},
		"IndexScan": func(tx *Txn, fn func() bool) error {
			return tx.IndexScan("items", "items_qty", nil, func(row.Row) bool { return fn() })
		},
	}
	for name, scan := range scans {
		for _, k := range []int{1, 3} {
			tx := n.Begin()
			if err := scan(tx, stopAt(k)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tx.Abort()
			if calls != k {
				t.Errorf("%s: fn returned false on call %d and was called %d more times", name, k, calls-k)
			}
		}
	}
}
