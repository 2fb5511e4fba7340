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

func TestRoutingStableAcrossRestart(t *testing.T) {
	media := newMedia(4)
	n := openNode(t, media)
	createItems(t, n)
	tx := n.Begin()
	for i := int64(1); i <= 200; i++ {
		if err := tx.Insert("items", itemRow(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Per-shard row totals must sum to 200 and be spread (hash, 4
	// shards, 200 keys: every shard gets some).
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
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Same media, fresh node: the fixed-seed router must find every key
	// on the shard that recovered it.
	n2 := openNode(t, media)
	defer n2.Close()
	tx2 := n2.Begin()
	defer tx2.Abort()
	for i := int64(1); i <= 200; i++ {
		rw, ok, err := tx2.Get("items", pk(i))
		if err != nil || !ok || rw[2].Int() != i {
			t.Fatalf("key %d after restart: ok=%v err=%v rw=%v", i, ok, err, rw)
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
	// Key order must produce identical routing through both entry points.
	if r.shardOfKey([]row.Value{row.Int64(7), row.String("abc")}) != r.shardOfRow(rw, ords) {
		t.Fatal("shardOfKey and shardOfRow disagree")
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
