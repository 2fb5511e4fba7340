package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/row"
	"repro/internal/wal"
)

// TestReclaimWaitsForReadersInCommitWindow pins IMRS-GC's reclamation
// rule against the commit window: a reader that begins while a commit
// holds its timestamp but has not yet stamped or unpublished anything
// reads the pre-commit image, and that image must stay allocated for as
// long as the reader runs — even though the reader's snapshot equals the
// commit timestamp. With the sysimrslogs Sync held, the window stays
// open for as long as the test needs.
func TestReclaimWaitsForReadersInCommitWindow(t *testing.T) {
	update := func(e *Engine) error {
		tx := e.Begin()
		if _, err := tx.Update("items", pk(1), func(r row.Row) (row.Row, error) {
			r[2] = row.Int64(r[2].Int() + 100)
			return r, nil
		}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	pack := func(e *Engine) error {
		e.Packer().Step()
		return nil
	}
	cases := []struct {
		name string
		run  func(*Engine) error
	}{
		{"user-update-commit", update},
		{"pack-commit", pack},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ims := gateOver(wal.NewMemBackend())
			e := openEngine(t, func(c *Config) {
				coldConfig(c)
				c.PackThreads = 1
				c.IMRSLogBackend = ims
			})
			createItems(t, e)
			queueColdItems(t, e, 3)
			rt, err := e.table("items")
			if err != nil {
				t.Fatal(err)
			}
			r0, found, err := rt.indexes[0].tree.Search(row.EncodeKey(nil, pk(1)...))
			if err != nil || !found {
				t.Fatalf("row 1 not indexed: %v", err)
			}

			ims.hold()
			defer ims.release()
			done := make(chan error, 1)
			go func() { done <- tc.run(e) }()
			ims.awaitHeld(t)

			// Inside the window: the commit has its timestamp, its
			// versions are unstamped and its entries still published.
			r := e.Begin()
			defer r.Abort() // on failure; Close waits for open transactions
			en := e.rmap.Get(r0)
			if en == nil {
				t.Fatal("row 1 left the RID map before its commit was durable")
			}
			v := en.Visible(r.Snapshot(), r.ID())
			if v == nil {
				t.Fatal("reader sees no version of row 1")
			}
			want := append([]byte(nil), v.Data()...)

			ims.release()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("commit did not finish after the sync was released")
			}
			e.gc.Drain()
			if got := v.Data(); !bytes.Equal(got, want) {
				t.Fatalf("image freed under an active reader: %q, want %q", got, want)
			}

			r.Abort()
			e.gc.Drain()
			if got := v.Data(); got != nil {
				t.Fatalf("image still allocated after its last reader finished: %q", got)
			}
		})
	}
}

// TestExplainRowRegistersReader checks that ExplainRow decodes IMRS
// images as a registered reader and leaves no registration behind.
func TestExplainRowRegistersReader(t *testing.T) {
	e := openEngine(t, nil)
	createItems(t, e)
	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "widget", 5)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	out := e.ExplainRow("items", pk(1))
	if !strings.Contains(out, "committedVisible=true keyMatch=true") {
		t.Fatalf("explain: %s", out)
	}
	if n := e.snaps.ActiveCount(); n != 0 {
		t.Fatalf("%d reader registrations left behind", n)
	}
}

// TestUpdateReclaimsWhenCacheFull: an update that finds the IMRS full of
// versions the collector could free but has not yet, frees them itself
// and goes on, as it must when busy committers leave the collector
// little CPU. The collector here passes once, beside a long reader that
// keeps that pass from freeing what it collected, and then never again.
func TestUpdateReclaimsWhenCacheFull(t *testing.T) {
	const cache = 1 << 20
	e := openEngine(t, func(c *Config) {
		c.IMRSCacheBytes = cache
		c.PackInterval = time.Hour // nothing leaves the IMRS but garbage
		c.CheckpointEvery = 0
	})
	createItems(t, e)
	tx := e.Begin()
	if err := tx.Insert("items", itemRow(1, "w", 0)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	e.gc.Stop()
	name := strings.Repeat("x", 900)
	update := func(i int) {
		tx := e.Begin()
		if _, err := tx.Update("items", pk(1), func(r row.Row) (row.Row, error) {
			r[1], r[2] = row.String(name), row.Int64(int64(i))
			return r, nil
		}); err != nil {
			tx.Abort()
			t.Fatalf("update %d: %v", i, err)
		}
		mustCommit(t, tx)
	}
	const half = cache * 6 / 10 / 900 // updates filling about 60 % of the cache
	for i := 0; i < half; i++ {
		update(i)
	}
	reader := e.Begin()
	e.gc.Drain()
	reader.Abort()
	for i := half; i < 2*half; i++ {
		update(i)
	}
}
