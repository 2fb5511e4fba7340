package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rid"
)

// fetches returns how many page fetches the tree's pool has served.
func fetches(tr *Tree) int64 {
	st := tr.pool.Stats()
	return st.Hits.Load() + st.Misses.Load()
}

// prefixLeaves counts the leaves that hold at least one key with prefix.
func prefixLeaves(t *testing.T, tr *Tree, prefix []byte) int {
	t.Helper()
	f, err := tr.descendShared(prefix)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		buf := f.Page().Bytes()
		has, past := false, false
		for i := 0; i < numKeys(buf); i++ {
			k := keyAt(buf, i)
			if bytes.HasPrefix(k, prefix) {
				has = true
			} else if bytes.Compare(k, prefix) > 0 {
				past = true
			}
		}
		if has {
			n++
		}
		next := f.Page().Next()
		tr.release(f, false)
		if past || next == noChild {
			return n
		}
		if f, err = tr.pool.Fetch(next); err != nil {
			t.Fatal(err)
		}
		tr.latch(f, false, 0)
	}
}

// collectPrefix returns the keys ScanPrefix yields, copied.
func collectPrefix(t *testing.T, tr *Tree, prefix []byte) [][]byte {
	t.Helper()
	var out [][]byte
	if err := tr.ScanPrefix(prefix, func(k []byte, _ rid.RID) bool {
		out = append(out, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanPrefix(t *testing.T) {
	tr := newTree(t, 256)
	// Groups "b" .. "k" of 300 keys each: every group spans leaves, and
	// group boundaries fall inside leaves.
	for g := byte('b'); g <= 'k'; g++ {
		for i := 0; i < 300; i++ {
			if err := tr.Insert([]byte(fmt.Sprintf("%c-%04d", g, i)), rid.RID(int(g)<<16|i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("group", func(t *testing.T) {
		got := collectPrefix(t, tr, []byte("e-"))
		if len(got) != 300 {
			t.Fatalf("prefix e- yielded %d keys, want 300", len(got))
		}
		for i, k := range got {
			if want := fmt.Sprintf("e-%04d", i); string(k) != want {
				t.Fatalf("key %d = %q, want %q", i, k, want)
			}
		}
	})

	t.Run("ends mid-leaf", func(t *testing.T) {
		// "f-001" covers f-0010 .. f-0019, ten keys inside one leaf with
		// more keys after them: the scan must not fetch past that leaf,
		// so it fetches exactly the pages a point search does.
		before := fetches(tr)
		if _, _, err := tr.Search([]byte("f-0010")); err != nil {
			t.Fatal(err)
		}
		searchFetches := fetches(tr) - before
		before = fetches(tr)
		got := collectPrefix(t, tr, []byte("f-001"))
		scanFetches := fetches(tr) - before
		if len(got) != 10 || string(got[0]) != "f-0010" || string(got[9]) != "f-0019" {
			t.Fatalf("prefix f-001 yielded %q", got)
		}
		if scanFetches != searchFetches {
			t.Fatalf("prefix scan fetched %d pages, a point search %d: it read past the prefix", scanFetches, searchFetches)
		}
	})

	t.Run("empty range", func(t *testing.T) {
		for _, p := range []string{"a", "c-9", "e-03000", "fa", "ka", "z", "\xff"} {
			if got := collectPrefix(t, tr, []byte(p)); len(got) != 0 {
				t.Fatalf("prefix %q yielded %q, want nothing", p, got)
			}
		}
	})

	t.Run("fn stops", func(t *testing.T) {
		calls := 0
		if err := tr.ScanPrefix([]byte("g-"), func(k []byte, _ rid.RID) bool {
			calls++
			return calls < 3
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 3 {
			t.Fatalf("fn called %d times after returning false, want 3", calls)
		}
	})

	t.Run("no prefix is a full scan", func(t *testing.T) {
		if got := collectPrefix(t, tr, nil); len(got) != 3000 {
			t.Fatalf("nil prefix yielded %d keys, want 3000", len(got))
		}
	})
}

// TestScanPrefixDuringSplitsAndDeletes scans a prefix that spans several
// leaves while a writer splits leaves inside it and deletes (and
// re-inserts) keys on both sides of it. Every key present for the whole
// scan comes out exactly once and in order, and no key outside the
// prefix comes out.
func TestScanPrefixDuringSplitsAndDeletes(t *testing.T) {
	pool := stressPool(t, 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	// 48-byte keys: about 130 to a leaf.
	pad := func(s string) []byte { return []byte(fmt.Sprintf("%-48s", s)) }
	const stable, outside = 500, 300
	for i := 0; i < stable; i++ {
		if err := tr.Insert(pad(fmt.Sprintf("p%06d", i)), rid.RID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < outside; i++ {
		for _, g := range []string{"o", "q"} {
			if err := tr.Insert(pad(fmt.Sprintf("%s%06d", g, i)), rid.RID(1<<20+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	prefix := []byte("p")
	if n := prefixLeaves(t, tr, prefix); n < 3 {
		t.Fatalf("prefix spans %d leaves, want at least 3", n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			writes.Store(int64(i))
			// Split leaves inside the prefix range ...
			k := pad(fmt.Sprintf("p%06d~churn%d", i%stable, i))
			if err := tr.Insert(k, rid.RID(1<<30+i)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Errorf("churn insert: %v", err)
				return
			}
			// ... and delete and re-insert keys on both sides of it.
			for _, g := range []string{"o", "q"} {
				ok := pad(fmt.Sprintf("%s%06d", g, i%outside))
				if _, _, err := tr.Delete(ok); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				if i%2 == 1 {
					if err := tr.Insert(ok, rid.RID(1<<20+i%outside)); err != nil && !errors.Is(err, ErrDuplicate) {
						t.Errorf("re-insert: %v", err)
						return
					}
				}
			}
		}
	}()

	// Scan for at least 40 rounds and until the writer has split the
	// range's leaves many times over.
	rounds, minWrites := 40, int64(3000)
	if testing.Short() {
		rounds, minWrites = 10, 1000
	}
	for round := 0; (round < rounds || writes.Load() < minWrites) && !t.Failed(); round++ {
		seen := 0
		var prev []byte
		err := tr.ScanPrefix(prefix, func(k []byte, r rid.RID) bool {
			if !bytes.HasPrefix(k, prefix) {
				t.Errorf("round %d: key %q outside the prefix", round, k)
				return false
			}
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("round %d: %q after %q: not strictly ascending", round, k, prev)
				return false
			}
			prev = append(prev[:0], k...)
			if !bytes.Contains(k, []byte("~")) {
				if want := fmt.Sprintf("p%06d", seen); string(bytes.TrimRight(k, " ")) != want {
					t.Errorf("round %d: stable key %q, want %q", round, k, want)
					return false
				}
				seen++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !t.Failed() && seen != stable {
			t.Fatalf("round %d: scan saw %d/%d stable keys", round, seen, stable)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScanAllocs gates the scan's allocations: keys are copied into a
// per-scan arena sized from each leaf, so a scan over 1 000 keys
// allocates O(leaves), not one copy per key.
func TestScanAllocs(t *testing.T) {
	tr := newTree(t, 256)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), rid.RID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := prefixLeaves(t, tr, []byte("key-"))
	if leaves < 2 {
		t.Fatalf("%d keys fill %d leaf, want several", n, leaves)
	}
	for _, tc := range []struct {
		name string
		scan func(fn func([]byte, rid.RID) bool) error
	}{
		{"ScanFrom", func(fn func([]byte, rid.RID) bool) error { return tr.ScanFrom(nil, fn) }},
		{"ScanPrefix", func(fn func([]byte, rid.RID) bool) error { return tr.ScanPrefix([]byte("key-"), fn) }},
	} {
		seen := 0
		count := func([]byte, rid.RID) bool { seen++; return true }
		avg := testing.AllocsPerRun(50, func() {
			seen = 0
			if err := tc.scan(count); err != nil {
				t.Fatal(err)
			}
		})
		if seen != n {
			t.Fatalf("%s saw %d keys, want %d", tc.name, seen, n)
		}
		// Measured 5 over 5 leaves: the arena, the batch and the
		// resume bound, each grown once or twice.
		t.Logf("%s over %d keys in %d leaves: %.1f allocs", tc.name, n, leaves, avg)
		if budget := float64(leaves + 6); avg > budget {
			t.Fatalf("%s over %d keys allocates %.1f, budget %.0f (O(leaves)): keys are copied one by one", tc.name, n, avg, budget)
		}
	}
}
