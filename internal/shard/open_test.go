package shard

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// corruptFirstFrame returns a copy of b with one byte of its first
// frame flipped: a torn frame with valid frames after it, which recovery
// refuses as mid-log corruption.
func corruptFirstFrame(t *testing.T, b *wal.MemBackend) *wal.MemBackend {
	t.Helper()
	size, _ := b.Size()
	buf := make([]byte, size)
	if _, err := b.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	buf[12] ^= 0xff
	c := wal.NewMemBackend()
	_, _ = c.Append(buf)
	return c
}

// TestOpenShardFailureClosesOthers: the shards of a node open at once.
// When one of them cannot recover, Open names it, closes every engine
// that did open, and leaves no goroutine behind.
func TestOpenShardFailureClosesOthers(t *testing.T) {
	media := newMedia(3)
	n := openNode(t, media)
	createItems(t, n)
	tx := n.Begin()
	for i := int64(1); i <= 300; i++ {
		if err := tx.Insert("items", itemRow(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	media[1].sys = corruptFirstFrame(t, media[1].sys)

	baseline := runtime.NumGoroutine()
	if _, err := Open(nodeConfig(media)); err == nil {
		t.Fatal("Open succeeded over a corrupt shard 1 syslog")
	} else if !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("Open error = %v, want it to name shard 1", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines = %d after the failed Open, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLayoutRoutingMark: a node directory records its routing rule. A
// multi-shard directory without the mark (written when the whole key
// was hashed) or with another rule is refused with ErrLayoutMismatch,
// unchanged; a fresh directory is marked, and a one-shard directory,
// whose rows cannot be misrouted, opens without the mark.
func TestLayoutRoutingMark(t *testing.T) {
	open := func(dir string, shards int) (*Node, error) {
		base := core.DefaultConfig()
		base.IMRSCacheBytes = 4 << 20
		base.BufferPoolPages = 64
		return Open(Config{Shards: shards, Dir: dir, Base: base, ResolveInterval: -1})
	}
	mark := func(dir string) string { return filepath.Join(dir, routingMark) }
	reopen := func(dir string, shards int) {
		t.Helper()
		n, err := open(dir, shards)
		if err != nil {
			t.Fatalf("open %s with %d shards: %v", dir, shards, err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(mark(dir)); err != nil || string(b) != routingRule {
			t.Fatalf("mark after open = %q, %v; want %q", b, err, routingRule)
		}
	}

	// A fresh directory is marked and reopens.
	multi := t.TempDir()
	reopen(multi, 2)
	reopen(multi, 0)

	// Without the mark, or with another rule, it is refused unchanged.
	for _, content := range []string{"", "fnv1a(primary key)\n"} {
		_ = os.Remove(mark(multi))
		if content != "" {
			if err := os.WriteFile(mark(multi), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, shards := range []int{0, 2} {
			if n, err := open(multi, shards); !errors.Is(err, ErrLayoutMismatch) {
				if err == nil {
					n.Close()
				}
				t.Fatalf("2-shard directory with mark %q opened with Shards=%d: %v, want ErrLayoutMismatch", content, shards, err)
			}
		}
		if b, _ := os.ReadFile(mark(multi)); string(b) != content {
			t.Fatalf("refused open changed the mark to %q", b)
		}
	}

	// A one-shard directory needs no mark, and gets one.
	single := t.TempDir()
	reopen(single, 1)
	if err := os.Remove(mark(single)); err != nil {
		t.Fatal(err)
	}
	reopen(single, 0)
}
