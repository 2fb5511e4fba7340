package shard

import (
	"runtime"
	"strings"
	"testing"
	"time"

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
