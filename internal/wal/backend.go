// Package wal implements the two write-ahead logs of the BTrim
// architecture: syslogs, the redo/undo log for page-store changes, and
// sysimrslogs, the redo-only log for IMRS changes (paper Section II).
// Both are append-only record streams with group flush; the engine
// composes them and recovery replays them in lock-step order.
package wal

import (
	"fmt"
	"os"
	"sync"
)

// Backend is the append-only byte store under a log.
type Backend interface {
	// Append writes p at the current end and returns the offset at which
	// p begins. It must not retain p: the log reuses the buffer for its
	// next round.
	Append(p []byte) (int64, error)
	// ReadAt reads len(p) bytes at offset off.
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the current end offset.
	Size() (int64, error)
	// Truncate discards everything past size bytes. Recovery uses it to
	// cut a torn final frame off the log before new appends resume, and
	// a poisoned log uses it to scrub frames whose committers were told
	// the commit failed.
	Truncate(size int64) error
	// Sync durably flushes appended bytes.
	Sync() error
	Close() error
}

// MemBackend is an in-memory Backend for tests and benchmarks. It keeps
// the log in chunks of memChunk bytes, each made once at full capacity,
// so a log of any length occupies about its size rounded up to a chunk
// and appending never copies what is already logged: one array grown by
// append would, at every growth, copy it and hold both copies at once.
type MemBackend struct {
	mu     sync.RWMutex
	chunks [][]byte // every chunk but the last holds memChunk bytes
	size   int64
}

const memChunk = 1 << 20

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// Append implements Backend.
func (b *MemBackend) Append(p []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	off := b.size
	for len(p) > 0 {
		i := int(b.size / memChunk)
		if i == len(b.chunks) {
			b.chunks = append(b.chunks, make([]byte, 0, memChunk))
		}
		n := min(len(p), memChunk-len(b.chunks[i]))
		b.chunks[i] = append(b.chunks[i], p[:n]...)
		p, b.size = p[n:], b.size+int64(n)
	}
	return off, nil
}

// ReadAt implements Backend.
func (b *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if off > b.size || off == b.size && len(p) > 0 {
		return 0, fmt.Errorf("wal: read at %d beyond end %d", off, b.size)
	}
	n := 0
	for n < len(p) && off < b.size {
		k := copy(p[n:], b.chunks[off/memChunk][off%memChunk:])
		n, off = n+k, off+int64(k)
	}
	if n < len(p) {
		return n, fmt.Errorf("wal: short read at %d", off)
	}
	return n, nil
}

// Size implements Backend.
func (b *MemBackend) Size() (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.size, nil
}

// Sync implements Backend (no-op).
func (b *MemBackend) Sync() error { return nil }

// Close implements Backend (no-op).
func (b *MemBackend) Close() error { return nil }

// Clone returns an independent copy of the backend's current durable
// content (crash-simulation tests).
func (b *MemBackend) Clone() *MemBackend {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := &MemBackend{}
	for _, ch := range b.chunks {
		_, _ = c.Append(ch) // appending to a MemBackend cannot fail
	}
	return c
}

// Truncate implements Backend. Tests also use it directly to simulate
// a medium that lost its tail in a crash (torn final frames).
func (b *MemBackend) Truncate(n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= b.size {
		return nil
	}
	keep := int((n + memChunk - 1) / memChunk)
	clear(b.chunks[keep:]) // let the cut chunks go
	b.chunks = b.chunks[:keep]
	if keep > 0 {
		b.chunks[keep-1] = b.chunks[keep-1][:n-int64(keep-1)*memChunk]
	}
	b.size = n
	return nil
}

// FileBackend is a file-backed Backend.
type FileBackend struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

// OpenFileBackend opens (creating if needed) the log file at path.
func OpenFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	return &FileBackend{f: f, size: fi.Size()}, nil
}

// Append implements Backend.
func (b *FileBackend) Append(p []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	off := b.size
	if _, err := b.f.WriteAt(p, off); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	b.size += int64(len(p))
	return off, nil
}

// ReadAt implements Backend.
func (b *FileBackend) ReadAt(p []byte, off int64) (int, error) {
	return b.f.ReadAt(p, off)
}

// Size implements Backend.
func (b *FileBackend) Size() (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size, nil
}

// Truncate implements Backend.
func (b *FileBackend) Truncate(n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.f.Truncate(n); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if n < b.size {
		b.size = n
	}
	return nil
}

// Sync implements Backend.
func (b *FileBackend) Sync() error { return b.f.Sync() }

// Close implements Backend.
func (b *FileBackend) Close() error { return b.f.Close() }
