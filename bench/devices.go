package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// Device wrappers. Every stack the benchmark opens sits on these: they
// count the bytes that reach storage (disk_bytes_per_txn), remember how
// much of each medium was covered by a completed sync, and on crash()
// cut the medium back to that watermark, which is what a machine crash
// leaves behind (killing the process would keep unsynced bytes alive in
// the OS cache). On a traced stack they also record spans.

// walBackend wraps one log's byte store.
type walBackend struct {
	inner wal.Backend
	tr    *tracer // nil on untraced stacks

	appended atomic.Int64 // bytes appended
	syncs    atomic.Int64

	mu     sync.Mutex
	synced int64 // size covered by the last completed Sync
}

func newWalBackend(inner wal.Backend, tr *tracer) *walBackend {
	return &walBackend{inner: inner, tr: tr}
}

func (b *walBackend) Append(p []byte) (int64, error) {
	if b.tr != nil {
		start := b.tr.now()
		off, err := b.inner.Append(p)
		b.tr.walNs.Add(b.tr.now() - start)
		b.appended.Add(int64(len(p)))
		return off, err
	}
	off, err := b.inner.Append(p)
	b.appended.Add(int64(len(p)))
	return off, err
}

func (b *walBackend) ReadAt(p []byte, off int64) (int, error) { return b.inner.ReadAt(p, off) }
func (b *walBackend) Size() (int64, error)                    { return b.inner.Size() }
func (b *walBackend) Close() error                            { return b.inner.Close() }

func (b *walBackend) Truncate(size int64) error {
	if err := b.inner.Truncate(size); err != nil {
		return err
	}
	b.mu.Lock()
	if size < b.synced {
		b.synced = size
	}
	b.mu.Unlock()
	return nil
}

// Sync covers every byte appended before it was called, so the size is
// read first; the watermark moves before Sync returns, hence before the
// engine can acknowledge any commit that depended on it.
func (b *walBackend) Sync() error {
	size, err := b.inner.Size()
	if err != nil {
		return err
	}
	var start int64
	if b.tr != nil {
		start = b.tr.now()
	}
	if err := b.inner.Sync(); err != nil {
		return err
	}
	if b.tr != nil {
		b.tr.walSync(start, b.tr.now())
	}
	b.syncs.Add(1)
	b.mu.Lock()
	if size > b.synced {
		b.synced = size
	}
	b.mu.Unlock()
	return nil
}

// crash discards everything past the synced watermark.
func (b *walBackend) crash() error {
	b.mu.Lock()
	n := b.synced
	b.mu.Unlock()
	return b.inner.Truncate(n)
}

// memDevice is an in-memory page device without modelled latency that
// can also shrink, which disk.MemDevice cannot.
type memDevice struct {
	mu    sync.RWMutex
	pages [][]byte
}

func (d *memDevice) ReadPage(id uint32, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("bench: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(buf, d.pages[id])
	return nil
}

func (d *memDevice) WritePage(id uint32, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("bench: write of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(d.pages[id], buf)
	return nil
}

func (d *memDevice) AllocatePage() (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, disk.PageSize))
	return uint32(len(d.pages) - 1), nil
}

func (d *memDevice) NumPages() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint32(len(d.pages))
}

func (d *memDevice) Sync() error  { return nil }
func (d *memDevice) Close() error { return nil }

func (d *memDevice) shrink(pages uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(pages) < len(d.pages) {
		d.pages = d.pages[:pages]
	}
	return nil
}

// device wraps the data device. Its watermark is the page count at the
// last completed Sync: crash() drops pages allocated after it. Pages
// overwritten since are not rolled back (that would need pre-images);
// under the engine's no-steal policy the device is written only by
// checkpoints, which sync before they are recorded, and recovery treats
// a page newer than the checkpoint as a legal crash state.
type device struct {
	inner disk.Device
	tr    *tracer
	path  string // file-backed devices: reopened after a crash truncation

	reads, writes atomic.Int64

	mu          sync.Mutex
	syncedPages uint32
}

func (d *device) ReadPage(id uint32, buf []byte) error {
	d.reads.Add(1)
	if d.tr == nil {
		return d.inner.ReadPage(id, buf)
	}
	start := d.tr.now()
	err := d.inner.ReadPage(id, buf)
	d.tr.diskSpan(spDiskRead, start, d.tr.now())
	return err
}

func (d *device) WritePage(id uint32, buf []byte) error {
	d.writes.Add(1)
	if d.tr == nil {
		return d.inner.WritePage(id, buf)
	}
	start := d.tr.now()
	err := d.inner.WritePage(id, buf)
	d.tr.diskSpan(spDiskWrite, start, d.tr.now())
	return err
}

func (d *device) AllocatePage() (uint32, error) { return d.inner.AllocatePage() }
func (d *device) NumPages() uint32              { return d.inner.NumPages() }
func (d *device) Close() error                  { return d.inner.Close() }

func (d *device) Sync() error {
	n := d.inner.NumPages()
	if err := d.inner.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	if n > d.syncedPages {
		d.syncedPages = n
	}
	d.mu.Unlock()
	return nil
}

func (d *device) crash() error {
	d.mu.Lock()
	n := d.syncedPages
	d.mu.Unlock()
	if m, ok := d.inner.(*memDevice); ok {
		return m.shrink(n)
	}
	if err := d.inner.Close(); err != nil {
		return err
	}
	if err := os.Truncate(d.path, int64(n)*disk.PageSize); err != nil {
		return err
	}
	f, err := disk.OpenFileDevice(d.path)
	if err != nil {
		return err
	}
	d.inner = f
	return nil
}

// media is the storage under one stack: per shard a data device and two
// logs, plus the node's decision journal. It outlives the node so a
// crashed stack can be reopened on it.
type media struct {
	devs    []*device
	sys     []*walBackend
	ims     []*walBackend
	journal *walBackend
}

// newMedia creates storage for cfg.shards engines: files under dir
// where cfg asks for them (real write and fsync system calls), memory
// otherwise.
func newMedia(cfg stackConfig, dir string, tr *tracer) (*media, error) {
	m := &media{}
	openLog := func(name string) (*walBackend, error) {
		if !cfg.fileLogs {
			return newWalBackend(wal.NewMemBackend(), tr), nil
		}
		fb, err := wal.OpenFileBackend(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		return newWalBackend(fb, tr), nil
	}
	var err error
	for i := 0; i < cfg.shards; i++ {
		d := &device{tr: tr}
		if !cfg.fileData {
			d.inner = &memDevice{}
		} else {
			d.path = filepath.Join(dir, fmt.Sprintf("data-%d.db", i))
			if d.inner, err = disk.OpenFileDevice(d.path); err != nil {
				return nil, err
			}
		}
		m.devs = append(m.devs, d)
		sys, err := openLog(fmt.Sprintf("syslogs-%d.log", i))
		if err != nil {
			return nil, err
		}
		ims, err := openLog(fmt.Sprintf("sysimrslogs-%d.log", i))
		if err != nil {
			return nil, err
		}
		m.sys, m.ims = append(m.sys, sys), append(m.ims, ims)
	}
	m.journal, err = openLog("decisions.log")
	return m, err
}

func (m *media) logs() []*walBackend {
	out := append([]*walBackend{m.journal}, m.sys...)
	return append(out, m.ims...)
}

// crash cuts every medium back to its synced watermark.
func (m *media) crash() error {
	for _, b := range m.logs() {
		if err := b.crash(); err != nil {
			return err
		}
	}
	for _, d := range m.devs {
		if err := d.crash(); err != nil {
			return err
		}
	}
	return nil
}

func (m *media) close() {
	for _, b := range m.logs() {
		_ = b.Close() // read-only from here on: the stack is being discarded
	}
	for _, d := range m.devs {
		_ = d.Close()
	}
}

// walBytes and pageBytes are the storage traffic counters behind
// disk_bytes_per_txn.
func (m *media) walBytes() (n int64) {
	for _, b := range m.logs() {
		n += b.appended.Load()
	}
	return n
}

func (m *media) walSyncs() (n int64) {
	for _, b := range m.logs() {
		n += b.syncs.Load()
	}
	return n
}

func (m *media) pageWrites() (n int64) {
	for _, d := range m.devs {
		n += d.writes.Load()
	}
	return n
}

func (m *media) pageReads() (n int64) {
	for _, d := range m.devs {
		n += d.reads.Load()
	}
	return n
}
