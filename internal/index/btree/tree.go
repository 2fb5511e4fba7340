package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rid"
	"repro/internal/storage/buffer"
	"repro/internal/storage/page"
)

// ErrDuplicate reports an insert of a key that already exists.
var ErrDuplicate = errors.New("btree: duplicate key")

// Tree is a page-based B+tree mapping byte keys to RIDs. Keys are unique
// at this level; non-unique indexes append the RID to the key upstream.
//
// Concurrency is latch coupling (lock crabbing) over the buffer pool's
// per-frame latches — there is no tree-wide lock on any path that
// touches the pool. The only tree-level state is the root page id, held
// in an atomic: traversals load it, latch the frame, and re-check the id
// (restarting if a root split won the race); root splits install the new
// id before the old root's exclusive latch is released, so a traversal
// can never descend from a stale root unnoticed. Page ids are never
// recycled by the pool's device layer, which rules out ABA on the
// re-check and keeps captured leaf-chain pointers valid.
//
// Readers crab down with shared latches (child latched before the parent
// is released). Writers first run an optimistic descent: shared latches
// down to the leaf's parent, then the leaf latch is upgraded to
// exclusive while the parent's shared latch is still held — the parent
// latch blocks leaf splits, so only the leaf's content can shift in the
// upgrade gap and the writer simply re-searches. If the leaf cannot
// absorb the insert, the writer releases everything and restarts
// pessimistically: exclusive crabbing from the root, releasing all
// retained ancestors whenever it latches a "safe" node (one whose free
// space absorbs a worst-case separator without splitting), so the
// exclusive path shrinks to the nodes that may actually split.
type Tree struct {
	pool *buffer.Pool
	root atomic.Uint32

	latchWaits metrics.Counter // contested latches — the ILM contention signal
	restarts   metrics.Counter // optimistic descents that fell back / root re-checks
}

// New allocates an empty tree (a single leaf root).
func New(pool *buffer.Pool) (*Tree, error) {
	id, f, err := pool.NewPage(page.TypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	btInit(f.Page(), true)
	f.Unlatch(true)
	pool.Unpin(f, true)
	t := &Tree{pool: pool}
	t.root.Store(id)
	return t, nil
}

// Load reattaches a tree whose root page id was persisted in the catalog.
func Load(pool *buffer.Pool, root uint32) *Tree {
	t := &Tree{pool: pool}
	t.root.Store(root)
	return t
}

// Root returns the current root page id (persisted in catalog snapshots).
func (t *Tree) Root() uint32 { return t.root.Load() }

// LatchWaits returns the number of contested frame-latch acquisitions
// this tree has performed — the index half of the ILM contention signal.
func (t *Tree) LatchWaits() int64 { return t.latchWaits.Load() }

// Restarts returns how many traversals had to restart: optimistic
// inserts that fell back to the pessimistic path plus root re-check
// retries lost to a concurrent root split.
func (t *Tree) Restarts() int64 { return t.restarts.Load() }

// latch acquires f's latch, attributing any wait to the tree level.
func (t *Tree) latch(f *buffer.Frame, excl bool, level int) {
	if f.Latch(excl) {
		t.latchWaits.Inc()
		t.pool.Stats().NoteIndexWait(level)
	}
}

// upgrade trades f's shared latch for an exclusive one (non-atomic; see
// buffer.Frame.Upgrade), attributing any wait to the tree level.
func (t *Tree) upgrade(f *buffer.Frame, level int) {
	if f.Upgrade() {
		t.latchWaits.Inc()
		t.pool.Stats().NoteIndexWait(level)
	}
}

// release unlatches and unpins f.
func (t *Tree) release(f *buffer.Frame, excl bool) {
	f.Unlatch(excl)
	t.pool.Unpin(f, false)
}

// latchRoot latches the current root frame, restarting until the root id
// observed before the latch still names the root after it — the re-check
// half of the root-split protocol.
func (t *Tree) latchRoot(excl bool) (*buffer.Frame, error) {
	for {
		id := t.root.Load()
		f, err := t.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		t.latch(f, excl, 0)
		if t.root.Load() == id {
			return f, nil
		}
		// A root split slipped in between the load and the latch.
		t.restarts.Inc()
		t.release(f, excl)
	}
}

// descendShared crabs shared latches from the root to the leaf covering
// key: the child is latched before the parent is released, so the child
// cannot split (splitters need the parent exclusively) between the
// pointer read and the latch. Returns the leaf shared-latched and pinned.
func (t *Tree) descendShared(key []byte) (*buffer.Frame, error) {
	f, err := t.latchRoot(false)
	if err != nil {
		return nil, err
	}
	level := 0
	for !isLeaf(f.Page()) {
		buf := f.Page().Bytes()
		child := childFor(buf, descendPos(buf, key))
		cf, err := t.pool.Fetch(child)
		if err != nil {
			t.release(f, false)
			return nil, err
		}
		level++
		t.latch(cf, false, level)
		t.release(f, false)
		f = cf
	}
	return f, nil
}

// descendExclusiveLeaf is the optimistic write descent: shared crabbing
// to the leaf's parent, then the leaf is upgraded to exclusive while the
// parent's shared latch is still held. The parent latch blocks leaf
// splits across the (non-atomic) upgrade gap, so the leaf still covers
// key's range when the exclusive latch lands — but its content may have
// shifted, so callers must re-search. When the root itself is the leaf
// there is no parent to pin the range; the root id is re-checked after
// the upgrade instead, restarting the descent if a split won.
func (t *Tree) descendExclusiveLeaf(key []byte) (*buffer.Frame, error) {
	for {
		f, err := t.latchRoot(false)
		if err != nil {
			return nil, err
		}
		if isLeaf(f.Page()) {
			id := f.ID()
			t.upgrade(f, 0)
			if t.root.Load() != id {
				t.restarts.Inc()
				t.release(f, true)
				continue
			}
			return f, nil
		}
		level := 0
		for {
			buf := f.Page().Bytes()
			child := childFor(buf, descendPos(buf, key))
			cf, err := t.pool.Fetch(child)
			if err != nil {
				t.release(f, false)
				return nil, err
			}
			level++
			t.latch(cf, false, level)
			if isLeaf(cf.Page()) {
				t.upgrade(cf, level)
				t.release(f, false)
				return cf, nil
			}
			t.release(f, false)
			f = cf
		}
	}
}

// Search returns the RID stored under key.
func (t *Tree) Search(key []byte) (rid.RID, bool, error) {
	f, err := t.descendShared(key)
	if err != nil {
		return rid.Zero, false, err
	}
	buf := f.Page().Bytes()
	pos, found := search(buf, key)
	var r rid.RID
	if found {
		r = leafValAt(buf, pos)
	}
	t.release(f, false)
	return r, found, nil
}

// Insert stores key → r; it fails with ErrDuplicate if key exists.
func (t *Tree) Insert(key []byte, r rid.RID) error {
	if len(key) > MaxKeySize {
		return fmt.Errorf("btree: key of %d bytes exceeds max %d", len(key), MaxKeySize)
	}
	done, err := t.insertOptimistic(key, r)
	if done || err != nil {
		return err
	}
	t.restarts.Inc()
	return t.insertPessimistic(key, r)
}

// insertOptimistic tries the common no-split case: exclusive latch on
// the leaf only. done=false means the leaf is full and the caller must
// retry pessimistically.
func (t *Tree) insertOptimistic(key []byte, r rid.RID) (done bool, err error) {
	f, err := t.descendExclusiveLeaf(key)
	if err != nil {
		return false, err
	}
	buf := f.Page().Bytes()
	pos, found := search(buf, key)
	if found {
		t.release(f, true)
		return true, ErrDuplicate
	}
	if insertCell(buf, pos, key, u64val(r)) {
		f.MarkDirty()
		t.release(f, true)
		return true, nil
	}
	t.release(f, true)
	return false, nil
}

// pathEntry is one retained frame of a pessimistic descent.
type pathEntry struct {
	f     *buffer.Frame
	level int
}

// insertPessimistic crabs exclusive latches from the root, releasing all
// retained ancestors whenever the just-latched child is safe — able to
// absorb a worst-case cell without splitting — so only the suffix of the
// path that may actually split stays latched. Splits then propagate up
// through exactly that retained suffix; by construction the topmost
// retained node either absorbs the separator (it was safe) or is the
// root, in which case the tree grows a level and the new root id is
// installed before the old root's latch is released.
func (t *Tree) insertPessimistic(key []byte, r rid.RID) error {
	f, err := t.latchRoot(true)
	if err != nil {
		return err
	}
	path := []pathEntry{{f, 0}}
	releaseAll := func() {
		for i := len(path) - 1; i >= 0; i-- {
			t.release(path[i].f, true)
		}
	}

	level := 0
	for !isLeaf(f.Page()) {
		buf := f.Page().Bytes()
		child := childFor(buf, descendPos(buf, key))
		cf, err := t.pool.Fetch(child)
		if err != nil {
			releaseAll()
			return err
		}
		level++
		t.latch(cf, true, level)
		var need int
		if isLeaf(cf.Page()) {
			need = cellSize(len(key), true) + btPtrSize
		} else {
			// An internal node absorbs a separator of at most MaxKeySize.
			need = cellSize(MaxKeySize, false) + btPtrSize
		}
		if freeBytes(cf.Page().Bytes()) >= need {
			// cf is safe: nothing above it can be forced to split.
			releaseAll()
			path = path[:0]
		}
		path = append(path, pathEntry{cf, level})
		f = cf
	}

	buf := f.Page().Bytes()
	pos, found := search(buf, key)
	if found {
		// Another writer inserted key between our optimistic attempt and
		// this restart.
		releaseAll()
		return ErrDuplicate
	}
	if insertCell(buf, pos, key, u64val(r)) {
		f.MarkDirty()
		releaseAll()
		return nil
	}

	sep, right, err := t.splitLeaf(f, key, r)
	if err != nil {
		releaseAll()
		return err
	}
	for i := len(path) - 2; i >= 0; i-- {
		pf := path[i].f
		pbuf := pf.Page().Bytes()
		ppos, _ := search(pbuf, sep)
		if insertCell(pbuf, ppos, sep, u32val(right)) {
			pf.MarkDirty()
			releaseAll()
			return nil
		}
		sep, right, err = t.splitInternal(pf, sep, right)
		if err != nil {
			releaseAll()
			return err
		}
	}

	// The topmost retained node split. Safe nodes cannot fail insertCell,
	// so it must be the root (held exclusively since latchRoot, which
	// also means no other writer can have moved the root meanwhile):
	// grow a new root and install its id before releasing the old root.
	oldRoot := path[0].f.ID()
	newRootID, nf, err := t.pool.NewPage(page.TypeBTreeInternal)
	if err != nil {
		releaseAll()
		return err
	}
	btInit(nf.Page(), false)
	nbuf := nf.Page().Bytes()
	setLeftChild(nbuf, oldRoot)
	if !insertCell(nbuf, 0, sep, u32val(right)) {
		t.release(nf, true)
		releaseAll()
		return fmt.Errorf("btree: separator does not fit in fresh root")
	}
	nf.MarkDirty()
	t.root.Store(newRootID)
	t.release(nf, true)
	releaseAll()
	return nil
}

// Update rebinds key to r, returning whether the key existed. Pack uses
// it to repoint index entries from a virtual RID to a page-store RID.
func (t *Tree) Update(key []byte, r rid.RID) (bool, error) {
	f, err := t.descendExclusiveLeaf(key)
	if err != nil {
		return false, err
	}
	buf := f.Page().Bytes()
	pos, found := search(buf, key)
	if found {
		setLeafValAt(buf, pos, r)
		f.MarkDirty()
	}
	t.release(f, true)
	return found, nil
}

// Delete removes key, returning the RID it held and whether it existed.
// Nodes are allowed to underflow (no rebalancing), which is what lets
// deletes run with a single leaf latch: a delete never changes any
// node's key range, so no ancestor needs latching.
func (t *Tree) Delete(key []byte) (rid.RID, bool, error) {
	f, err := t.descendExclusiveLeaf(key)
	if err != nil {
		return rid.Zero, false, err
	}
	buf := f.Page().Bytes()
	pos, found := search(buf, key)
	var r rid.RID
	if found {
		r = leafValAt(buf, pos)
		deleteCell(buf, pos)
		f.MarkDirty()
	}
	t.release(f, true)
	return r, found, nil
}

// splitLeaf splits the exclusively-latched full leaf f, inserting key→r
// into the correct half, and returns the separator (first key of the
// right leaf) and the right leaf's page id.
func (t *Tree) splitLeaf(f *buffer.Frame, key []byte, r rid.RID) ([]byte, uint32, error) {
	buf := f.Page().Bytes()
	n := numKeys(buf)
	type kv struct {
		k []byte
		v rid.RID
	}
	items := make([]kv, 0, n+1)
	inserted := false
	for i := 0; i < n; i++ {
		k := append([]byte(nil), keyAt(buf, i)...)
		if !inserted && string(key) < string(k) {
			items = append(items, kv{append([]byte(nil), key...), r})
			inserted = true
		}
		items = append(items, kv{k, leafValAt(buf, i)})
	}
	if !inserted {
		items = append(items, kv{append([]byte(nil), key...), r})
	}
	mid := len(items) / 2

	rightID, rf, err := t.pool.NewPage(page.TypeBTreeLeaf)
	if err != nil {
		return nil, 0, err
	}
	btInit(rf.Page(), true)
	rbuf := rf.Page().Bytes()
	for i, it := range items[mid:] {
		if !insertCell(rbuf, i, it.k, u64val(it.v)) {
			rf.Unlatch(true)
			t.pool.Unpin(rf, true)
			return nil, 0, fmt.Errorf("btree: right split leaf overflow")
		}
	}

	// Rebuild the left leaf in place, preserving its chain links.
	oldNext := f.Page().Next()
	oldPrev := f.Page().Prev()
	btInit(f.Page(), true)
	f.Page().SetPrev(oldPrev)
	buf = f.Page().Bytes()
	for i, it := range items[:mid] {
		if !insertCell(buf, i, it.k, u64val(it.v)) {
			rf.Unlatch(true)
			t.pool.Unpin(rf, true)
			return nil, 0, fmt.Errorf("btree: left split leaf overflow")
		}
	}

	// Chain: left -> right -> oldNext.
	f.Page().SetNext(rightID)
	rf.Page().SetPrev(f.ID())
	rf.Page().SetNext(oldNext)
	rf.MarkDirty()
	f.MarkDirty()
	rf.Unlatch(true)
	t.pool.Unpin(rf, true)

	if oldNext != noChild {
		// Left-to-right leaf latch order, same direction the scan walks:
		// no cycle with chain walkers or other splitters.
		nf, err := t.pool.Fetch(oldNext)
		if err != nil {
			return nil, 0, err
		}
		if nf.Latch(true) {
			t.latchWaits.Inc()
		}
		nf.Page().SetPrev(rightID)
		nf.MarkDirty()
		nf.Unlatch(true)
		t.pool.Unpin(nf, true)
	}
	sep := append([]byte(nil), items[mid].k...)
	return sep, rightID, nil
}

// splitInternal splits the exclusively-latched full internal node f
// after logically adding csep→cright, and returns the promoted middle
// key plus the new right node id.
func (t *Tree) splitInternal(f *buffer.Frame, csep []byte, cright uint32) ([]byte, uint32, error) {
	buf := f.Page().Bytes()
	n := numKeys(buf)
	type kc struct {
		k []byte
		c uint32
	}
	items := make([]kc, 0, n+1)
	inserted := false
	for i := 0; i < n; i++ {
		k := append([]byte(nil), keyAt(buf, i)...)
		if !inserted && string(csep) < string(k) {
			items = append(items, kc{append([]byte(nil), csep...), cright})
			inserted = true
		}
		items = append(items, kc{k, innerChildAt(buf, i)})
	}
	if !inserted {
		items = append(items, kc{append([]byte(nil), csep...), cright})
	}
	left0 := leftChild(buf)
	mid := len(items) / 2
	promoted := items[mid]

	rightID, rf, err := t.pool.NewPage(page.TypeBTreeInternal)
	if err != nil {
		return nil, 0, err
	}
	btInit(rf.Page(), false)
	rbuf := rf.Page().Bytes()
	setLeftChild(rbuf, promoted.c)
	for i, it := range items[mid+1:] {
		if !insertCell(rbuf, i, it.k, u32val(it.c)) {
			rf.Unlatch(true)
			t.pool.Unpin(rf, true)
			return nil, 0, fmt.Errorf("btree: right split internal overflow")
		}
	}
	rf.MarkDirty()
	rf.Unlatch(true)
	t.pool.Unpin(rf, true)

	btInit(f.Page(), false)
	buf = f.Page().Bytes()
	setLeftChild(buf, left0)
	for i, it := range items[:mid] {
		if !insertCell(buf, i, it.k, u32val(it.c)) {
			return nil, 0, fmt.Errorf("btree: left split internal overflow")
		}
	}
	f.MarkDirty()
	return promoted.k, rightID, nil
}

// ScanFrom visits entries with key >= start in ascending key order until
// fn returns false. fn receives key bytes that stay valid only during
// the call: it must copy what it keeps.
//
// The scan holds at most one leaf latch at a time and holds NO latch
// while fn runs, so fn may re-enter the engine (resolve rows, take row
// locks) without deadlock risk. Between leaves the scan steps via the
// next pointer captured under the previous leaf's latch and re-derives
// its position by the last key it yielded, emitting only keys strictly
// greater. That is sound under concurrent splits because a leaf's key
// range only ever splits rightward: keys that existed when a leaf was
// read were all captured from it, and no later leaf can gain keys at or
// below the resume bound. Keys inserted concurrently with the scan may
// or may not be seen.
func (t *Tree) ScanFrom(start []byte, fn func(key []byte, r rid.RID) bool) error {
	return t.scan(start, false, fn)
}

// ScanPrefix visits the entries whose key begins with prefix in
// ascending key order until fn returns false, under ScanFrom's rules.
// It copies out only the keys that carry the prefix and stops at the
// first key that does not, without fetching the next leaf.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key []byte, r rid.RID) bool) error {
	return t.scan(prefix, true, fn)
}

// leafEntry is one key of a scanned leaf: arena[off:end] and its RID.
type leafEntry struct {
	off, end int
	r        rid.RID
}

// scan is ScanFrom, and ScanPrefix when prefix is set (start is then
// the prefix). Each leaf's keys are copied into one arena and entry
// batch, sized from the leaf and reused from leaf to leaf, so a scan
// allocates only when a leaf needs more room than the ones before it,
// never per key.
func (t *Tree) scan(start []byte, prefix bool, fn func(key []byte, r rid.RID) bool) error {
	f, err := t.descendShared(start)
	if err != nil {
		return err
	}
	var (
		arena []byte
		batch []leafEntry
		bound []byte // copy of the last key yielded; resume strictly after it
	)
	first := true
	for {
		buf := f.Page().Bytes()
		var pos int
		if first {
			pos, _ = search(buf, start)
		} else {
			var found bool
			pos, found = search(buf, bound)
			if found {
				pos++
			}
		}
		// Size the arena and batch for this leaf's keys in [pos, end),
		// then copy them.
		n := numKeys(buf)
		end, size := pos, 0
		for ; end < n; end++ {
			k := keyAt(buf, end)
			if prefix && !bytes.HasPrefix(k, start) {
				break
			}
			size += len(k)
		}
		ended := end < n // only a prefix scan stops inside a leaf
		arena = slices.Grow(arena[:0], size)
		batch = slices.Grow(batch[:0], end-pos)
		for i := pos; i < end; i++ {
			off := len(arena)
			arena = append(arena, keyAt(buf, i)...)
			batch = append(batch, leafEntry{off, len(arena), leafValAt(buf, i)})
		}
		next := f.Page().Next()
		t.release(f, false)
		for _, it := range batch {
			if !fn(arena[it.off:it.end:it.end], it.r) {
				return nil
			}
		}
		if ended || next == noChild {
			return nil
		}
		if len(batch) > 0 {
			last := batch[len(batch)-1]
			bound = append(bound[:0], arena[last.off:last.end]...)
			first = false
		}
		nf, err := t.pool.Fetch(next)
		if err != nil {
			return err
		}
		t.latch(nf, false, buffer.IndexLatchLevels-1)
		f = nf
	}
}

// Count returns the number of entries (full scan; tests and stats).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.ScanFrom(nil, func([]byte, rid.RID) bool { n++; return true })
	return n, err
}
