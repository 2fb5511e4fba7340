package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. Spans are recorded only from this package, at seams that are
// already public: the client call, a sql.Engine/sql.Txn decorator
// (engine.go) and the wal.Backend / disk.Device wrappers (devices.go).
// One transaction's spans form a tree rooted at the client span; a
// layer's self time is its spans' duration minus the part of that
// interval their child spans cover. Spans stay in memory; a bounded
// sample is written out when the run ends.

type spanKind uint8

const (
	spClient    spanKind = iota // one client transaction, as the driver sees it
	spEngineTxn                 // Begin..Commit seen from the engine decorator when no client is bound (TCP pass)
	spWire                      // one pipelined frame over TCP: request write to response decode
	spSQL                       // the same frame executed on an in-process sql.Session
	spBegin
	spGet
	spUpdate
	spInsert
	spDelete
	spLookup
	spScan
	spCommit
	spAbort
	spDiskRead
	spDiskWrite
	spWalSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client", "engine_txn", "server.frame", "sql.frame", "btrim.begin", "btrim.get", "btrim.update", "btrim.insert",
	"btrim.delete", "btrim.lookup", "btrim.scan", "btrim.commit", "btrim.abort",
	"storage.disk.read", "storage.disk.write", "wal.sync",
}

// span is one timed interval. parent indexes the same transaction's span
// list (-1 for the root); start and end are nanoseconds since the tracer
// started.
type span struct {
	kind       spanKind
	parent     int32
	txn        uint64
	start, end int64
}

type interval struct{ start, end int64 }

// selfTimes adds, per kind, the self time of every span in one
// transaction tree to self and the span count to count. Spans must be
// in start order with each parent before its children (the order they
// are opened in); sibling spans may overlap, the covered part is their
// union clipped to the parent.
func selfTimes(spans []span, self, count *[numSpanKinds]int64) {
	scratch := make([]int64, 2*len(spans))
	covered, until := scratch[:len(spans)], scratch[len(spans):]
	for i := range spans {
		until[i] = spans[i].start
	}
	for i := range spans {
		s := &spans[i]
		p := s.parent
		if p < 0 {
			continue
		}
		lo, hi := s.start, s.end
		if lo < until[p] {
			lo = until[p]
		}
		if hi > spans[p].end {
			hi = spans[p].end
		}
		if hi > lo {
			covered[p] += hi - lo
			until[p] = hi
		}
	}
	for i := range spans {
		s := &spans[i]
		self[s.kind] += (s.end - s.start) - covered[i]
		count[s.kind]++
	}
}

// overlap returns how much of a is covered by the union of bs. bs must
// be sorted by start.
func overlap(a interval, bs []interval) int64 {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].end > a.start })
	var total int64
	until := a.start
	for ; i < len(bs) && bs[i].start < a.end; i++ {
		lo, hi := bs[i].start, bs[i].end
		if lo < until {
			lo = until
		}
		if hi > a.end {
			hi = a.end
		}
		if hi > lo {
			total += hi - lo
			until = hi
		}
	}
	return total
}

// layerAgg accumulates finished transaction trees.
type layerAgg struct {
	trees   int64
	rootNs  int64
	self    [numSpanKinds]int64 // Σ self time
	total   [numSpanKinds]int64 // Σ duration
	count   [numSpanKinds]int64
	lat     [numSpanKinds]*hist // per-kind span durations
	commits []interval          // commit spans of writing transactions
}

func newLayerAgg() *layerAgg {
	a := &layerAgg{}
	for i := range a.lat {
		a.lat[i] = newHist()
	}
	return a
}

func (a *layerAgg) merge(o *layerAgg) {
	a.trees += o.trees
	a.rootNs += o.rootNs
	for k := range a.self {
		a.self[k] += o.self[k]
		a.total[k] += o.total[k]
		a.count[k] += o.count[k]
		a.lat[k].merge(o.lat[k])
	}
	a.commits = append(a.commits, o.commits...)
}

// txnTrace is the span tree of the transaction in progress on one
// goroutine. It is touched only by that goroutine: the engine decorator
// runs on it, and the disk wrapper finds it through the tracer's
// goroutine table.
type txnTrace struct {
	tr    *tracer
	spans []span
	frame int32 // open spWire/spSQL span that engine ops nest under, 0 (the root) when none
	cur   int32 // innermost open engine op, -1 when none
	live  bool  // a root span is open
	wrote bool
	id    uint64
}

func (t *txnTrace) start(kind spanKind) {
	t.id = t.tr.nextTxn.Add(1)
	t.spans = append(t.spans[:0], span{kind: kind, parent: -1, txn: t.id, start: t.tr.now()})
	t.frame, t.cur, t.live, t.wrote = 0, -1, true, false
}

// openFrame starts a front-end span (one pipelined frame) under the
// root; engine ops opened before closeFrame nest under it.
func (t *txnTrace) openFrame(kind spanKind) {
	t.frame = int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: 0, txn: t.id, start: t.tr.now()})
}

func (t *txnTrace) closeFrame() {
	t.spans[t.frame].end = t.tr.now()
	t.frame = 0
}

// open starts an engine op under the open frame (or the root); close
// ends it.
func (t *txnTrace) open(kind spanKind) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: t.frame, txn: t.id, start: t.tr.now()})
	t.cur = i
	return i
}

func (t *txnTrace) close(i int32) {
	t.spans[i].end = t.tr.now()
	t.cur = -1
}

// leaf records a finished span under the innermost open op (or the root).
func (t *txnTrace) leaf(kind spanKind, start, end int64) {
	p := t.cur
	if p < 0 {
		p = t.frame
	}
	t.spans = append(t.spans, span{kind: kind, parent: p, txn: t.id, start: start, end: end})
}

// finish closes the root and folds the tree into a.
func (t *txnTrace) finish(a *layerAgg) {
	root := &t.spans[0]
	root.end = t.tr.now()
	t.live = false
	a.trees++
	a.rootNs += root.end - root.start
	selfTimes(t.spans, &a.self, &a.count)
	for i := range t.spans {
		s := &t.spans[i]
		a.lat[s.kind].record(s.end - s.start)
		a.total[s.kind] += s.end - s.start
		if s.kind == spCommit && t.wrote {
			a.commits = append(a.commits, interval{s.start, s.end})
		}
	}
	t.tr.keep(t.spans)
}

// tracer owns what is shared between goroutines of one traced stack.
type tracer struct {
	t0      time.Time
	nextTxn atomic.Uint64
	byGID   sync.Map // goroutine id -> *txnTrace

	engMu     sync.Mutex
	engineAgg *layerAgg // trees finished by the shared engine decorator (TCP pass)

	mu       sync.Mutex
	syncs    []interval
	syncHist *hist
	readHist *hist
	dump     []span
	dumpFull atomic.Bool

	// Device activity outside any traced transaction (checkpoints, pack,
	// GC) plus totals for the busy fractions.
	diskReads, diskWrites atomic.Int64
	diskNs, walNs         atomic.Int64
	walSyncs              atomic.Int64
}

// dumpCap bounds the spans kept for the written trace; aggregates cover
// every span regardless.
const dumpCap = 200_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), engineAgg: newLayerAgg(), syncHist: newHist(), readHist: newHist()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) keep(spans []span) {
	if tr.dumpFull.Load() {
		return
	}
	tr.mu.Lock()
	if len(tr.dump)+len(spans) <= dumpCap {
		tr.dump = append(tr.dump, spans...)
	} else {
		tr.dumpFull.Store(true)
	}
	tr.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack ("goroutine 123 [running]:"). The runtime has no cheaper
// public way to tell goroutines apart; it costs about a microsecond and
// is used only on traced runs.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// bind makes t the trace that device spans on the calling goroutine
// attach to; unbind removes it.
func (tr *tracer) bind(t *txnTrace) int64 {
	g := goid()
	tr.byGID.Store(g, t)
	return g
}

func (tr *tracer) unbind(g int64) { tr.byGID.Delete(g) }

// current returns the open transaction trace of the calling goroutine.
func (tr *tracer) current() *txnTrace {
	if v, ok := tr.byGID.Load(goid()); ok {
		if t := v.(*txnTrace); t.live {
			return t
		}
	}
	return nil
}

// diskSpan records one device operation.
func (tr *tracer) diskSpan(kind spanKind, start, end int64) {
	tr.diskNs.Add(end - start)
	if kind == spDiskRead {
		tr.diskReads.Add(1)
		tr.mu.Lock()
		tr.readHist.record(end - start)
		tr.mu.Unlock()
	} else {
		tr.diskWrites.Add(1)
	}
	if t := tr.current(); t != nil {
		t.leaf(kind, start, end)
	}
}

func (tr *tracer) walSync(start, end int64) {
	tr.walNs.Add(end - start)
	tr.walSyncs.Add(1)
	tr.mu.Lock()
	tr.syncs = append(tr.syncs, interval{start, end})
	tr.syncHist.record(end - start)
	if len(tr.dump) < dumpCap {
		tr.dump = append(tr.dump, span{kind: spWalSync, parent: -1, start: start, end: end})
	}
	tr.mu.Unlock()
}

// clientTrace is one in-process client's tracing state: its reusable
// transaction tree and its private aggregate.
type clientTrace struct {
	t   txnTrace
	agg *layerAgg
	gid int64
}

// newClientTrace must be called on the client's own goroutine.
func (tr *tracer) newClientTrace() *clientTrace {
	c := &clientTrace{agg: newLayerAgg()}
	c.t.tr = tr
	c.gid = tr.bind(&c.t)
	return c
}

func (c *clientTrace) begin() { c.t.start(spClient) }
func (c *clientTrace) end()   { c.t.finish(c.agg) }
func (c *clientTrace) close() { c.t.tr.unbind(c.gid) }

// layerRow is one row of the layer table, in microseconds per client
// transaction.
type layerRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_txn"`
}

// layerTable is the traced account of one workload: rows that add up to
// the traced client latency.
type layerTable struct {
	Rows     []layerRow `json:"rows"`
	SumUs    float64    `json:"sum_us"`
	ClientUs float64    `json:"client_us"`
	Txns     int64      `json:"txns"`
}

// walWait returns how much of the writing transactions' commit spans was
// spent while some WAL backend was syncing.
func (tr *tracer) walWait(commits []interval) int64 {
	tr.mu.Lock()
	syncs := append([]interval(nil), tr.syncs...)
	tr.mu.Unlock()
	sort.Slice(syncs, func(i, j int) bool { return syncs[i].start < syncs[j].start })
	// Concurrent syncs on different logs overlap; flatten to a union so
	// that bs[i].end is non-decreasing, which overlap's search relies on.
	flat := syncs[:0]
	for _, s := range syncs {
		if n := len(flat); n > 0 && s.start <= flat[n-1].end {
			if s.end > flat[n-1].end {
				flat[n-1].end = s.end
			}
			continue
		}
		flat = append(flat, s)
	}
	var total int64
	for _, c := range commits {
		total += overlap(c, flat)
	}
	return total
}

// buildLayerTable turns traced aggregates into the layer table. full
// holds client trees whose engine ops are visible (API workloads, or the
// wire workload's in-process session pass). wire, when set, holds the
// TCP pass of the same statement stream, whose trees stop at the frame
// span: the server row is then what a frame costs over TCP beyond what
// it costs on an in-process session, and the reported client latency is
// the TCP pass's.
func (tr *tracer) buildLayerTable(full, wire *layerAgg) layerTable {
	if full.trees == 0 {
		return layerTable{}
	}
	n := float64(full.trees)
	var ops int64
	for _, k := range []spanKind{spBegin, spGet, spUpdate, spInsert, spDelete, spLookup, spScan, spAbort} {
		ops += full.self[k]
	}
	wait := tr.walWait(full.commits)
	if wait > full.self[spCommit] {
		wait = full.self[spCommit]
	}
	t := layerTable{Txns: full.trees, ClientUs: float64(full.rootNs) / n / 1e3}
	var server float64
	if wire != nil && wire.trees > 0 {
		wn := float64(wire.trees)
		server = float64(wire.total[spWire])/wn - float64(full.total[spSQL])/n
		t.ClientUs = float64(wire.rootNs) / wn / 1e3
		t.Txns = wire.trees
	}
	perTxn := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	t.Rows = []layerRow{
		{"server", server / 1e3},
		{"sql", perTxn(full.self[spSQL])},
		{"btrim ops (non-commit)", perTxn(ops)},
		{"btrim commit (excl. wal sync)", perTxn(full.self[spCommit] - wait)},
		{"wal sync wait", perTxn(wait)},
		{"storage.disk", perTxn(full.self[spDiskRead] + full.self[spDiskWrite])},
		{"driver", perTxn(full.self[spClient])},
	}
	for _, r := range t.Rows {
		t.SumUs += r.Us
	}
	return t
}

// writeDump writes the retained spans as CSV.
func (tr *tracer) writeDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,txn,parent,start_ns,end_ns")
	tr.mu.Lock()
	for _, s := range tr.dump {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.txn, s.parent, s.start, s.end)
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
