package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sql"
)

// stackConfig sizes the system under test for one workload. Memory
// budgets are node-wide and divide across shards, as OpenSharded does.
type stackConfig struct {
	shards          int
	imrsBytes       int64
	bufferPages     int
	fileData        bool          // data device in a real file (pread/pwrite/fsync) instead of memory
	fileLogs        bool          // logs and decision journal in real files: write(2) per append, fsync(2) per sync
	checkpointEvery time.Duration // period of the stack's checkpointer; 0 = explicit checkpoints only
}

// deviceModel names the storage for the report envelope.
func (c stackConfig) deviceModel() string {
	kind := func(file bool) string {
		if file {
			return "file in the run directory (real write/fsync system calls, reads served by the OS page cache)"
		}
		return "memory (sync is a no-op)"
	}
	return "data device: " + kind(c.fileData) + "; logs: " + kind(c.fileLogs) + "; no simulated latency anywhere"
}

// stack is one open system under test: media, a shard node on it, and
// the public ShardedDB surface over that. API workloads use a one-shard
// node: WrapNode is the only public constructor that accepts injected
// devices, and ROADMAP item 3a makes the node the only engine shape.
type stack struct {
	cfg   stackConfig
	dir   string // file-backed: the directory holding this stack's files
	tr    *tracer
	media *media
	node  *shard.Node
	db    *btrim.ShardedDB
	eng   sql.Engine   // what clients drive: db, or the shared tracing decorator over it
	scans atomic.Int64 // full scans seen by the tracing decorators

	ckptMu   sync.Mutex    // one checkpoint at a time, periodic or explicit (startCheckpointer says why)
	ckptStop chan struct{} // closed to stop the checkpointer; nil when none runs
	ckptDone chan error    // its first checkpoint error, or nil, once it has stopped
}

func (c stackConfig) engineConfig(m *media, i int) core.Config {
	ec := core.DefaultConfig()
	ec.DataDevice = m.devs[i]
	ec.SysLogBackend = m.sys[i]
	ec.IMRSLogBackend = m.ims[i]
	ec.IMRSCacheBytes = c.imrsBytes / int64(c.shards)
	ec.BufferPoolPages = c.bufferPages / c.shards
	return ec
}

// openStack creates fresh media under root (file-backed stacks get their
// own sub-directory) and opens a node on it.
func openStack(cfg stackConfig, root string, tr *tracer) (*stack, error) {
	s := &stack{cfg: cfg, tr: tr}
	if cfg.fileData || cfg.fileLogs {
		dir, err := os.MkdirTemp(root, "stack-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	m, err := newMedia(cfg, s.dir, tr)
	if err != nil {
		return nil, err
	}
	s.media = m
	if err := s.open(); err != nil {
		s.discard()
		return nil, err
	}
	return s, nil
}

// open opens (or recovers) the node on the stack's media.
func (s *stack) open() error {
	n, err := shard.Open(shard.Config{
		Shards:         s.cfg.shards,
		Engine:         func(i int) core.Config { return s.cfg.engineConfig(s.media, i) },
		JournalBackend: s.media.journal,
	})
	if err != nil {
		return err
	}
	s.node = n
	s.db = btrim.WrapNode(n)
	s.eng = sql.WrapSharded(s.db)
	if s.tr != nil {
		s.eng = &tracedEngine{Engine: s.eng, tr: s.tr, scans: &s.scans}
	}
	s.startCheckpointer()
	return nil
}

// startCheckpointer checkpoints the shards every cfg.checkpointEvery, one
// after the other. The engines' own tickers (core.Config.CheckpointEvery)
// stay off: they fire on all shards together, and at the seed commit
// checkpoints pending on two shards deadlock against two cross-shard
// transactions that each hold one shard's checkpoint lock shared and
// begin on the other (a waiting writer queues new readers behind it).
// With one checkpoint pending at a time the cycle cannot close.
func (s *stack) startCheckpointer() {
	if s.cfg.checkpointEvery == 0 {
		return
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	s.ckptStop, s.ckptDone = stop, done
	go func() {
		tick := time.NewTicker(s.cfg.checkpointEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-tick.C:
				if err := s.checkpoint(); err != nil {
					done <- err
					return
				}
			}
		}
	}()
}

// stopCheckpointer waits for the checkpointer to end and returns the
// error that ended it early, if any.
func (s *stack) stopCheckpointer() error {
	if s.ckptStop == nil {
		return nil
	}
	close(s.ckptStop)
	s.ckptStop = nil
	return <-s.ckptDone
}

// halt stops the node as a crash would: the checkpointer is stopped
// first, then background work and the commit pipelines are aborted
// without a final flush.
func (s *stack) halt() error {
	if err := s.stopCheckpointer(); err != nil {
		return err
	}
	if err := s.node.Halt(); err != nil {
		return fmt.Errorf("halt: %w", err)
	}
	return nil
}

// clientEngine returns the engine an in-process client drives: the
// stack's own when untraced, a decorator bound to the client's trace
// otherwise.
func (s *stack) clientEngine(ct *clientTrace) sql.Engine {
	if ct == nil {
		return s.eng
	}
	return &tracedEngine{Engine: sql.WrapSharded(s.db), tr: s.tr, owner: ct, scans: &s.scans}
}

// checkpoint checkpoints every shard, one after the other.
func (s *stack) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	for i := 0; i < s.node.NumShards(); i++ {
		if err := s.node.Engine(i).Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// recover reopens the node on the crashed media and returns how long the
// open (log analysis, redo, IMRS replay, index and cold-store rebuild,
// in-doubt resolution) took.
func (s *stack) recover() (time.Duration, error) {
	// The crashed node is garbage a real restart would not carry: drop it
	// before the clock starts, so that neither recovery time nor the
	// peak RSS includes a second copy of the database. (A plain
	// collection: handing the memory back to the OS as well made the
	// recovery that re-faults it five times noisier.)
	s.node, s.db, s.eng = nil, nil, nil
	runtime.GC()
	start := time.Now()
	if err := s.open(); err != nil {
		return 0, fmt.Errorf("reopen after crash: %w", err)
	}
	d := time.Since(start)
	for i := 0; i < s.node.NumShards(); i++ {
		if st := s.node.Engine(i).HealthState(); st != core.StateHealthy {
			return d, fmt.Errorf("shard %d recovered %v, want healthy", i, st)
		}
	}
	return d, nil
}

// close shuts the node down cleanly and removes the stack's files.
func (s *stack) close() error {
	err := s.stopCheckpointer()
	if cerr := s.node.Close(); err == nil {
		err = cerr
	}
	s.discard()
	return err
}

func (s *stack) discard() {
	s.media.close()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch files of a finished stack
	}
}
