// Package harness runs the paper's evaluation (Section VIII): TPC-C
// based workloads against the engine in ILM_ON and ILM_OFF modes, with
// periodic sampling of throughput, cache utilization and per-table ILM
// state, and printers that regenerate every table and figure the paper
// reports. Scale and durations are configurable; shapes — not absolute
// numbers — are the reproduction target (DESIGN.md §4).
package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/tpcc"
)

// Options configures one experiment run.
type Options struct {
	// Scale is the TPC-C scale.
	Scale tpcc.Config
	// Workers is the number of concurrent client goroutines.
	Workers int
	// Duration is the measured run length (a hard cap when MaxTxns is
	// also set).
	Duration time.Duration
	// MaxTxns, when positive, ends the run after that many committed
	// transactions — a work target that makes runs comparable across
	// machines of very different speed (and under -race).
	MaxTxns int64
	// SampleEvery sets the metric sampling period.
	SampleEvery time.Duration
	// IMRSCacheBytes sizes the IMRS for ILM_ON runs.
	IMRSCacheBytes int64
	// IMRSCacheBytesOff sizes the (effectively unlimited) IMRS for
	// ILM_OFF runs, mirroring the paper's 150 GB configuration.
	IMRSCacheBytesOff int64
	// Steady overrides the steady-cache-utilization threshold (0 keeps
	// the default 0.70).
	Steady float64
	// PackThreads sets the pack worker count (paper used 12).
	PackThreads int
	// ReadLatency/WriteLatency model device latency on the page store's
	// in-memory device (the disk/SSD the paper's page store sat on).
	ReadLatency, WriteLatency time.Duration
	// BufferPoolPages sizes the page-store buffer cache (default 4096,
	// which fully caches the laptop-scale database; set it small together
	// with ReadLatency to model a page store that misses to disk).
	BufferPoolPages int
}

// Mode selects the storage configuration of a run.
type Mode int

// Run modes. PageOnly is the paper's baseline: a traditional page-store
// engine with the database fully cached in the buffer cache and no IMRS.
const (
	ModeILMOn Mode = iota
	ModeILMOff
	ModePageOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeILMOn:
		return "ILM_ON"
	case ModeILMOff:
		return "ILM_OFF"
	case ModePageOnly:
		return "PAGE_ONLY"
	default:
		return "mode(?)"
	}
}

// DefaultOptions returns a laptop-scale configuration that finishes in
// a few seconds per run.
func DefaultOptions() Options {
	return Options{
		Scale:             tpcc.DefaultConfig(),
		Workers:           4,
		Duration:          3 * time.Second,
		SampleEvery:       250 * time.Millisecond,
		IMRSCacheBytes:    24 << 20,
		IMRSCacheBytesOff: 1 << 30,
		PackThreads:       4,
	}
}

// TableSample is one table's state at a sample point.
type TableSample struct {
	Rows       int64
	Bytes      int64
	ReuseOps   int64
	NewRows    int64
	PackedRows int64
	IMRSOps    int64
	PageOps    int64
}

// Sample is one periodic metrics snapshot.
type Sample struct {
	Elapsed   time.Duration
	Committed int64
	Used      int64
	Packed    int64 // cumulative packed bytes
	Tables    map[string]TableSample
}

// Result is the outcome of one workload run.
type Result struct {
	ILMOn     bool
	Duration  time.Duration
	Committed int64
	TPM       float64
	HWMUsed   int64 // high-water-mark cache utilization
	Samples   []Sample
	Final     core.Snapshot
	Capacity  int64
}

// tableName maps a partition name to its table (TPC-C tables are
// unpartitioned, so they coincide).
func tableName(partName string) string { return partName }

func snapshotTables(s core.Snapshot) map[string]TableSample {
	out := make(map[string]TableSample, len(s.Partitions))
	for _, p := range s.Partitions {
		t := out[tableName(p.Name)]
		t.Rows += p.IMRSRows
		t.Bytes += p.IMRSBytes
		t.ReuseOps += p.ReuseOps()
		t.NewRows += p.NewRows
		t.PackedRows += p.PackedRows
		t.IMRSOps += p.IMRSOps()
		t.PageOps += p.PageOps
		out[tableName(p.Name)] = t
	}
	return out
}

// Run executes one TPC-C run with ILM on or off and returns its result.
func Run(opts Options, ilmOn bool) (*Result, error) {
	mode := ModeILMOff
	if ilmOn {
		mode = ModeILMOn
	}
	return RunMode(opts, mode)
}

// RunMode executes one TPC-C run in the given mode.
func RunMode(opts Options, mode Mode) (*Result, error) {
	db, err := openMode(opts, mode)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	scale := opts.Scale
	if mode == ModePageOnly {
		scale.AfterSchema = pinAllOut
	}
	bench, err := tpcc.Load(db, scale)
	if err != nil {
		return nil, err
	}
	driver := tpcc.NewDriver(bench, opts.Workers)
	eng := db.Node().Engine(0)

	res := &Result{ILMOn: mode == ModeILMOn, Capacity: cacheBytesFor(opts, mode)}
	stopSampling := make(chan struct{})
	samplingDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(samplingDone)
		tick := time.NewTicker(opts.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				snap := eng.Stats()
				s := Sample{
					Elapsed:   time.Since(start),
					Committed: driver.Stats().TotalCommitted(),
					Used:      snap.IMRSUsedBytes,
					Packed:    snap.BytesPacked,
					Tables:    snapshotTables(snap),
				}
				res.Samples = append(res.Samples, s)
				if s.Used > res.HWMUsed {
					res.HWMUsed = s.Used
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), opts.Duration)
	driver.Run(ctx, opts.MaxTxns)
	cancel()
	measured := time.Since(start)

	// With ILM on, give the background pack a moment to drain back to
	// the steady threshold after load stops — stabilization is part of
	// the system's contract and the final snapshot should reflect it.
	if mode == ModeILMOn {
		steady := opts.Steady
		if steady <= 0 {
			steady = 0.70
		}
		target := int64(steady * float64(res.Capacity))
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if eng.Stats().IMRSUsedBytes <= target {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	close(stopSampling)
	<-samplingDone

	res.Duration = measured
	res.Committed = driver.Stats().TotalCommitted()
	res.TPM = float64(res.Committed) / res.Duration.Minutes()
	res.Final = eng.Stats()
	if res.Final.IMRSUsedBytes > res.HWMUsed {
		res.HWMUsed = res.Final.IMRSUsedBytes
	}
	return res, nil
}

// cacheBytesFor resolves the IMRS cache size for a mode.
func cacheBytesFor(opts Options, mode Mode) int64 {
	if mode == ModeILMOff {
		return opts.IMRSCacheBytesOff
	}
	return opts.IMRSCacheBytes
}

// pinAllOut pins every TPC-C table out of the IMRS (the page-store-only
// baseline).
func pinAllOut(db *btrim.DB) error {
	for _, name := range tpcc.TableNames {
		if err := db.PinTable(name, false); err != nil {
			return err
		}
	}
	return nil
}

// openMode opens a database configured for mode.
func openMode(opts Options, mode Mode) (*btrim.DB, error) {
	pages := opts.BufferPoolPages
	if pages <= 0 {
		pages = 4096
	}
	cfg := btrim.Config{
		IMRSCacheBytes:         cacheBytesFor(opts, mode),
		DisableILM:             mode == ModeILMOff,
		SteadyCacheUtilization: opts.Steady,
		PackThreads:            opts.PackThreads,
		BufferPoolPages:        pages,
		ReadLatency:            opts.ReadLatency,
		WriteLatency:           opts.WriteLatency,
	}
	if opts.BufferPoolPages > 0 && opts.BufferPoolPages < 4096 {
		// A deliberately small buffer cache only constrains memory if
		// dirty pages regularly become clean (no-steal policy): run
		// periodic checkpoints.
		cfg.CheckpointEvery = 500 * time.Millisecond
	}
	return btrim.Open(cfg)
}

// RunWithEngine is like Run but keeps the database open and hands it to
// fn before closing — used by experiments that inspect live structures
// (Figure 8's queue walk).
func RunWithEngine(opts Options, ilmOn bool, fn func(*btrim.DB, *Result) error) (*Result, error) {
	mode := ModeILMOff
	if ilmOn {
		mode = ModeILMOn
	}
	db, err := openMode(opts, mode)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	bench, err := tpcc.Load(db, opts.Scale)
	if err != nil {
		return nil, err
	}
	driver := tpcc.NewDriver(bench, opts.Workers)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opts.Duration)
	driver.Run(ctx, opts.MaxTxns)
	cancel()
	// Let background queue maintenance (IMRS-GC) catch up before the
	// caller inspects live structures.
	time.Sleep(100 * time.Millisecond)
	res := &Result{
		ILMOn:     ilmOn,
		Capacity:  cacheBytesFor(opts, mode),
		Duration:  time.Since(start),
		Committed: driver.Stats().TotalCommitted(),
		Final:     db.Node().Engine(0).Stats(),
	}
	res.TPM = float64(res.Committed) / res.Duration.Minutes()
	if fn != nil {
		if err := fn(db, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sortedTableNames returns table names present in m, TPC-C order first.
func sortedTableNames(m map[string]TableSample) []string {
	known := map[string]bool{}
	var names []string
	for _, n := range tpcc.TableNames {
		if _, ok := m[n]; ok {
			names = append(names, n)
			known[n] = true
		}
	}
	var rest []string
	for n := range m {
		if !known[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func fmtMB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
