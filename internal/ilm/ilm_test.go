package ilm

import (
	"math"
	"testing"

	"repro/internal/rid"
)

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.SteadyCacheUtilization <= 0 || c.SteadyCacheUtilization >= 1 {
		t.Fatal("steady threshold out of range")
	}
	wm := c.AggressiveWatermark()
	if wm <= c.SteadyCacheUtilization || wm >= 1 {
		t.Fatalf("aggressive watermark %v not between steady and 1", wm)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p1 := r.Register(1, "orders")
	if r.Register(1, "orders") != p1 {
		t.Fatal("re-register returned a new state")
	}
	p2 := r.Register(2, "items")
	if r.Get(1) != p1 || r.Get(2) != p2 || r.Get(3) != nil {
		t.Fatal("Get wrong")
	}
	all := r.All()
	if len(all) != 2 || all[0] != p1 || all[1] != p2 {
		t.Fatal("All order wrong")
	}
	// Fresh partitions are fully enabled.
	for op := OpClass(0); op < numOpClasses; op++ {
		if !p1.Enabled(op) {
			t.Fatalf("op %d not enabled by default", op)
		}
	}
}

func TestPinOverridesTuner(t *testing.T) {
	p := &PartitionState{}
	p.Pin(true)
	if !p.Enabled(OpInsert) {
		t.Fatal("pin enabled failed")
	}
	p.Pin(false)
	if p.Enabled(OpInsert) {
		t.Fatal("pin disabled failed")
	}
	p.Unpin()
}

func TestApportionTaxesFatColdPartitions(t *testing.T) {
	samples := []PartSample{
		{ID: 1, ReuseOps: 100000, MemBytes: 1 << 10, Rows: 10},     // warehouse-like: hot, tiny
		{ID: 2, ReuseOps: 100, MemBytes: 1 << 30, Rows: 1_000_000}, // order_line-like: cold, fat
		{ID: 3, ReuseOps: 5000, MemBytes: 64 << 20, Rows: 50_000},  // customer-like: medium
	}
	shares := Apportion(samples, 100<<20)
	if len(shares) != 3 {
		t.Fatalf("shares = %d", len(shares))
	}
	byID := map[rid.PartitionID]PartShare{}
	var total int64
	var sumPI float64
	for _, s := range shares {
		byID[s.ID] = s
		total += s.PackBytes
		sumPI += s.PI
	}
	if math.Abs(sumPI-1) > 1e-9 {
		t.Fatalf("PI does not sum to 1: %v", sumPI)
	}
	if total > 100<<20 {
		t.Fatalf("overallocated: %d", total)
	}
	if byID[2].PackBytes < byID[3].PackBytes || byID[3].PackBytes < byID[1].PackBytes {
		t.Fatalf("pack ordering wrong: %v", byID)
	}
	// The fat cold partition should take the overwhelming share.
	if float64(byID[2].PackBytes) < 0.9*float64(100<<20) {
		t.Fatalf("cold fat partition underpacked: %d", byID[2].PackBytes)
	}
	// The hot tiny partition should be barely touched.
	if byID[1].PackBytes > 1<<20 {
		t.Fatalf("hot partition overpacked: %d", byID[1].PackBytes)
	}
}

func TestApportionZeroReuse(t *testing.T) {
	samples := []PartSample{
		{ID: 1, ReuseOps: 0, MemBytes: 1 << 20, Rows: 100},
		{ID: 2, ReuseOps: 0, MemBytes: 1 << 20, Rows: 100},
	}
	shares := Apportion(samples, 1<<20)
	if len(shares) != 2 {
		t.Fatalf("shares = %d", len(shares))
	}
	if shares[0].PackBytes == 0 || shares[1].PackBytes == 0 {
		t.Fatal("zero-reuse partitions got no pack bytes")
	}
}

func TestApportionEmptyAndZeroBytes(t *testing.T) {
	if Apportion(nil, 100) != nil {
		t.Fatal("nil samples should yield nil")
	}
	if Apportion([]PartSample{{ID: 1, MemBytes: 0}}, 100) != nil {
		t.Fatal("all-empty partitions should yield nil")
	}
	if Apportion([]PartSample{{ID: 1, MemBytes: 10}}, 0) != nil {
		t.Fatal("zero bytes to pack should yield nil")
	}
}

func TestUniformApportion(t *testing.T) {
	samples := []PartSample{
		{ID: 1, ReuseOps: 100000, MemBytes: 1 << 10, Rows: 10},
		{ID: 2, ReuseOps: 0, MemBytes: 1 << 30, Rows: 100},
	}
	shares := UniformApportion(samples, 1000)
	if len(shares) != 2 || shares[0].PackBytes != shares[1].PackBytes {
		t.Fatalf("uniform shares wrong: %+v", shares)
	}
}

func TestTSFLearning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTSF = 500
	cfg.TSFLearnPct = 0.02
	cfg.SteadyCacheUtilization = 0.70
	capacity := int64(1_000_000)
	f := NewTSF(cfg, capacity)
	if f.Tau() != 500 {
		t.Fatalf("initial tau = %d", f.Tau())
	}
	// Simulate: utilization grows 2% (20k bytes) over 100 commits.
	f.Observe(100_000, 1000)
	f.Observe(110_000, 1050) // not yet 2%
	if f.Learned() != 0 {
		t.Fatal("learned too early")
	}
	f.Observe(121_000, 1100)
	if f.Learned() != 1 {
		t.Fatal("did not learn")
	}
	// tau = 100 ticks × 0.70 / 0.02 = 3500
	if f.Tau() != 3500 {
		t.Fatalf("tau = %d, want 3500", f.Tau())
	}
	// Utilization drop (pack) restarts the baseline without learning.
	f.Observe(50_000, 1200)
	f.Observe(71_000, 1300)
	if f.Learned() != 2 {
		t.Fatal("relearn after drop failed")
	}
}

func TestTSFRowIsCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTSF = 100
	cfg.MinReuseRateForTSF = 0.5
	f := NewTSF(cfg, 1<<20)
	// High-reuse partition: filter applies.
	if f.RowIsCold(1000, 950, 2.0) {
		t.Fatal("recently accessed row called cold")
	}
	if !f.RowIsCold(1000, 800, 2.0) {
		t.Fatal("stale row called hot")
	}
	// Low-reuse partition: filter bypassed, always cold.
	if !f.RowIsCold(1000, 999, 0.1) {
		t.Fatal("low-reuse partition row should pack regardless of recency")
	}
}

// tunerFixture builds a tuner over two partitions with a controllable
// usage function.
func tunerFixture(cfg Config) (*Tuner, *Registry, map[rid.PartitionID]PartitionUsage) {
	reg := NewRegistry()
	usage := map[rid.PartitionID]PartitionUsage{}
	tuner := NewTuner(cfg, reg, 1_000_000, func(id rid.PartitionID) PartitionUsage {
		return usage[id]
	})
	return tuner, reg, usage
}

func TestTunerDisablesColdGrowingPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 2
	cfg.MinNewRowsForDisable = 10
	tuner, reg, usage := tunerFixture(cfg)
	p := reg.Register(1, "history")
	usage[1] = PartitionUsage{Rows: 10000, Bytes: 200_000} // 20% of cache

	// Windows with many new rows and no reuse, cache 60% full.
	for w := 0; w < 2; w++ {
		p.NewRows.Add(1000)
		p.IMRSInserts.Add(1000)
		tuner.RunWindow(600_000)
	}
	if p.Enabled(OpInsert) {
		t.Fatal("cold growing partition not disabled after hysteresis")
	}
	ds := tuner.Decisions()
	if len(ds) != 1 || ds[0].Enabled || ds[0].Partition != 1 {
		t.Fatalf("decisions = %+v", ds)
	}
}

func TestTunerHysteresisBlocksOneOffWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 3
	cfg.MinNewRowsForDisable = 10
	tuner, reg, usage := tunerFixture(cfg)
	p := reg.Register(1, "t")
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}

	// Two cold windows, then a hot window, then two more cold: the hot
	// window must reset the streak.
	for w := 0; w < 2; w++ {
		p.NewRows.Add(1000)
		tuner.RunWindow(600_000)
	}
	p.NewRows.Add(1000)
	p.IMRSSelects.Add(50_000) // huge reuse this window
	tuner.RunWindow(600_000)
	for w := 0; w < 2; w++ {
		p.NewRows.Add(1000)
		tuner.RunWindow(600_000)
	}
	if !p.Enabled(OpInsert) {
		t.Fatal("partition disabled despite interrupted streak")
	}
}

func TestTunerGuards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 1
	cfg.MinNewRowsForDisable = 10
	tuner, reg, usage := tunerFixture(cfg)

	// Guard 1: low cache utilization → never disable.
	p1 := reg.Register(1, "g1")
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}
	p1.NewRows.Add(1000)
	tuner.RunWindow(100_000) // 10% < MinCacheUtilForTuning
	if !p1.Enabled(OpInsert) {
		t.Fatal("disabled despite low cache utilization")
	}

	// Guard 2: tiny footprint → never disable.
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 1_000} // 0.1% of cache
	p1.NewRows.Add(1000)
	tuner.RunWindow(900_000)
	if !p1.Enabled(OpInsert) {
		t.Fatal("disabled despite tiny footprint")
	}

	// Guard 3: slow growth → never disable.
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}
	p1.NewRows.Add(1) // below MinNewRowsForDisable
	tuner.RunWindow(900_000)
	if !p1.Enabled(OpInsert) {
		t.Fatal("disabled despite slow growth")
	}
}

func TestTunerReenablesOnContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 1
	cfg.MinNewRowsForDisable = 10
	tuner, reg, usage := tunerFixture(cfg)
	var contention int64
	p := reg.Register(1, "t")
	p.ContentionFn = func() int64 { return contention }
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}

	p.NewRows.Add(1000)
	tuner.RunWindow(900_000)
	if p.Enabled(OpInsert) {
		t.Fatal("setup: partition should be disabled")
	}

	contention += 500 // heavy page-store contention this window
	tuner.RunWindow(900_000)
	if !p.Enabled(OpInsert) {
		t.Fatal("contention did not re-enable the partition")
	}
	ds := tuner.Decisions()
	last := ds[len(ds)-1]
	if !last.Enabled || last.Reason != "page-store contention" {
		t.Fatalf("decision = %+v", last)
	}
}

func TestTunerReenablesOnReuseJump(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 1
	cfg.MinNewRowsForDisable = 10
	cfg.EnableReuseFactor = 2.0
	tuner, reg, usage := tunerFixture(cfg)
	p := reg.Register(1, "t")
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}

	p.NewRows.Add(1000)
	p.IMRSSelects.Add(100) // reuse 100 at disable time
	tuner.RunWindow(900_000)
	if p.Enabled(OpInsert) {
		t.Fatal("setup: partition should be disabled")
	}

	// Reuse activity (now page-store selects/updates) jumps well past 2×
	// the disable window's reuse.
	p.PageOps.Add(1000)
	p.PageReuseOps.Add(1000)
	tuner.RunWindow(900_000)
	if !p.Enabled(OpInsert) {
		t.Fatal("reuse jump did not re-enable the partition")
	}
}

func TestTunerSkipsPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HysteresisWindows = 1
	cfg.MinNewRowsForDisable = 10
	tuner, reg, usage := tunerFixture(cfg)
	p := reg.Register(1, "warehouse")
	usage[1] = PartitionUsage{Rows: 1000, Bytes: 200_000}
	p.Pin(true)

	p.NewRows.Add(1000)
	tuner.RunWindow(900_000)
	if !p.Enabled(OpInsert) {
		t.Fatal("tuner disabled a pinned partition")
	}
}

// BenchmarkAblationUniformPack compares the paper's packability-index
// byte apportionment against the naive uniform split (§VI-C): the
// uniform policy taxes the hot tiny partition thousands of times harder.
func BenchmarkAblationUniformPack(b *testing.B) {
	samples := []PartSample{
		{ID: 1, ReuseOps: 200000, MemBytes: 64 << 10, Rows: 100},      // warehouse-like
		{ID: 2, ReuseOps: 50, MemBytes: 512 << 20, Rows: 2_000_000},   // order_line-like
		{ID: 3, ReuseOps: 3000, MemBytes: 32 << 20, Rows: 100_000},    // customer-like
		{ID: 4, ReuseOps: 0, MemBytes: 128 << 20, Rows: 1_000_000},    // history-like
		{ID: 5, ReuseOps: 15000, MemBytes: 32 << 20, Rows: 1_000_000}, // stock-like
	}
	const target = 64 << 20
	var piHot, uniHot int64
	b.Run("packability-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shares := Apportion(samples, target)
			piHot = shares[0].PackBytes
		}
		b.ReportMetric(float64(piHot), "hot-partition-bytes")
	})
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shares := UniformApportion(samples, target)
			uniHot = shares[0].PackBytes
		}
		b.ReportMetric(float64(uniHot), "hot-partition-bytes")
	})
}
