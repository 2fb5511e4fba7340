package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/storage/disk"
	"repro/internal/wal"
)

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	h := newHist()
	const n = 100_000
	for v := int64(1); v <= n; v++ {
		h.record(v * 37) // 37 ns .. 3.7 ms
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		want := q * n * 37
		got := float64(h.quantile(q))
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.3f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if h.max != n*37 || h.n != n {
		t.Errorf("max %d n %d", h.max, h.n)
	}
}

func TestHistTailNeedsTenSamplesBeyond(t *testing.T) {
	fill := func(n int) *hist {
		h := newHist()
		for i := 1; i <= n; i++ {
			h.record(int64(i) * 1000)
		}
		return h
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {100, 0.9}, {200, 0.95}, {2_000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}} {
		if got := fill(c.n).supportedTail(); got != c.want {
			t.Errorf("%d samples: highest supported percentile %v, want %v", c.n, got, c.want)
		}
	}
	h := fill(2_000)
	if h.tail(0.999) != h.quantile(0.99) {
		t.Errorf("p99.9 of 2000 samples should clamp to their p99: %d vs %d", h.tail(0.999), h.quantile(0.99))
	}
	if h.tail(0.95) != h.quantile(0.95) {
		t.Errorf("a supported percentile must not be clamped")
	}
}

func TestSelfTimesSumToParent(t *testing.T) {
	spans := []span{
		{kind: spClient, parent: -1, start: 0, end: 100},
		{kind: spSQL, parent: 0, start: 10, end: 90},
		{kind: spGet, parent: 1, start: 20, end: 40},
		{kind: spDiskRead, parent: 2, start: 25, end: 35},
		{kind: spCommit, parent: 1, start: 50, end: 70},
	}
	var self, count [numSpanKinds]int64
	selfTimes(spans, &self, &count)
	want := map[spanKind]int64{spClient: 20, spSQL: 40, spGet: 10, spDiskRead: 10, spCommit: 20}
	var sum int64
	for k, v := range want {
		if self[k] != v {
			t.Errorf("%s self = %d, want %d", spanNames[k], self[k], v)
		}
		sum += self[k]
	}
	if sum != spans[0].end-spans[0].start {
		t.Errorf("self times sum to %d, root lasts %d", sum, spans[0].end-spans[0].start)
	}

	// Overlapping siblings are covered once; a child is clipped to its parent.
	spans = []span{
		{kind: spClient, parent: -1, start: 0, end: 50},
		{kind: spGet, parent: 0, start: 10, end: 30},
		{kind: spUpdate, parent: 0, start: 20, end: 60},
	}
	self, count = [numSpanKinds]int64{}, [numSpanKinds]int64{}
	selfTimes(spans, &self, &count)
	if self[spClient] != 10 {
		t.Errorf("root self = %d, want 10 (covered 10..50)", self[spClient])
	}
}

func TestOverlapWithSyncUnion(t *testing.T) {
	syncs := []interval{{0, 15}, {20, 30}, {45, 60}}
	if got := overlap(interval{10, 50}, syncs); got != 5+10+5 {
		t.Errorf("overlap = %d, want 20", got)
	}
	if got := overlap(interval{16, 19}, syncs); got != 0 {
		t.Errorf("overlap in a gap = %d, want 0", got)
	}
}

func TestLayerTableRowsSumToClientLatency(t *testing.T) {
	tr := newTracer()
	ct := tr.newClientTrace()
	defer ct.close()
	for i := 0; i < 100; i++ {
		ct.begin()
		ct.t.openFrame(spSQL)
		for _, k := range []spanKind{spBegin, spGet, spUpdate, spCommit} {
			ct.t.wrote = true
			ct.t.close(ct.t.open(k))
		}
		ct.t.closeFrame()
		ct.end()
	}
	table := tr.buildLayerTable(ct.agg, nil)
	if table.Txns != 100 || table.ClientUs <= 0 {
		t.Fatalf("table %+v", table)
	}
	if d := table.SumUs - table.ClientUs; d > 1e-6 || d < -1e-6 {
		t.Errorf("rows sum to %v us, client latency %v us", table.SumUs, table.ClientUs)
	}
}

func TestWalBackendCrashKeepsOnlySyncedBytes(t *testing.T) {
	b := newWalBackend(wal.NewMemBackend(), nil)
	mustAppend := func(n int) {
		t.Helper()
		if _, err := b.Append(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	size := func() int64 {
		n, err := b.Size()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mustAppend(10)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(5)
	if err := b.crash(); err != nil {
		t.Fatal(err)
	}
	if size() != 10 {
		t.Errorf("after crash size %d, want the 10 synced bytes", size())
	}
	// A truncation below the watermark (tail repair) lowers it.
	if err := b.Truncate(4); err != nil {
		t.Fatal(err)
	}
	mustAppend(3)
	if err := b.crash(); err != nil {
		t.Fatal(err)
	}
	if size() != 4 {
		t.Errorf("after truncate+append+crash size %d, want 4", size())
	}
	if b.appended.Load() != 18 || b.syncs.Load() != 1 {
		t.Errorf("counted %d bytes, %d syncs", b.appended.Load(), b.syncs.Load())
	}
}

func TestDeviceCrashDropsUnsyncedPages(t *testing.T) {
	for _, file := range []bool{false, true} {
		d := &device{inner: &memDevice{}}
		if file {
			d.path = t.TempDir() + "/data.db"
			f, err := disk.OpenFileDevice(d.path)
			if err != nil {
				t.Fatal(err)
			}
			d.inner = f
		}
		alloc := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := d.AllocatePage(); err != nil {
					t.Fatal(err)
				}
			}
		}
		alloc(3)
		page := bytes.Repeat([]byte{7}, disk.PageSize)
		if err := d.WritePage(1, page); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		alloc(2)
		if err := d.crash(); err != nil {
			t.Fatal(err)
		}
		if d.NumPages() != 3 {
			t.Errorf("file=%v: %d pages after crash, want the 3 synced", file, d.NumPages())
		}
		got := make([]byte, disk.PageSize)
		if err := d.ReadPage(1, got); err != nil || !bytes.Equal(got, page) {
			t.Errorf("file=%v: synced page lost (err %v)", file, err)
		}
		if d.writes.Load() != 1 || d.reads.Load() != 1 {
			t.Errorf("file=%v: counted %d writes %d reads", file, d.writes.Load(), d.reads.Load())
		}
		_ = d.Close()
	}
}

func draw(n int, f func(*rand.Rand) int64, seed int64) []int64 {
	rng := newRNG(seed, 1)
	out := make([]int64, n)
	for i := range out {
		out[i] = f(rng)
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func() func(*rand.Rand) int64{
		"zipf":   func() func(*rand.Rand) int64 { return newZipf(1000, 0.99).key },
		"window": func() func(*rand.Rand) int64 { return (&slidingWindow{n: 1000, width: 50, stride: 10, hotPct: 80}).key },
		"nurand": func() func(*rand.Rand) int64 {
			return func(r *rand.Rand) int64 { return int64(nurand(r, 255, 1, 300)) }
		},
		"uniform": func() func(*rand.Rand) int64 { return uniformKeys{1000}.key },
	}
	for name, mk := range gens {
		a, b, c := draw(5000, mk(), 7), draw(5000, mk(), 7), draw(5000, mk(), 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different stream", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same stream", name)
		}
		for _, k := range a {
			if k < 0 || k > 1000 {
				t.Fatalf("%s: key %d out of range", name, k)
			}
		}
	}
}

func TestZipfIsSkewedAndSlidingWindowDrifts(t *testing.T) {
	z := newZipf(1000, 0.99)
	freq := map[int64]int{}
	for _, k := range draw(100_000, z.key, 1) {
		freq[k]++
	}
	top := 0
	for _, n := range freq {
		if n > top {
			top = n
		}
	}
	// P(rank 0) = 1/zeta(1000, 0.99) ≈ 0.13.
	if top < 10_000 || top > 17_000 {
		t.Errorf("hottest key drawn %d of 100000 times, want about 13%%", top)
	}
	if len(freq) < 500 {
		t.Errorf("only %d distinct keys of 1000", len(freq))
	}

	w := &slidingWindow{n: 100_000, width: 100, stride: 10, hotPct: 100}
	keys := draw(50_000, w.key, 1)
	if keys[0] >= 100 {
		t.Errorf("first key %d outside the initial window", keys[0])
	}
	if last := keys[len(keys)-1]; last < 4_999 || last >= 5_099 {
		t.Errorf("after 50000 draws at stride 10 the window starts at 4999, drew %d", last)
	}
}

func TestLastNameAndTPCCMix(t *testing.T) {
	if got := lastName(371); got != "PRICALLYOUGHT" {
		t.Errorf("lastName(371) = %s", got)
	}
	in := &tpccInstance{sc: tpccFull, seed: 1}
	c := in.newClient(0, streamMeasured, clientMode{}).(*tpccClient)
	var mix [5]int
	for i := 0; i < 20_000; i++ {
		c.draw()
		mix[c.p.typ]++
		if c.p.typ == tpNewOrder && (len(c.p.lines) < 5 || len(c.p.lines) > 15) {
			t.Fatalf("order with %d lines", len(c.p.lines))
		}
	}
	for typ, want := range []float64{0.45, 0.43, 0.04, 0.04, 0.04} {
		if got := float64(mix[typ]) / 20_000; got < want-0.015 || got > want+0.015 {
			t.Errorf("%s share %.3f, want %.2f", tpccTypes[typ], got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(med, lo, hi float64) e2eSummary { return e2eSummary{Median: med, Min: lo, Max: hi} }
	for _, c := range []struct {
		base, cur e2eSummary
		better    string
		want      string
	}{
		{s(100, 99, 101), s(97, 96, 98), "higher", "PASS"},
		{s(100, 99, 101), s(93, 92, 94), "higher", "REGRESSED"},
		{s(100, 99, 101), s(120, 119, 121), "higher", "PASS"},
		{s(100, 99, 101), s(107, 106, 108), "lower", "REGRESSED"},
		{s(100, 90, 110), s(93, 92, 94), "higher", "UNRESOLVED"},
		{s(100, 99, 101), s(100, 90, 110), "lower", "UNRESOLVED"},
	} {
		if _, got := verdict(c.base, c.cur, c.better, 0.05); got != c.want {
			t.Errorf("base %v new %v (%s better): %s, want %s", c.base, c.cur, c.better, got, c.want)
		}
	}
}

// endToEndNames are the metrics runEndToEnd reports.
var endToEndNames = []string{"tps", "lat_p50_us", "lat_p95_us", "cpu_us_per_txn", "disk_bytes_per_txn",
	"peak_rss_mb", "recovery_s", "setup_s"}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the program in
// step: same workloads, same metric names, units and directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, f.Workloads[i].Name, w.name)
		}
	}
	var names []string
	setupBound, maxBound := 0.0, 0.0
	for _, e := range f.EndToEnd {
		names = append(names, e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		} else if e.Bound > maxBound {
			maxBound = e.Bound
		}
	}
	if !reflect.DeepEqual(names, endToEndNames) {
		t.Errorf("end_to_end names\n  file %v\n  code %v", names, endToEndNames)
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (others up to %v)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(f.PerLayer), len(perLayer))
	}
	for i, lm := range perLayer {
		if g := f.PerLayer[i]; g.Name != lm.name || g.Unit != lm.unit || g.Better != lm.better {
			t.Errorf("per_layer %d: file %+v, code %+v", i, g, lm)
		}
	}
}

// TestSmoke drives every workload through every phase on tiny tables:
// three setups, two crash/recover/verify tails, the measured window and
// its verification, the untraced and traced windows, the layer table and
// the probes.
func TestSmoke(t *testing.T) {
	o := runOpts{seed: 1, window: 300 * time.Millisecond, smoke: true, root: t.TempDir()}
	for _, w := range workloads {
		d, err := runEndToEnd(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted == 0 {
			t.Errorf("%s: %+v %v", w.name, d.Result, d.Errors)
		}
		for _, name := range endToEndNames {
			if m, ok := d.Result.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, name, m.Value)
			}
		}
		if len(d.Result.Metrics) != len(endToEndNames) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(d.Result.Metrics), len(endToEndNames))
		}

		d, err = runPerLayer(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if len(d.Result.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(d.Result.Metrics), len(perLayer))
		}
		if d.LayerTable == nil || d.LayerTable.Txns == 0 {
			t.Errorf("%s: no layer table", w.name)
		}
		if d.Result.Metrics["btrim.self_us_per_txn"].Value <= 0 {
			t.Errorf("%s: engine spans missing from the traced run", w.name)
		}
	}
}
