package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// One invocation runs one workload. Phases, identical on every commit:
//
//	tail stack ×2: setup → checkpoint → tailTxns seeded transactions from
//	               one client → crash with a second client in flight →
//	               3 × (recover (timed) → verify → crash)
//	main stack:    setup → measured window (tracing off) → verify
//
// setup is schema + load + a fixed count of warm-up transactions, so its
// time is work done, not a sleep. The crash runs on stacks of their own
// whose history is fixed by counts: recovery replays the whole IMRS log,
// so on the measured stack its length would follow the machine's speed.
// A run makes three setups and six recoveries: setup_s is the median of
// the former, recovery_s the lower quartile of the latter (driver.go says
// why the good side).

// clientMode says how a client reaches the engine.
type clientMode struct {
	traced bool
	wire   bool // wire workload only: TCP (true) or in-process session (false)
}

// instance is one workload bound to one stack.
type instance interface {
	types() []string
	load() error
	startFrontEnd() error // the wire server, where the workload has one
	stopFrontEnd()
	frontEnd() frontEndCounts
	warmupTxns() int // per client
	numTxnClients() int
	newClient(id, stream int, mode clientMode) txnClient
	scan() scanFunc
	// scanAnomalies reports how many of the scan client's complete scans
	// returned a wrong row count, and how many it made.
	scanAnomalies() (anomalies, scans int64)
	verify() error
}

type workloadDef struct {
	name, why     string
	tailTxns      int
	cfg, smokeCfg stackConfig
	open          func(st *stack, seed int64, smoke bool) instance
}

func (w workloadDef) config(smoke bool) stackConfig {
	if smoke {
		return w.smokeCfg
	}
	return w.cfg
}

// Request streams: each phase draws from its own, so adding
// transactions to one phase does not shift the inputs of the next.
const (
	streamWarmup = iota + 1
	streamMeasured
	streamTail
	streamInflight
	streamTraced
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: exactly these keys, last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a run adds to the report beyond the contract line.
type detail struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	Seconds     float64          `json:"seconds"`
	DeviceModel string           `json:"device_model"`
	Clients     string           `json:"clients"`
	Samples     map[string]int64 `json:"samples"`
	Errors      []string         `json:"errors,omitempty"`
	LayerTable  *layerTable      `json:"layer_table,omitempty"`
	Result      result           `json:"result"`
	Notes       []string         `json:"notes,omitempty"`
	// Series holds the repeated measurements behind a reported median.
	Series map[string][]float64 `json:"series,omitempty"`
}

type runOpts struct {
	seed   int64
	window time.Duration // length of the measured and of the traced window
	smoke  bool
	root   string // directory for file-backed stacks and traces
}

// setup opens a stack, loads it and runs the warm-up; it returns how
// long that took.
func setup(w workloadDef, o runOpts, tr *tracer) (*stack, instance, time.Duration, error) {
	start := time.Now()
	st, err := openStack(w.config(o.smoke), o.root, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	in := w.open(st, o.seed, o.smoke)
	fail := func(err error) (*stack, instance, time.Duration, error) {
		in.stopFrontEnd()
		_ = st.close()
		return nil, nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	if err := in.load(); err != nil {
		return fail(err)
	}
	if err := in.startFrontEnd(); err != nil {
		return fail(err)
	}
	n := in.warmupTxns()
	if o.smoke {
		n = 200
	}
	var wg sync.WaitGroup
	recs := make([]*recorder, in.numTxnClients())
	errs := make([]error, len(recs))
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := in.newClient(i, streamWarmup, clientMode{wire: true})
			recs[i], errs[i] = runCount(c, in.types(), n)
			c.close()
		}(i)
	}
	wg.Wait()
	for i, r := range recs {
		if errs[i] != nil {
			return fail(errs[i])
		}
		if r.failed > 0 {
			return fail(fmt.Errorf("warm-up: %d of %d transactions failed: %v", r.failed, r.attempted, r.errs))
		}
	}
	return st, in, time.Since(start), nil
}

// tailOutcome is what the crash phase measured.
type tailOutcome struct {
	recoveries []time.Duration
	attempted  int64
	failed     int64
	errs       []string
}

// recoveriesPerTail is how many times each tail stack is crashed and
// recovered; after the first, the crash hits an idle node.
const recoveriesPerTail = 3

// tail checkpoints, runs exactly w.tailTxns seeded transactions from one
// client, crashes the stack while a second client is mid-stream, recovers
// and verifies: every acknowledged commit readable, nothing partial.
func tail(w workloadDef, st *stack, in instance, o runOpts) (tailOutcome, error) {
	var out tailOutcome
	if err := st.checkpoint(); err != nil {
		return out, err
	}
	n := w.tailTxns
	if o.smoke {
		n = 300
	}
	c := in.newClient(0, streamTail, clientMode{wire: true})
	rec, err := runCount(c, in.types(), n)
	c.close()
	if err != nil {
		return out, err
	}
	out.attempted, out.failed, out.errs = rec.attempted, rec.failed, rec.errs

	// Crash with work in flight: client 1 keeps committing until the halt
	// makes a commit fail. Those last outcomes are unknown to the driver;
	// the oracle allows either, but never half a transaction.
	var stop atomic.Bool
	var inflight atomic.Int64
	done := make(chan error, 1)
	c2 := in.newClient(1%in.numTxnClients(), streamInflight, clientMode{wire: true})
	go func() {
		if err := c2.start(); err != nil {
			done <- err
			return
		}
		for !stop.Load() {
			res := c2.txn()
			if res.out == failed {
				break
			}
			inflight.Add(1)
		}
		done <- nil
	}()
	for deadline := time.Now().Add(2 * time.Second); inflight.Load() < 50 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := st.halt(); err != nil {
		return out, err
	}
	stop.Store(true)
	if err := <-done; err != nil {
		return out, err
	}
	c2.close()
	in.stopFrontEnd()

	for i := 0; i < recoveriesPerTail; i++ {
		if i > 0 {
			if err := st.halt(); err != nil {
				return out, err
			}
		}
		if err := st.media.crash(); err != nil {
			return out, fmt.Errorf("crash: %w", err)
		}
		d, err := st.recover()
		if err != nil {
			return out, err
		}
		out.recoveries = append(out.recoveries, d)
		if err := verifyQuiescent(in); err != nil {
			return out, fmt.Errorf("after recovery %d: %w", i+1, err)
		}
	}

	return out, nil
}

// verifyQuiescent runs the workload's output checks once the clients have
// stopped. Pack and freeze keep running for a moment after that, and at
// the seed commit a table scan beside them can miss or repeat rows
// (README "Known limits"), so a failed check is repeated a few times:
// data at rest cannot heal itself, hence a check that passes on a later
// attempt had tripped over a transient read anomaly, while lost or
// half-applied data fails every attempt.
func verifyQuiescent(in instance) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = in.verify(); err == nil {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return err
}

// quantileOf returns the q-quantile of v, interpolating linearly between
// the two nearest ranks (0 for an empty v).
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// measuredWindow is the untraced timed run plus the storage traffic it
// caused.
type measuredWindow struct {
	window
	walBytes, pageWrites int64
	pageReads, walSyncs  int64
}

func measure(st *stack, in instance, o runOpts, stream int, mode clientMode) (measuredWindow, error) {
	clients := make([]txnClient, in.numTxnClients())
	for i := range clients {
		clients[i] = in.newClient(i, stream, mode)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	m := st.media
	wal0, pw0, pr0, ws0 := m.walBytes(), m.pageWrites(), m.pageReads(), m.walSyncs()
	win, err := runFor(clients, in.types(), o.window, in.scan())
	if err != nil {
		return measuredWindow{}, err
	}
	return measuredWindow{
		window:   win,
		walBytes: m.walBytes() - wal0, pageWrites: m.pageWrites() - pw0,
		pageReads: m.pageReads() - pr0, walSyncs: m.walSyncs() - ws0,
	}, nil
}

// runEndToEnd is --trace 0: every end-to-end metric of one workload.
func runEndToEnd(w workloadDef, o runOpts) (*detail, error) {
	d := &detail{Workload: w.name, Seed: o.seed, Seconds: o.window.Seconds(), Samples: map[string]int64{},
		DeviceModel: w.config(o.smoke).deviceModel()}
	var setups, recoveries []float64
	attempted, failedN := int64(0), int64(0)

	for i := 0; i < 2; i++ {
		st, in, took, err := setup(w, o, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		out, err := tail(w, st, in, o)
		if err != nil {
			in.stopFrontEnd()
			_ = st.close()
			return nil, fmt.Errorf("%s tail: %w", w.name, err)
		}
		for _, r := range out.recoveries {
			recoveries = append(recoveries, r.Seconds())
		}
		attempted += out.attempted
		failedN += out.failed
		d.Errors = append(d.Errors, out.errs...)
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("%s close after tail: %w", w.name, err)
		}
		runtime.GC() // the discarded stack must not inflate the next one's peak RSS
	}

	st, in, took, err := setup(w, o, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, took.Seconds())
	mw, err := measure(st, in, o, streamMeasured, clientMode{wire: true})
	if err == nil {
		err = verifyQuiescent(in)
	}
	in.stopFrontEnd()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s measured: %w", w.name, err)
	}
	rec := mw.rec
	attempted += rec.attempted
	failedN += rec.failed
	d.Errors = append(d.Errors, rec.errs...)
	if rec.committed == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the measured window", w.name)
	}

	n := float64(rec.committed)
	d.Clients = fmt.Sprintf("closed loop, %d transaction client(s)", in.numTxnClients())
	if in.scan() != nil {
		d.Clients += " + 1 scan client"
	}
	d.Series = map[string][]float64{"setup_s": setups, "recovery_s": recoveries, "tps_slices": rec.sliceRates(o.window)}
	d.Samples["lat"] = int64(rec.lat.n)
	d.Samples["setup"] = int64(len(setups))
	d.Samples["recovery"] = int64(len(recoveries))
	d.Samples["committed"] = rec.committed
	d.Samples["user_aborts"] = rec.userAborts
	d.Samples["retried"] = rec.retried
	d.Samples["read_anomalies"] = rec.anomalies
	if rec.anomalies > 0 {
		d.Notes = append(d.Notes, readAnomalyNote(rec.anomalies))
	}
	d.Result = result{
		Correct:   true,
		Attempted: attempted,
		Failed:    failedN,
		Metrics: map[string]metric{
			"tps":                {rec.sliceTPS(o.window), "1/s"},
			"lat_p50_us":         {rec.sliceQuantile(0.50, o.window) / 1e3, "us"},
			"lat_p95_us":         {rec.sliceQuantile(0.95, o.window) / 1e3, "us"},
			"cpu_us_per_txn":     {mw.sliceCPU() / 1e3, "us"},
			"disk_bytes_per_txn": {float64(mw.walBytes+mw.pageWrites*pageSize) / n, "B"},
			"recovery_s":         {quantileOf(recoveries, 0.25), "s"},
			"setup_s":            {median(setups), "s"},
			"peak_rss_mb":        {peakRSSMB(), "MB"},
		},
	}
	return d, nil
}
