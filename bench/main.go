// Command bench is the repository's one benchmark: four closed-loop
// workloads, end-to-end metrics with tracing off, a traced per-layer
// account, output verification, and a comparison of two reports. See
// README.md in this directory.
//
//	go run -C bench .                                  all workloads, writes a report
//	go run -C bench . -workload kv_hot -trace 1        one run, one JSON line last
//	go run -C bench . -compare A.json B.json           PASS / REGRESSED / UNRESOLVED
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run this workload once in this process (default: all, each run in a fresh child process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured (and of the traced) window")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
	out := flag.String("out", "", "write the JSON report here (default with no -workload: bench-report.json in the checkout's .bench_build)")
	compare := flag.Bool("compare", false, "compare two reports: -compare BASE.json NEW.json")
	smoke := flag.Bool("smoke", false, "tiny tables, small counts and 1 s windows: exercises every phase of every workload in seconds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *smoke {
		*seconds = 1
	}
	if err := run(*workload, *out, *trace == 1, runOpts{seed: *seed, window: time.Duration(*seconds) * time.Second, smoke: *smoke}); err != nil {
		fatal(err)
	}
}

// run executes one workload in this process, or all of them in child
// processes when workload is empty. Everything it writes lands in the
// checkout's .bench_build.
func run(workload, out string, traced bool, o runOpts) error {
	base := checkoutRoot()
	build := filepath.Join(base, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	o.root = root

	if workload == "" {
		if out == "" {
			out = filepath.Join(build, "bench-report.json")
		}
		return runAll(o, base, out)
	}
	w, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	// A run that outlives this is hung, not slow (the sandbox's worst was
	// twice the usual 25 s): name the stuck goroutines and fail instead of
	// waiting to be killed.
	limit := 2*time.Minute + 3*o.window
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v; goroutines:\n", workload, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // best effort on the way out
		os.Exit(4)
	})
	defer watchdog.Stop()
	runOne := runEndToEnd
	if traced {
		runOne = runPerLayer
	}
	d, err := runOne(w, o)
	if err != nil {
		return err
	}
	printDetail(d)
	if out != "" {
		if err := writeJSON(out, d); err != nil {
			return err
		}
	}
	line, err := json.Marshal(d.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// checkoutRoot is the directory holding BENCHMARK.json: the working
// directory, or its parent when started with go run -C bench.
func checkoutRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printDetail(d *detail) {
	fmt.Printf("workload %s  seed %d  window %g s  trace %v\n", d.Workload, d.Seed, d.Seconds, d.Trace)
	fmt.Printf("  devices: %s\n  clients: %s\n", d.DeviceModel, d.Clients)
	for _, n := range sortedKeys(d.Result.Metrics) {
		m := d.Result.Metrics[n]
		fmt.Printf("  %-38s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d  failed %d  sample counts %v\n", d.Result.Attempted, d.Result.Failed, d.Samples)
	for _, k := range sortedKeys(d.Series) {
		fmt.Printf("  %s: %.4g\n", k, d.Series[k])
	}
	if t := d.LayerTable; t != nil {
		fmt.Printf("  traced layer table (us per transaction, %d transactions):\n", t.Txns)
		for _, r := range t.Rows {
			fmt.Printf("    %-32s %12.3f\n", r.Layer, r.Us)
		}
		fmt.Printf("    %-32s %12.3f   traced client latency %.3f\n", "sum", t.SumUs, t.ClientUs)
	}
	for _, n := range d.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, e := range d.Errors {
		fmt.Printf("  error: %s\n", e)
	}
}
