package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runsPerWorkload is how many end-to-end runs (seeds seed, seed+1, ...)
// a full report makes of each workload; the report keeps their median
// and range so that -compare can tell a difference from noise.
const runsPerWorkload = 3

// report is the JSON a full run writes.
type report struct {
	Schema     string           `json:"schema"`
	GitCommit  string           `json:"git_commit"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Runs       int              `json:"runs_per_workload"`
	Smoke      bool             `json:"smoke,omitempty"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	DeviceModel string                 `json:"device_model"`
	Clients     string                 `json:"clients"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	EndToEnd    map[string]e2eSummary  `json:"end_to_end"`
	PerLayer    map[string]layerReport `json:"per_layer"`
	LayerTable  *layerTable            `json:"layer_table"`
	Samples     map[string]int64       `json:"samples"`
	Errors      []string               `json:"errors,omitempty"`
}

// e2eSummary is one end-to-end metric over the report's runs.
type e2eSummary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
}

type layerReport struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Source string  `json:"source"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gitCommit names the commit of the checkout, or "unknown" where there
// is no git repository (the driver's checkouts).
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

// child runs one workload in a fresh process (its peak RSS and its Go
// heap are its own) and returns the detail it wrote.
func child(o runOpts, workload string, seed int64, trace int) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	outFile := filepath.Join(o.root, fmt.Sprintf("%s-%d-%d.json", workload, seed, trace))
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(int(o.window.Seconds())),
		"-trace", fmt.Sprint(trace), "-out", outFile}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	b, err := os.ReadFile(outFile)
	if err != nil {
		return nil, err
	}
	var d detail
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// runAll runs every workload, end to end and traced, and writes the
// report.
func runAll(o runOpts, base, out string) error {
	runs := runsPerWorkload
	if o.smoke {
		runs = 1
	}
	rep := report{
		Schema: "btrim-bench/1", GitCommit: gitCommit(base), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: int(o.window.Seconds()), Runs: runs, Smoke: o.smoke,
	}
	fmt.Printf("btrim bench  commit %s  %s  NumCPU %d  GOMAXPROCS %d  seed %d  window %d s  %d end-to-end run(s) per workload\n\n",
		rep.GitCommit, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.Seed, rep.Seconds, runs)
	// End-to-end runs go round-robin over the workloads, so that the runs of
	// one workload lie minutes apart: a disturbance of the sandbox that lasts
	// a minute or two then hits one of them, which the median ignores and
	// the range shows.
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: w.name, Why: w.why,
			EndToEnd: map[string]e2eSummary{}, PerLayer: map[string]layerReport{}})
	}
	for i := 0; i < runs; i++ {
		for wi, w := range workloads {
			d, err := child(o, w.name, o.seed+int64(i), 0)
			if err != nil {
				return err
			}
			wr := &rep.Workloads[wi]
			wr.DeviceModel, wr.Clients, wr.Samples = d.DeviceModel, d.Clients, d.Samples
			wr.Attempted += d.Result.Attempted
			wr.Failed += d.Result.Failed
			wr.Errors = append(wr.Errors, d.Errors...)
			for name, m := range d.Result.Metrics {
				sum := wr.EndToEnd[name]
				sum.Unit, sum.Runs = m.Unit, append(sum.Runs, m.Value)
				wr.EndToEnd[name] = sum
			}
			fmt.Println()
		}
	}
	for wi, w := range workloads {
		wr := &rep.Workloads[wi]
		for name, sum := range wr.EndToEnd {
			sum.Median, sum.Min, sum.Max = median(sum.Runs), quantileOf(sum.Runs, 0), quantileOf(sum.Runs, 1)
			wr.EndToEnd[name] = sum
		}
		d, err := child(o, w.name, o.seed, 1)
		if err != nil {
			return err
		}
		for _, lm := range perLayer {
			wr.PerLayer[lm.name] = layerReport{d.Result.Metrics[lm.name].Value, lm.unit, lm.source}
		}
		wr.LayerTable = d.LayerTable
		for k, v := range d.Samples {
			wr.Samples[k] = v
		}
		wr.Errors = append(wr.Errors, d.Errors...)
		fmt.Println()
	}
	printSummary(&rep, os.Stdout)
	if err := writeJSON(out, &rep); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", out)
	for _, wr := range rep.Workloads {
		if float64(wr.Failed) >= 0.01*float64(wr.Attempted) {
			return fmt.Errorf("%s: %d of %d transactions failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

func printSummary(rep *report, w io.Writer) {
	fmt.Fprintf(w, "end-to-end metrics: median [min .. max] of %d run(s)\n", rep.Runs)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "  %s  (failed %d of %d)\n", wr.Name, wr.Failed, wr.Attempted)
		for _, name := range sortedKeys(wr.EndToEnd) {
			s := wr.EndToEnd[name]
			fmt.Fprintf(w, "    %-22s %14.4f [%.4f .. %.4f] %s\n", name, s.Median, s.Min, s.Max, s.Unit)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict classifies one metric of one workload. worse is how far the
// new median moved in the bad direction as a share of the base median.
// A range wider than the bound on either side means the runs cannot
// resolve a difference of that size: the metric is unresolved, neither
// passed nor regressed.
func verdict(base, cur e2eSummary, better string, bound float64) (worse float64, v string) {
	worse = (cur.Median - base.Median) / base.Median
	if better == "higher" {
		worse = -worse
	}
	spread := func(s e2eSummary) float64 { return (s.Max - s.Min) / s.Median }
	switch {
	case spread(base) > bound || spread(cur) > bound:
		return worse, "UNRESOLVED"
	case worse > bound:
		return worse, "REGRESSED"
	default:
		return worse, "PASS"
	}
}

// compareReports prints, per workload and end-to-end metric, both
// medians, their ratio (new over base) and the verdict against the bound
// BENCHMARK.json fixes. It returns the exit status: 0 all passed, 1 a
// regression, 2 no regression but something unresolved, 3 unusable
// input.
func compareReports(basePath, curPath string, w io.Writer) int {
	b, err := os.ReadFile(filepath.Join(checkoutRoot(), "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 3
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 3
	}
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 3
	}
	cur, err := loadReport(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 3
	}
	return compareLoaded(base, cur, bf, w)
}

func compareLoaded(base, cur *report, bf benchmarkFile, w io.Writer) int {
	fmt.Fprintf(w, "base %s (seed %d, %d s, %d runs)   new %s (seed %d, %d s, %d runs)\n",
		base.GitCommit, base.Seed, base.Seconds, base.Runs, cur.GitCommit, cur.Seed, cur.Seconds, cur.Runs)
	if base.Seconds != cur.Seconds || base.Smoke != cur.Smoke {
		fmt.Fprintln(w, "the reports were taken with different settings; they do not compare")
		return 3
	}
	curBy := map[string]workloadReport{}
	for _, wr := range cur.Workloads {
		curBy[wr.Name] = wr
	}
	regressed, unresolved := 0, 0
	for _, bw := range base.Workloads {
		cw, ok := curBy[bw.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from the new report\n", bw.Name)
			regressed++
			continue
		}
		fmt.Fprintf(w, "%s\n", bw.Name)
		if cw.Failed > bw.Failed {
			fmt.Fprintf(w, "  failed transactions rose from %d to %d: REGRESSED\n", bw.Failed, cw.Failed)
			regressed++
		}
		for _, e := range bf.EndToEnd {
			bs, cs := bw.EndToEnd[e.Name], cw.EndToEnd[e.Name]
			if bs.Median == 0 {
				continue
			}
			worse, v := verdict(bs, cs, e.Better, e.Bound)
			fmt.Fprintf(w, "  %-20s base %14.4f  new %14.4f %-8s new/base %.4f  worse by %+6.2f%% (bound %.0f%%)  %s\n",
				e.Name, bs.Median, cs.Median, bs.Unit, cs.Median/bs.Median, 100*worse, 100*e.Bound, v)
			switch v {
			case "REGRESSED":
				regressed++
			case "UNRESOLVED":
				unresolved++
			}
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 2
	}
	return 0
}
