package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/imrs"
	"repro/internal/tpcc"
)

// BenefitsData holds the paired ILM_ON / ILM_OFF runs that Figures 1-6
// are derived from (the paper's §VIII-B setup).
type BenefitsData struct {
	On  *Result
	Off *Result
}

// CollectBenefits runs the workload twice: ILM_OFF (fully memory
// resident, no pack) then ILM_ON.
func CollectBenefits(opts Options) (*BenefitsData, error) {
	off, err := Run(opts, false)
	if err != nil {
		return nil, err
	}
	on, err := Run(opts, true)
	if err != nil {
		return nil, err
	}
	return &BenefitsData{On: on, Off: off}, nil
}

// Table1 regenerates the paper's Table 1: the observed workload profile
// of each TPC-C table, classified from the measured ISUD mix of an
// ILM_OFF run (where every operation is visible in the IMRS counters).
func Table1(w io.Writer, off *Result) map[string]string {
	type mix struct{ ins, sel, upd, del, rows int64 }
	mixes := map[string]mix{}
	var maxRows int64
	for _, p := range off.Final.Partitions {
		m := mixes[p.Name]
		m.ins += p.IMRSInserts
		m.sel += p.IMRSSelects
		m.upd += p.IMRSUpdates
		m.del += p.IMRSDeletes
		m.rows += p.IMRSRows
		mixes[p.Name] = m
		if m.rows > maxRows {
			maxRows = m.rows
		}
	}
	classify := func(m mix) string {
		total := m.ins + m.sel + m.upd + m.del
		if total == 0 {
			return "idle"
		}
		size := "small"
		switch {
		case m.rows > maxRows/2:
			size = "large"
		case m.rows > maxRows/20:
			size = "medium"
		}
		insF := float64(m.ins) / float64(total)
		selF := float64(m.sel) / float64(total)
		updF := float64(m.upd) / float64(total)
		delF := float64(m.del) / float64(total)
		switch {
		case delF > 0.15 && insF > 0.15:
			return size + ", inserts and deletes (queue table)"
		case insF > 0.90:
			return size + ", insert only"
		case insF > 0.55:
			return size + ", heavy inserts, low scans/updates"
		case updF > 0.45:
			return size + ", frequent updates"
		case selF > 0.90:
			return size + ", read only / read mostly"
		case updF > selF:
			return size + ", heavy updates and some selects"
		default:
			return size + ", high scan and update rates"
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TABLE 1: PROFILE OF TABLES SEEN IN THE TPC-C SCHEMA (measured)")
	fmt.Fprintln(tw, "table\tIMRS rows\tins\tsel\tupd\tdel\tobserved pattern")
	out := map[string]string{}
	for _, name := range tpcc.TableNames {
		m := mixes[name]
		pattern := classify(m)
		out[name] = pattern
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			name, m.rows, m.ins, m.sel, m.upd, m.del, pattern)
	}
	tw.Flush()
	return out
}

// Fig1Summary is the headline comparison of §VIII-B.
type Fig1Summary struct {
	RelativeTPM    float64 // ILM_ON TPM / ILM_OFF TPM (paper: within ±10%)
	IMRSHitRate    float64 // % ops in the IMRS with ILM_ON (paper: ~80%)
	CacheReduction float64 // 1 - usedON/usedOFF at end of run (paper: ~40%)
}

// Fig1 regenerates Figure 1 (§VIII-B): relative throughput, IMRS hit
// rate, and cache-utilization reduction of ILM_ON versus ILM_OFF, as a
// time series plus a final summary.
func Fig1(w io.Writer, d *BenefitsData) Fig1Summary {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 1: BENEFITS OF ILM STRATEGIES (relative metrics, ILM_ON vs ILM_OFF)")
	fmt.Fprintln(tw, "t(s)\trelTPM\thit-rate%\tcache-reduction%")
	n := len(d.On.Samples)
	if len(d.Off.Samples) < n {
		n = len(d.Off.Samples)
	}
	for i := 0; i < n; i++ {
		on, off := d.On.Samples[i], d.Off.Samples[i]
		rel := 0.0
		if off.Committed > 0 {
			rel = float64(on.Committed) / float64(off.Committed)
		}
		hit := hitRateAt(on)
		redux := 0.0
		if off.Used > 0 {
			redux = 1 - float64(on.Used)/float64(off.Used)
		}
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.1f\t%.1f\n",
			on.Elapsed.Seconds(), rel, hit*100, redux*100)
	}
	sum := Fig1Summary{
		RelativeTPM: d.On.TPM / d.Off.TPM,
		IMRSHitRate: d.On.Final.IMRSHitRate(),
	}
	if d.Off.Final.IMRSUsedBytes > 0 {
		sum.CacheReduction = 1 - float64(d.On.Final.IMRSUsedBytes)/float64(d.Off.Final.IMRSUsedBytes)
	}
	fmt.Fprintf(tw, "FINAL\t%.3f\t%.1f\t%.1f\n",
		sum.RelativeTPM, sum.IMRSHitRate*100, sum.CacheReduction*100)
	tw.Flush()
	return sum
}

func hitRateAt(s Sample) float64 {
	var imrsOps, pageOps int64
	for _, t := range s.Tables {
		imrsOps += t.IMRSOps
		pageOps += t.PageOps
	}
	if imrsOps+pageOps == 0 {
		return 0
	}
	return float64(imrsOps) / float64(imrsOps+pageOps)
}

// Fig2 regenerates Figure 2: IMRS cache utilization over the run for
// both schemes (OFF grows unbounded; ON plateaus near the threshold).
func Fig2(w io.Writer, d *BenefitsData) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 2: CACHE UTILIZATION, ILM_ON vs ILM_OFF (MB)")
	fmt.Fprintln(tw, "t(s)\tILM_OFF\tILM_ON")
	n := len(d.On.Samples)
	if len(d.Off.Samples) < n {
		n = len(d.Off.Samples)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(tw, "%.2f\t%s\t%s\n",
			d.On.Samples[i].Elapsed.Seconds(),
			fmtMB(d.Off.Samples[i].Used), fmtMB(d.On.Samples[i].Used))
	}
	tw.Flush()
}

// figFootprint prints a per-table IMRS footprint time series (Figures 3
// and 4).
func figFootprint(w io.Writer, title string, r *Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title)
	if len(r.Samples) == 0 {
		fmt.Fprintln(tw, "(no samples)")
		tw.Flush()
		return
	}
	names := sortedTableNames(r.Samples[len(r.Samples)-1].Tables)
	header := "t(s)"
	for _, n := range names {
		header += "\t" + n
	}
	fmt.Fprintln(tw, header)
	for _, s := range r.Samples {
		line := fmt.Sprintf("%.2f", s.Elapsed.Seconds())
		for _, n := range names {
			line += "\t" + fmtMB(s.Tables[n].Bytes)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}

// Fig3 regenerates Figure 3: per-table footprints, ILM_OFF (growing).
func Fig3(w io.Writer, d *BenefitsData) {
	figFootprint(w, "FIG 3: PER-TABLE IMRS FOOTPRINT, ILM_OFF (MB)", d.Off)
}

// Fig4 regenerates Figure 4: per-table footprints, ILM_ON (stable).
func Fig4(w io.Writer, d *BenefitsData) {
	figFootprint(w, "FIG 4: PER-TABLE IMRS FOOTPRINT, ILM_ON (MB)", d.On)
}

// Fig5 regenerates Figure 5: normalized throughput and cumulative data
// packed over the ILM_ON run (TPM within ~10% of ILM_OFF; packed MB
// grows as the run progresses).
func Fig5(w io.Writer, d *BenefitsData) (normTPM float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 5: NORMALIZED TPM AND DATA PACKED (ILM_ON; ILM_OFF TPM = 1.0)")
	fmt.Fprintln(tw, "t(s)\tnormTPM\tpacked(MB)")
	n := len(d.On.Samples)
	if len(d.Off.Samples) < n {
		n = len(d.Off.Samples)
	}
	for i := 0; i < n; i++ {
		on, off := d.On.Samples[i], d.Off.Samples[i]
		rel := 0.0
		if off.Committed > 0 {
			rel = float64(on.Committed) / float64(off.Committed)
		}
		fmt.Fprintf(tw, "%.2f\t%.3f\t%s\n", on.Elapsed.Seconds(), rel, fmtMB(on.Packed))
	}
	normTPM = d.On.TPM / d.Off.TPM
	fmt.Fprintf(tw, "FINAL\t%.3f\t%s\n", normTPM, fmtMB(d.On.Final.BytesPacked))
	tw.Flush()
	return normTPM
}

// Fig6 regenerates Figure 6: average per-row re-use counts per table in
// the ILM_ON run (reuse ops / rows brought into the IMRS; the paper uses
// a log scale because TPC-C access is heavily skewed).
func Fig6(w io.Writer, on *Result) map[string]float64 {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 6: AVERAGE PER-ROW RE-USE COUNT PER TABLE (ILM_ON)")
	fmt.Fprintln(tw, "table\treuse-ops\trows-entered\tavg-reuse")
	tables := snapshotTables(on.Final)
	out := map[string]float64{}
	for _, name := range tpcc.TableNames {
		t := tables[name]
		rows := t.NewRows
		if rows < 1 {
			rows = 1
		}
		avg := float64(t.ReuseOps) / float64(rows)
		out[name] = avg
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\n", name, t.ReuseOps, t.NewRows, avg)
	}
	tw.Flush()
	return out
}

// Fig7 regenerates Figure 7: rows packed per table, aggregated over
// `runs` ILM_ON runs (the paper aggregates 4).
func Fig7(w io.Writer, opts Options, runs int) (map[string]int64, error) {
	if runs < 1 {
		runs = 1
	}
	agg := map[string]int64{}
	for i := 0; i < runs; i++ {
		r, err := Run(opts, true)
		if err != nil {
			return nil, err
		}
		for name, t := range snapshotTables(r.Final) {
			agg[name] += t.PackedRows
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "FIG 7: ROWS PACKED PER TABLE (aggregated over %d runs)\n", runs)
	fmt.Fprintln(tw, "table\trows-packed")
	for _, name := range tpcc.TableNames {
		fmt.Fprintf(tw, "%s\t%d\n", name, agg[name])
	}
	tw.Flush()
	return agg, nil
}

// Fig8Band is the cold fraction of one 10% band of a table's ILM queue.
type Fig8Band struct {
	Table string
	// ColdPct[i] is the percentage of cold rows in the i-th 10% of the
	// queue from the head.
	ColdPct [10]float64
	Rows    int
}

// Fig8 regenerates Figure 8: the percentage of cold rows (per the
// current TSF) in every 10% band of each table's ILM queues, head to
// tail, measured live at the end of an ILM_ON run.
func Fig8(w io.Writer, opts Options) ([]Fig8Band, error) {
	var bands []Fig8Band
	_, err := RunWithEngine(opts, true, func(db *btrim.DB, res *Result) error {
		eng := db.Node().Engine(0)
		// The background packer keeps harvesting; retry until the walk
		// catches populated queues.
		for attempt := 0; attempt < 20 && len(bands) == 0; attempt++ {
			bands = walkQueueBands(eng)
			if len(bands) == 0 {
				time.Sleep(50 * time.Millisecond)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 8: % COLD ROWS IN EVERY 10% OF THE ILM QUEUE (head → tail)")
	header := "table\trows"
	for b := 1; b <= 10; b++ {
		header += fmt.Sprintf("\t%d0%%", b)
	}
	fmt.Fprintln(tw, header)
	for _, b := range bands {
		line := fmt.Sprintf("%s\t%d", b.Table, b.Rows)
		for _, c := range b.ColdPct {
			line += fmt.Sprintf("\t%.0f", c)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
	return bands, nil
}

func walkQueueBands(eng *core.Engine) []Fig8Band {
	var bands []Fig8Band
	now := eng.Clock().Now()
	{
		for _, p := range eng.Stats().Partitions {
			trio := eng.Queues().PartitionQueues(p.ID)
			if trio == nil {
				continue
			}
			rows := p.IMRSRows
			if rows < 1 {
				rows = 1
			}
			reuseRate := float64(p.ReuseOps()) / float64(rows)
			var entries []*imrs.Entry
			for i := range trio {
				trio[i].Walk(func(e *imrs.Entry) bool {
					entries = append(entries, e)
					return true
				})
			}
			if len(entries) < 10 {
				continue
			}
			band := Fig8Band{Table: p.Name, Rows: len(entries)}
			per := len(entries) / 10
			for b := 0; b < 10; b++ {
				lo, hi := b*per, (b+1)*per
				if b == 9 {
					hi = len(entries)
				}
				cold := 0
				for _, e := range entries[lo:hi] {
					if eng.TSF().RowIsCold(now, e.LastAccess(), reuseRate) {
						cold++
					}
				}
				band.ColdPct[b] = 100 * float64(cold) / float64(hi-lo)
			}
			bands = append(bands, band)
		}
	}
	return bands
}

// SweepPoint is one steady-threshold sweep measurement (Figures 9, 10).
type SweepPoint struct {
	Threshold   float64
	HWMUtilPct  float64 // high-water-mark utilization as % of capacity
	TPM         float64
	RowsPacked  int64
	RowsSkipped int64
}

// Fig9Fig10 regenerates Figures 9 and 10: for each steady-cache
// utilization threshold, the observed high-water-mark utilization, the
// throughput, and the pack/skip work.
func Fig9Fig10(w io.Writer, opts Options, thresholds []float64) ([]SweepPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	var points []SweepPoint
	for _, th := range thresholds {
		o := opts
		o.Steady = th
		r, err := Run(o, true)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			Threshold:   th,
			HWMUtilPct:  100 * float64(r.HWMUsed) / float64(r.Capacity),
			TPM:         r.TPM,
			RowsPacked:  r.Final.RowsPacked,
			RowsSkipped: r.Final.RowsSkipped,
		})
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIG 9: HWM CACHE UTILIZATION PER STEADY THRESHOLD")
	fmt.Fprintln(tw, "threshold%\tHWM-util%")
	for _, p := range points {
		fmt.Fprintf(tw, "%.0f\t%.1f\n", p.Threshold*100, p.HWMUtilPct)
	}
	// Normalize Figure 10's series against their maxima, as the paper does.
	var maxTPM float64
	var maxPacked, maxSkipped int64
	for _, p := range points {
		if p.TPM > maxTPM {
			maxTPM = p.TPM
		}
		if p.RowsPacked > maxPacked {
			maxPacked = p.RowsPacked
		}
		if p.RowsSkipped > maxSkipped {
			maxSkipped = p.RowsSkipped
		}
	}
	fmt.Fprintln(tw, "FIG 10: NORMALIZED ILM/PACK PARAMETERS PER STEADY THRESHOLD")
	fmt.Fprintln(tw, "threshold%\tnormTPM\tnormRowsPacked\tnormRowsSkipped")
	norm := func(v, max float64) float64 {
		if max == 0 {
			return 0
		}
		return v / max
	}
	for _, p := range points {
		fmt.Fprintf(tw, "%.0f\t%.3f\t%.3f\t%.3f\n",
			p.Threshold*100,
			norm(p.TPM, maxTPM),
			norm(float64(p.RowsPacked), float64(maxPacked)),
			norm(float64(p.RowsSkipped), float64(maxSkipped)))
	}
	tw.Flush()
	return points, nil
}
