package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// layerMetric declares one per-layer metric. source says where the
// number comes from: "span" (the traced run), "count" (difference of the
// stack's own counters over the untraced window), "probe" (direct calls
// into one layer, probes.go) or "driver" (the closed-loop driver itself).
type layerMetric struct {
	name, unit, better, source string
}

var perLayer = []layerMetric{
	{"driver.lat_p99_us", "us", "lower", "driver"},
	{"driver.lat_p999_us", "us", "lower", "driver"},
	{"driver.lat_max_us", "us", "lower", "driver"},
	{"driver.neworder_p50_us", "us", "lower", "driver"},
	{"driver.payment_p50_us", "us", "lower", "driver"},
	{"driver.delivery_p50_us", "us", "lower", "driver"},
	{"driver.user_abort_frac", "frac", "lower", "driver"},
	{"driver.retry_frac", "frac", "lower", "driver"},
	{"driver.failed_frac", "frac", "lower", "driver"},
	{"driver.read_anomalies_per_mtxn", "count", "lower", "driver"},
	{"driver.scan_mrows_per_s", "Mrows/s", "higher", "driver"},
	{"driver.scan_anomaly_frac", "frac", "lower", "driver"},
	{"driver.trace_overhead_frac", "frac", "lower", "driver"},
	{"proc.allocs_per_txn", "count", "lower", "count"},
	{"proc.alloc_bytes_per_txn", "B", "lower", "count"},
	{"proc.gc_pause_frac", "frac", "lower", "count"},
	{"server.self_us_per_txn", "us", "lower", "span"},
	{"server.round_trips_per_txn", "count", "lower", "count"},
	{"server.req_bytes_per_txn", "B", "lower", "count"},
	{"server.resp_bytes_per_txn", "B", "lower", "count"},
	{"server.frame_rtt_us_stub", "us", "lower", "probe"},
	{"sql.self_us_per_txn", "us", "lower", "span"},
	{"sql.plan_cache_hit_rate", "frac", "higher", "count"},
	{"sql.exec_prepared_ns_stub", "ns", "lower", "probe"},
	{"sql.exec_literal_ns_stub", "ns", "lower", "probe"},
	{"btrim.self_us_per_txn", "us", "lower", "span"},
	{"btrim.get_p50_us", "us", "lower", "span"},
	{"btrim.update_p50_us", "us", "lower", "span"},
	{"btrim.insert_p50_us", "us", "lower", "span"},
	{"btrim.lookup_p50_us", "us", "lower", "span"},
	{"btrim.commit_p50_us", "us", "lower", "span"},
	{"btrim.commit_p95_us", "us", "lower", "span"},
	{"shard.cross_commit_frac", "frac", "lower", "count"},
	{"shard.prepares_per_txn", "count", "lower", "count"},
	{"shard.cross_aborts_per_ktxn", "count", "lower", "count"},
	{"txn.lock_unlock_ns_op", "ns", "lower", "probe"},
	{"txn.snapshot_reg_ns_op", "ns", "lower", "probe"},
	{"index.btree.search_ns_op", "ns", "lower", "probe"},
	{"index.btree.insert_ns_op", "ns", "lower", "probe"},
	{"index.btree.latch_waits_per_ktxn", "count", "lower", "count"},
	{"index.btree.restarts_per_ktxn", "count", "lower", "count"},
	{"index.hash.get_ns_op", "ns", "lower", "probe"},
	{"index.hash.hit_rate", "frac", "higher", "count"},
	{"ridmap.get_ns_op", "ns", "lower", "probe"},
	{"imrs.alloc_free_ns_op", "ns", "lower", "probe"},
	{"imrs.hit_rate", "frac", "higher", "count"},
	{"imrs.util_end", "frac", "lower", "count"},
	{"imrs.util_max", "frac", "lower", "count"},
	{"imrs.allocs_per_txn", "count", "lower", "count"},
	{"imrsgc.passes_per_s", "1/s", "lower", "count"},
	{"ilm.imrs_op_share", "frac", "higher", "count"},
	{"ilm.partitions_disabled", "count", "lower", "count"},
	{"pack.rows_per_s", "rows/s", "lower", "count"},
	{"pack.bytes_per_s", "B/s", "lower", "count"},
	{"pack.skip_frac", "frac", "lower", "count"},
	{"pack.reloc_errors", "count", "lower", "count"},
	{"storage.buffer.hit_rate", "frac", "higher", "count"},
	{"storage.buffer.evictions_per_ktxn", "count", "lower", "count"},
	{"storage.buffer.latch_waits_per_ktxn", "count", "lower", "count"},
	{"storage.buffer.fetch_hit_ns_op", "ns", "lower", "probe"},
	{"storage.colseg.compress_ratio", "frac", "lower", "count"},
	{"storage.colseg.rows_frozen_per_s", "rows/s", "lower", "count"},
	{"storage.colseg.unfreezes_per_ktxn", "count", "lower", "count"},
	{"storage.colseg.decode_mrows_per_s", "Mrows/s", "higher", "probe"},
	{"storage.disk.reads_per_txn", "count", "lower", "span"},
	{"storage.disk.writes_per_txn", "count", "lower", "span"},
	{"storage.disk.read_p50_us", "us", "lower", "span"},
	{"storage.disk.busy_frac", "frac", "lower", "span"},
	{"wal.bytes_per_txn", "B", "lower", "span"},
	{"wal.syncs_per_txn", "count", "lower", "span"},
	{"wal.sync_p50_us", "us", "lower", "span"},
	{"wal.busy_frac", "frac", "lower", "span"},
	{"wal.group_size_mean", "count", "higher", "count"},
	{"wal.commit_wait_mean_us", "us", "lower", "count"},
	{"wal.append_ns_op", "ns", "lower", "probe"},
	{"row.encode_ns_op", "ns", "lower", "probe"},
	{"row.decode_ns_op", "ns", "lower", "probe"},
	{"row.decode_allocs_op", "count", "lower", "probe"},
}

func readAnomalyNote(n int64) string {
	return fmt.Sprintf("%d point reads of existing rows came back missing or as another row and were re-issued (seed-commit defect, counted as driver.read_anomalies_per_mtxn)", n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runPerLayer is --trace 1: an untraced window for the counters and the
// driver's own figures, a traced window on a fresh stack for the spans,
// then the probes.
func runPerLayer(w workloadDef, o runOpts) (*detail, error) {
	d := &detail{Workload: w.name, Seed: o.seed, Seconds: o.window.Seconds(), Trace: true, Samples: map[string]int64{},
		DeviceModel: w.config(o.smoke).deviceModel()}
	m := map[string]float64{}

	// Untraced window: counters, driver and process figures.
	st, in, _, err := setup(w, o, nil)
	if err != nil {
		return nil, err
	}
	before := snapshotCounts(st, in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sampler := startUtilSampler(st)
	mw, err := measure(st, in, o, streamMeasured, clientMode{wire: true})
	utilMax := sampler.finish()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		in.stopFrontEnd()
		_ = st.close()
		return nil, fmt.Errorf("%s untraced window: %w", w.name, err)
	}
	c := snapshotCounts(st, in).sub(before)
	utilEnd := imrsUtil(st)
	anomalies, scans := in.scanAnomalies()
	err = verifyQuiescent(in)
	in.stopFrontEnd()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s untraced window: %w", w.name, err)
	}
	rec := mw.rec
	if rec.committed == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the untraced window", w.name)
	}
	n := float64(rec.committed)
	ktxn := n / 1000
	secs := mw.elapsed.Seconds()
	untracedTPS := n / o.window.Seconds()

	m["driver.lat_p99_us"] = us(rec.lat.tail(0.99))
	m["driver.lat_p999_us"] = us(rec.lat.tail(0.999))
	m["driver.lat_max_us"] = us(rec.lat.max)
	if w.name == "tpcc_wire" {
		m["driver.neworder_p50_us"] = us(rec.byType[tpNewOrder].quantile(0.5))
		m["driver.payment_p50_us"] = us(rec.byType[tpPayment].quantile(0.5))
		m["driver.delivery_p50_us"] = us(rec.byType[tpDelivery].quantile(0.5))
	}
	m["driver.user_abort_frac"] = ratio(float64(rec.userAborts), float64(rec.attempted))
	m["driver.retry_frac"] = ratio(float64(rec.retried), float64(rec.attempted))
	m["driver.failed_frac"] = ratio(float64(rec.failed), float64(rec.attempted))
	m["driver.read_anomalies_per_mtxn"] = float64(rec.anomalies) / n * 1e6
	m["driver.scan_mrows_per_s"] = float64(mw.scanRows) / secs / 1e6
	m["driver.scan_anomaly_frac"] = ratio(float64(anomalies), float64(scans))
	m["proc.allocs_per_txn"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["proc.alloc_bytes_per_txn"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	m["proc.gc_pause_frac"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / float64(mw.elapsed)
	m["server.round_trips_per_txn"] = float64(c.n[cRoundTrips]) / n
	m["server.req_bytes_per_txn"] = float64(c.n[cReqBytes]) / n
	m["server.resp_bytes_per_txn"] = float64(c.n[cRespBytes]) / n
	planned := float64(c.n[cPlanHits] + c.n[cPlanMisses] + c.n[cPreparedExecs])
	m["sql.plan_cache_hit_rate"] = ratio(float64(c.n[cPlanHits]+c.n[cPreparedExecs]), planned)
	m["shard.cross_commit_frac"] = ratio(float64(c.n[cCrossCommits]), float64(c.n[cCommits]))
	m["shard.prepares_per_txn"] = float64(c.n[cPrepares]) / n
	m["shard.cross_aborts_per_ktxn"] = float64(c.n[cCrossAborts]) / ktxn
	m["index.btree.latch_waits_per_ktxn"] = float64(c.n[cIdxLatchWaits]) / ktxn
	m["index.btree.restarts_per_ktxn"] = float64(c.n[cIdxRestarts]) / ktxn
	m["index.hash.hit_rate"] = ratio(float64(c.n[cHashHits]), float64(c.n[cHashHits]+c.n[cHashMisses]))
	m["imrs.hit_rate"] = ratio(float64(c.n[cIMRSOps]), float64(c.n[cIMRSOps]+c.n[cPageOps]))
	m["ilm.imrs_op_share"] = m["imrs.hit_rate"]
	m["imrs.util_end"] = utilEnd
	m["imrs.util_max"] = utilMax
	m["imrs.allocs_per_txn"] = float64(c.n[cIMRSAllocs]) / n
	m["imrsgc.passes_per_s"] = float64(c.n[cGCPasses]) / secs
	m["ilm.partitions_disabled"] = float64(c.partitionsDisabled)
	m["pack.rows_per_s"] = float64(c.n[cRowsPacked]) / secs
	m["pack.bytes_per_s"] = float64(c.n[cBytesPacked]) / secs
	m["pack.skip_frac"] = ratio(float64(c.n[cRowsSkipped]), float64(c.n[cRowsPacked]+c.n[cRowsSkipped]))
	m["pack.reloc_errors"] = float64(c.n[cRelocErrs])
	m["storage.buffer.hit_rate"] = ratio(float64(c.n[cBufHits]), float64(c.n[cBufHits]+c.n[cBufMisses]))
	m["storage.buffer.evictions_per_ktxn"] = float64(c.n[cBufEvictions]) / ktxn
	m["storage.buffer.latch_waits_per_ktxn"] = float64(c.n[cBufLatchWaits]) / ktxn
	m["storage.colseg.compress_ratio"] = ratio(float64(c.coldCompressed), float64(c.coldRaw))
	m["storage.colseg.rows_frozen_per_s"] = float64(c.n[cRowsFrozen]) / secs
	m["storage.colseg.unfreezes_per_ktxn"] = float64(c.n[cUnfreezes]) / ktxn
	m["wal.group_size_mean"] = ratio(float64(c.n[cGroupedCommits]), float64(c.n[cGroupFlushes]))
	m["wal.commit_wait_mean_us"] = ratio(float64(c.n[cCommitWaitNs]), float64(c.n[cGroupedCommits])) / 1e3
	d.Clients = fmt.Sprintf("closed loop, %d transaction client(s)", in.numTxnClients())
	if in.scan() != nil {
		d.Clients += " + 1 scan client"
		if anomalies > 0 {
			d.Notes = append(d.Notes, fmt.Sprintf("%d of %d scans beside pack/un-freeze returned a wrong row count (seed-commit defect, counted as driver.scan_anomaly_frac)", anomalies, scans))
		}
	}
	if rec.anomalies > 0 {
		d.Notes = append(d.Notes, readAnomalyNote(rec.anomalies))
	}
	d.Samples["untraced_committed"] = rec.committed
	d.Samples["untraced_lat"] = int64(rec.lat.n)
	d.Samples["scans"] = scans
	d.Errors = append(d.Errors, rec.errs...)
	attempted, failedN := rec.attempted, rec.failed

	// Traced window on a fresh stack, same seed.
	tr := newTracer()
	st, in, _, err = setup(w, o, tr)
	if err != nil {
		return nil, err
	}
	full, wire, tracedTPS, walBytes, wall, err := tracedWindow(w, st, in, o)
	scansSeen := st.scans.Load()
	in.stopFrontEnd()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced window: %w", w.name, err)
	}
	if w.name == "tpcc_wire" && scansSeen > 0 {
		return nil, fmt.Errorf("tpcc_wire: %d statements fell back to a table scan", scansSeen)
	}
	table := tr.buildLayerTable(full, wire)
	d.LayerTable = &table
	if dev := ratio(table.SumUs-table.ClientUs, table.ClientUs); dev > 0.03 || dev < -0.03 {
		return nil, fmt.Errorf("%s: layer table sums to %.2f us, traced client latency is %.2f us", w.name, table.SumUs, table.ClientUs)
	}
	if wire != nil {
		// The two passes run the same statements; the engine should cost
		// the same under both, or the server row is not what it claims.
		ea := tr.engineAgg
		d.Notes = append(d.Notes, fmt.Sprintf("engine time per transaction: %.1f us under the TCP pass, %.1f us under the session pass",
			float64(ea.rootNs-ea.self[spEngineTxn])/float64(wire.trees)/1e3,
			float64(full.total[spSQL]-full.self[spSQL])/float64(full.trees)/1e3))
	}
	rows := map[string]float64{}
	for _, r := range table.Rows {
		rows[r.Layer] = r.Us
	}
	tn := float64(full.trees)
	if wire != nil {
		tn += float64(wire.trees)
	}
	m["driver.trace_overhead_frac"] = 1 - ratio(tracedTPS, untracedTPS)
	m["server.self_us_per_txn"] = rows["server"]
	m["sql.self_us_per_txn"] = rows["sql"]
	m["btrim.self_us_per_txn"] = rows["btrim ops (non-commit)"] + rows["btrim commit (excl. wal sync)"]
	m["btrim.get_p50_us"] = us(full.lat[spGet].quantile(0.5))
	m["btrim.update_p50_us"] = us(full.lat[spUpdate].quantile(0.5))
	m["btrim.insert_p50_us"] = us(full.lat[spInsert].quantile(0.5))
	m["btrim.lookup_p50_us"] = us(full.lat[spLookup].quantile(0.5))
	m["btrim.commit_p50_us"] = us(full.lat[spCommit].quantile(0.5))
	m["btrim.commit_p95_us"] = us(full.lat[spCommit].tail(0.95))
	m["storage.disk.reads_per_txn"] = float64(tr.diskReads.Load()) / tn
	m["storage.disk.writes_per_txn"] = float64(tr.diskWrites.Load()) / tn
	m["storage.disk.read_p50_us"] = us(tr.readHist.quantile(0.5))
	m["storage.disk.busy_frac"] = float64(tr.diskNs.Load()) / float64(wall)
	m["wal.bytes_per_txn"] = float64(walBytes) / tn
	m["wal.syncs_per_txn"] = float64(tr.walSyncs.Load()) / tn
	m["wal.sync_p50_us"] = us(tr.syncHist.quantile(0.5))
	m["wal.busy_frac"] = float64(tr.walNs.Load()) / float64(wall)
	d.Samples["traced_txns"] = int64(tn)
	d.Samples["disk_reads"] = tr.diskReads.Load()
	d.Samples["wal_syncs"] = tr.walSyncs.Load()
	if err := tr.writeDump(filepath.Join(filepath.Dir(o.root), fmt.Sprintf("trace-%s-seed%d.csv", w.name, o.seed))); err != nil {
		return nil, err
	}

	if err := runProbes(m, o.smoke); err != nil {
		return nil, err
	}

	d.Result = result{Correct: true, Attempted: attempted, Failed: failedN, Metrics: map[string]metric{}}
	for _, lm := range perLayer {
		d.Result.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return d, nil
}

// tracedWindow runs the traced window and returns the aggregate of full
// client trees, the TCP pass's aggregate (wire workload only), the
// traced commit rate to compare with the untraced one, the WAL bytes
// appended and the wall time traced.
func tracedWindow(w workloadDef, st *stack, in instance, o runOpts) (full, wire *layerAgg, tps float64, walBytes int64, wall time.Duration, err error) {
	pass := func(stream int, mode clientMode, d time.Duration) (*layerAgg, window, error) {
		clients := make([]txnClient, in.numTxnClients())
		for i := range clients {
			clients[i] = in.newClient(i, stream, mode)
		}
		win, err := runFor(clients, in.types(), d, in.scan())
		agg := newLayerAgg()
		for _, c := range clients {
			c.close()
			if a := c.traceAgg(); a != nil {
				agg.merge(a)
			}
		}
		return agg, win, err
	}
	wal0 := st.media.walBytes()
	start := time.Now()
	if w.name != "tpcc_wire" {
		var win window
		full, win, err = pass(streamTraced, clientMode{traced: true}, o.window)
		if err == nil {
			tps = float64(win.rec.committed) / o.window.Seconds()
		}
		return full, nil, tps, st.media.walBytes() - wal0, time.Since(start), err
	}
	// The wire workload splits the window: a TCP pass, whose client trees
	// end at the frame, then the same statement stream on in-process
	// sessions, where the engine's spans hang under the frame.
	half := o.window / 2
	var win window
	if wire, win, err = pass(streamTraced, clientMode{traced: true, wire: true}, half); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	tps = float64(win.rec.committed) / half.Seconds()
	full, _, err = pass(streamTraced, clientMode{traced: true}, half)
	return full, wire, tps, st.media.walBytes() - wal0, time.Since(start), err
}
