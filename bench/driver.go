package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/btrim"
)

// The driver is closed-loop: each client issues its next transaction
// only after the previous one returned, so a slower system receives less
// load. Every workload runs two clients, one per core the sandbox has.

type outcome uint8

const (
	committed outcome = iota
	userAbort         // the workload asked for the rollback (TPC-C's 1 % NewOrder)
	failed            // an error, or retryable aborts past maxRetries
)

// maxRetries bounds how often one transaction is re-issued after a
// lock-timeout or relocation abort before it counts as failed.
const maxRetries = 10

type txnResult struct {
	typ       int
	out       outcome
	retries   int
	anomalies int // re-issues after a read returned a missing or foreign row
	err       error
}

// txnClient issues transactions one at a time. start runs on the
// goroutine that will call txn (tracing binds to it); close releases
// connections.
type txnClient interface {
	start() error
	txn() txnResult
	close()
	// traceAgg returns what the client traced (nil on untraced runs);
	// valid after close.
	traceAgg() *layerAgg
}

// isRetryable reports an abort the engine asks the client to re-issue.
func isRetryable(err error) bool {
	return errors.Is(err, btrim.ErrLockTimeout) || errors.Is(err, btrim.ErrTxnRetry)
}

// sliceDur is the width of the slices a window is cut into.
const sliceDur = 500 * time.Millisecond

// recorder collects one client's results; recorders are merged after
// the clients stop.
type recorder struct {
	types    []string
	lat      *hist   // committed transactions
	byType   []*hist // committed transactions per type
	slices   []int64 // commits per sliceDur since the window opened
	sliceLat []*hist // latency of those commits, per slice

	attempted, committed, userAborts, failed int64
	retries                                  int64 // re-issues after a retryable abort
	retried                                  int64 // transactions that needed at least one
	anomalies                                int64 // re-issues after a read anomaly
	errs                                     []string
}

func newRecorder(types []string) *recorder {
	r := &recorder{types: types, lat: newHist()}
	for range types {
		r.byType = append(r.byType, newHist())
	}
	return r
}

func (r *recorder) add(res txnResult, since time.Duration, lat time.Duration) {
	r.attempted++
	r.retries += int64(res.retries)
	r.anomalies += int64(res.anomalies)
	if res.retries > 0 {
		r.retried++
	}
	switch res.out {
	case committed:
		r.committed++
		r.lat.record(int64(lat))
		r.byType[res.typ].record(int64(lat))
		i := int(since / sliceDur)
		for len(r.slices) <= i {
			r.slices = append(r.slices, 0)
			r.sliceLat = append(r.sliceLat, newHist())
		}
		r.slices[i]++
		r.sliceLat[i].record(int64(lat))
	case userAbort:
		r.userAborts++
	case failed:
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", r.types[res.typ], res.err))
		}
	}
}

func (r *recorder) merge(o *recorder) {
	r.lat.merge(o.lat)
	for i := range r.byType {
		r.byType[i].merge(o.byType[i])
	}
	for i, n := range o.slices {
		for len(r.slices) <= i {
			r.slices = append(r.slices, 0)
			r.sliceLat = append(r.sliceLat, newHist())
		}
		r.slices[i] += n
		r.sliceLat[i].merge(o.sliceLat[i])
	}
	r.attempted += o.attempted
	r.committed += o.committed
	r.userAborts += o.userAborts
	r.failed += o.failed
	r.retries += o.retries
	r.retried += o.retried
	r.anomalies += o.anomalies
	r.errs = append(r.errs, o.errs...)
}

// The end-to-end timings are order statistics over the slices of the
// window, not pooled figures. Another tenant of the sandbox's host slows
// both cores by 20 to 50 % for seconds at a time and never speeds them up,
// so the quartile of the slices on the good side estimates what the
// system does undisturbed as long as a quarter of the window was quiet; a
// slowdown of the system itself moves every slice.

// sliceTPS is the upper quartile of the commit rates of the full slices
// of a window of length d.
func (r *recorder) sliceTPS(d time.Duration) float64 {
	rates := r.sliceRates(d)
	if len(rates) < 4 {
		return float64(r.committed) / d.Seconds()
	}
	return quantileOf(rates, 0.75)
}

// sliceQuantile is the lower quartile, over the full slices, of each
// slice's latency quantile q, in nanoseconds.
func (r *recorder) sliceQuantile(q float64, d time.Duration) float64 {
	full := int(d / sliceDur)
	if full < 4 {
		return float64(r.lat.tail(q))
	}
	var qs []float64
	for i := 0; i < full && i < len(r.sliceLat); i++ {
		if r.sliceLat[i].n > 0 {
			qs = append(qs, float64(r.sliceLat[i].tail(q)))
		}
	}
	return quantileOf(qs, 0.25)
}

// sliceRates returns the commit rate of each full slice of a window of
// length d, in order.
func (r *recorder) sliceRates(d time.Duration) []float64 {
	rates := make([]float64, int(d/sliceDur))
	for i := range rates {
		if i < len(r.slices) {
			rates[i] = float64(r.slices[i]) / sliceDur.Seconds()
		}
	}
	return rates
}

// window is what one timed closed-loop run produced.
type window struct {
	rec      *recorder
	elapsed  time.Duration
	scanRows int64           // rows delivered to the scan client, if the workload has one
	cpu      []time.Duration // process CPU time at each slice boundary, starting with the window's opening
}

// sliceCPU is the lower quartile, over the full slices, of process CPU
// time per committed transaction, in nanoseconds.
func (w window) sliceCPU() float64 {
	var per []float64
	for i := 0; i+1 < len(w.cpu) && i < len(w.rec.slices); i++ {
		if n := w.rec.slices[i]; n > 0 {
			per = append(per, float64(w.cpu[i+1]-w.cpu[i])/float64(n))
		}
	}
	if len(per) < 4 {
		return float64(w.cpu[len(w.cpu)-1]-w.cpu[0]) / float64(w.rec.committed)
	}
	return quantileOf(per, 0.25)
}

// runFor drives the clients for d, plus an optional scan client, and
// returns the merged record. Clients start on their own goroutines; the
// clock starts when all are ready.
func runFor(clients []txnClient, types []string, d time.Duration, scan scanFunc) (window, error) {
	recs := make([]*recorder, len(clients))
	var ready, done sync.WaitGroup
	startErr := make([]error, len(clients))
	begin := make(chan time.Time)
	ready.Add(len(clients))
	done.Add(len(clients))
	for i, c := range clients {
		recs[i] = newRecorder(types)
		go func(i int, c txnClient) {
			defer done.Done()
			startErr[i] = c.start()
			ready.Done()
			t0, ok := <-begin
			if !ok || startErr[i] != nil {
				return
			}
			last := t0
			for {
				res := c.txn()
				now := time.Now()
				if now.Sub(t0) >= d {
					return // the transaction that crossed the deadline is not counted
				}
				recs[i].add(res, now.Sub(t0), now.Sub(last))
				last = now
			}
		}(i, c)
	}
	ready.Wait()
	if err := errors.Join(startErr...); err != nil {
		close(begin)
		done.Wait()
		return window{}, err
	}
	var stop atomic.Bool
	var scanRows atomic.Int64
	var scanErr error
	var scanDone sync.WaitGroup
	if scan != nil {
		scanDone.Add(1)
		go func() {
			defer scanDone.Done()
			scanErr = scan(&stop, &scanRows)
		}()
	}
	t0 := time.Now()
	cpu := []time.Duration{cpuTime()}
	for range clients {
		begin <- t0
	}
	// Sample process CPU time at every slice boundary while the clients run.
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	tick := time.NewTicker(sliceDur)
sampling:
	for {
		select {
		case <-tick.C:
			cpu = append(cpu, cpuTime())
		case <-finished:
			break sampling
		}
	}
	tick.Stop()
	cpu = append(cpu, cpuTime())
	elapsed := time.Since(t0)
	rows := scanRows.Load()
	stop.Store(true)
	scanDone.Wait()
	if scanErr != nil {
		return window{}, scanErr
	}
	total := newRecorder(types)
	for _, r := range recs {
		total.merge(r)
	}
	return window{rec: total, elapsed: elapsed, scanRows: rows, cpu: cpu}, nil
}

// scanFunc runs back-to-back full scans until stop is set, adding the
// rows it is handed to rows as they arrive.
type scanFunc func(stop *atomic.Bool, rows *atomic.Int64) error

// runCount drives one client for exactly n transactions.
func runCount(c txnClient, types []string, n int) (*recorder, error) {
	rec := newRecorder(types)
	errc := make(chan error, 1)
	go func() {
		if err := c.start(); err != nil {
			errc <- err
			return
		}
		t0 := time.Now()
		last := t0
		for i := 0; i < n; i++ {
			res := c.txn()
			now := time.Now()
			rec.add(res, now.Sub(t0), now.Sub(last))
			last = now
		}
		errc <- nil
	}()
	err := <-errc
	return rec, err
}
