package main

import (
	"sync"
	"time"

	"repro/internal/core"
)

// counts is a snapshot of the counters the stack already keeps
// (core.Engine.Stats, shard.Node.Counters, the wire server's rollup and
// this package's connection wrapper), summed over shards. Per-layer
// "count" metrics are the difference of two snapshots taken around the
// measured window.
type counts struct {
	n [numCounters]int64

	// Gauges: read from the later snapshot, never subtracted.
	coldRaw, coldCompressed int64
	partitionsDisabled      int64
}

const (
	cBufHits = iota
	cBufMisses
	cBufEvictions
	cBufLatchWaits
	cIdxLatchWaits
	cIdxRestarts
	cHashHits
	cHashMisses
	cIMRSOps
	cPageOps
	cIMRSAllocs
	cGCPasses
	cRowsPacked
	cBytesPacked
	cRowsSkipped
	cRelocErrs
	cRowsFrozen
	cUnfreezes
	cGroupFlushes
	cGroupedCommits
	cCommitWaitNs // Σ commit wait, rebuilt from each log's mean × commits
	cPrepares
	cCrossCommits
	cCrossAborts
	cCommits
	cPlanHits
	cPlanMisses
	cPreparedExecs
	cReqBytes
	cRespBytes
	cRoundTrips
	numCounters
)

// frontEndCounts is what the wire workload's front end counted.
type frontEndCounts struct {
	planHits, planMisses, preparedExecs int64
	reqBytes, respBytes, roundTrips     int64
}

func snapshotCounts(st *stack, in instance) counts {
	var c counts
	for i := 0; i < st.node.NumShards(); i++ {
		e := st.node.Engine(i)
		s := e.Stats()
		c.n[cBufHits] += s.BufferHits
		c.n[cBufMisses] += s.BufferMisses
		c.n[cBufEvictions] += e.BufferPool().Stats().Evictions.Load()
		c.n[cBufLatchWaits] += s.LatchWaits
		for _, ix := range s.Indexes {
			c.n[cIdxLatchWaits] += ix.LatchWaits
			c.n[cIdxRestarts] += ix.Restarts
			c.n[cHashHits] += ix.HashHits
			c.n[cHashMisses] += ix.HashMisses
		}
		for _, p := range s.Partitions {
			c.n[cIMRSOps] += p.IMRSOps()
			c.n[cPageOps] += p.PageOps
			if !p.InsertEnabled {
				c.partitionsDisabled++
			}
		}
		c.n[cIMRSAllocs] += s.IMRSAllocs
		c.n[cGCPasses] += s.GCPasses
		c.n[cRowsPacked] += s.RowsPacked
		c.n[cBytesPacked] += s.BytesPacked
		c.n[cRowsSkipped] += s.RowsSkipped
		c.n[cRelocErrs] += s.PackRelocErrors
		c.n[cRowsFrozen] += s.ColdStore.RowsFrozen
		c.n[cUnfreezes] += s.ColdStore.Unfreezes
		c.coldRaw += s.ColdStore.RawBytes
		c.coldCompressed += s.ColdStore.CompressedBytes
		for _, l := range []core.LogSnapshot{s.SysLog, s.IMRSLog} {
			c.n[cGroupFlushes] += l.GroupFlushes
			c.n[cGroupedCommits] += l.GroupedCommits
			c.n[cCommitWaitNs] += int64(l.CommitWaitMean) * l.GroupedCommits
		}
		c.n[cPrepares] += s.TwoPC.Prepares
	}
	nc := st.node.Counters()
	c.n[cCrossCommits], c.n[cCrossAborts] = nc.CrossShardCommits, nc.CrossShardAborts
	c.n[cCommits] = nc.CrossShardCommits + nc.SingleShardCommits
	f := in.frontEnd()
	c.n[cPlanHits], c.n[cPlanMisses], c.n[cPreparedExecs] = f.planHits, f.planMisses, f.preparedExecs
	c.n[cReqBytes], c.n[cRespBytes], c.n[cRoundTrips] = f.reqBytes, f.respBytes, f.roundTrips
	return c
}

// sub returns the growth from before to c; gauges keep c's values.
func (c counts) sub(before counts) counts {
	for i := range c.n {
		c.n[i] -= before.n[i]
	}
	return c
}

// utilSampler polls IMRS utilisation during a window; the counters only
// give its value at the edges.
type utilSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startUtilSampler(st *stack) *utilSampler {
	u := &utilSampler{stop: make(chan struct{})}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := imrsUtil(st); v > u.max {
				u.max = v
			}
			select {
			case <-u.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return u
}

// finish stops the sampler and returns the highest utilisation it saw.
func (u *utilSampler) finish() float64 {
	close(u.stop)
	u.wg.Wait()
	return u.max
}

func imrsUtil(st *stack) float64 {
	var used, capacity int64
	for i := 0; i < st.node.NumShards(); i++ {
		a := st.node.Engine(i).Store().Allocator()
		used += a.Used()
		capacity += a.Capacity()
	}
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}
