package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram over nanosecond values: each
// power of two is cut into 128 equal sub-buckets, so a reported quantile
// is within 1/128 (< 1 %) of the recorded value. It is single-writer;
// per-client histograms are merged after the clients stop.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(uint64(v)>>uint(shift)) - histSub
}

// histBucketMid returns the midpoint of bucket i, the value reported
// for any sample that landed in it.
func histBucketMid(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := uint(i>>histSubBits - 1)
	low := int64(i&(histSub-1)+histSub) << shift
	return low + (int64(1)<<shift)/2
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at quantile q in nanoseconds (0 when the
// histogram is empty).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return histBucketMid(i)
		}
	}
	return h.max
}

// tailLadder lists the percentiles a report may quote, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// supportedTail returns the highest percentile of tailLadder that still
// has at least ten samples beyond it; a percentile with fewer is one or
// two outliers, not a distribution. With under 20 samples it is 0.5.
func (h *hist) supportedTail() float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if h.n-uint64(math.Round(q*float64(h.n))) >= 10 {
			best = q
		}
	}
	return best
}

// tail returns the value at quantile q clamped to supportedTail, so a
// p99.9 asked of 2 000 samples reports their p99 instead of their
// third-worst outlier.
func (h *hist) tail(q float64) int64 {
	if s := h.supportedTail(); q > s {
		q = s
	}
	return h.quantile(q)
}

// us converts a nanosecond quantity to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
