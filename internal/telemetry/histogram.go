// Package telemetry provides the measurement substrate for the chiplet
// network: latency histograms with accurate tails, bandwidth meters,
// fixed-interval time series, source/destination traffic matrices, and a
// count-min sketch for per-flow accounting.
//
// The paper (§3.1) uses latency and bandwidth as its two metrics and
// reports average plus P999 tails; research direction #5 calls for
// sketch-backed per-flow telemetry. This package implements all of it.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

// subBuckets is the number of linear sub-buckets per power-of-two octave.
// 32 sub-buckets bound the relative quantization error at ~3%, ample for
// reproducing the paper's two-to-three significant figures.
const subBuckets = 32

// Histogram records a distribution of simulated-time values (latencies)
// in log-linear buckets, HdrHistogram-style: constant relative error
// across ten orders of magnitude with a few KiB of memory. The zero value
// is ready to use.
type Histogram struct {
	// counts is indexed by bucket. bucketIndex is bounded (the largest
	// 64-bit value lands below (64-4)*subBuckets), so a dense slice grown
	// to the largest bucket seen replaces a map: Record is the hottest
	// telemetry call in the simulator and a map assign per observation
	// dominated its cost.
	counts  []uint64
	total   uint64
	sum     float64
	min     units.Time
	max     units.Time
	hasData bool
}

// Record adds one observation. Negative values are clamped to zero
// (latency cannot be negative; clamping keeps arithmetic overflow from a
// buggy caller out of the stats rather than poisoning percentiles).
func (h *Histogram) Record(v units.Time) { h.RecordN(v, 1) }

// RecordN adds n observations of v at once: the histogram n calls of
// Record(v) build, for counters that tally a repeated value cheaply and
// fold it in when read.
func (h *Histogram) RecordN(v units.Time, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, idx+1-len(h.counts))...)
	}
	h.counts[idx] += n
	h.total += n
	h.sum += float64(v) * float64(n)
	if !h.hasData || v < h.min {
		h.min = v
	}
	if !h.hasData || v > h.max {
		h.max = v
	}
	h.hasData = true
}

// bucketIndex maps a value to its log-linear bucket.
func bucketIndex(v units.Time) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the leading bit, >= 5
	// The sub-bucket is the next log2(subBuckets) bits below the leader.
	sub := int((u >> (uint(exp) - 5)) & (subBuckets - 1))
	return (exp-4)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i; used to report
// percentiles. The inverse of bucketIndex up to quantization.
func bucketLow(i int) units.Time {
	if i < subBuckets {
		return units.Time(i)
	}
	exp := i/subBuckets + 4
	sub := i % subBuckets
	return units.Time((uint64(1) << uint(exp)) | uint64(sub)<<(uint(exp)-5))
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean of all observations, zero when empty.
func (h *Histogram) Mean() units.Time {
	if h.total == 0 {
		return 0
	}
	return units.Time(math.Round(h.sum / float64(h.total)))
}

// Sum reports the exact total of all observations (unaffected by bucket
// quantization — it is accumulated alongside the buckets). The windowed
// metrics pipeline differences it per harvest window to get "wait time
// accumulated this window".
func (h *Histogram) Sum() units.Time { return units.Time(math.Round(h.sum)) }

// Min reports the smallest observation, zero when empty.
func (h *Histogram) Min() units.Time { return h.min }

// Max reports the largest observation, zero when empty.
func (h *Histogram) Max() units.Time { return h.max }

// Percentile reports the value at quantile p in [0, 100]. It returns the
// lower bound of the bucket containing the p-th observation, so the result
// has the histogram's ~3% relative quantization error. Empty histograms
// report zero.
func (h *Histogram) Percentile(p float64) units.Time {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	// Walk buckets in value order.
	var seen uint64
	maxIdx := bucketIndex(h.max)
	if maxIdx >= len(h.counts) {
		maxIdx = len(h.counts) - 1
	}
	for i := 0; i <= maxIdx; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			low := bucketLow(i)
			if low < h.min {
				low = h.min
			}
			if low > h.max {
				low = h.max
			}
			return low
		}
	}
	return h.max
}

// P50, P99 and P999 are the percentiles the paper reports.
func (h *Histogram) P50() units.Time  { return h.Percentile(50) }
func (h *Histogram) P99() units.Time  { return h.Percentile(99) }
func (h *Histogram) P999() units.Time { return h.Percentile(99.9) }

// Merge folds other's observations into h, enabling per-core histograms to
// be combined into per-chiplet or per-CPU views.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if n := len(other.counts); n > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
	h.total += other.total
	if !h.hasData || other.min < h.min {
		h.min = other.min
	}
	if !h.hasData || other.max > h.max {
		h.max = other.max
	}
	h.hasData = true
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	// Keep the backing array (zeroed) so a reset histogram records
	// without reallocating its bucket range.
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.hasData = false
}

// String summarizes the distribution for logs and tables.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p99=%v p999=%v max=%v}",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}
