package load

import (
	"math"
	"math/bits"
)

// Histogram is a deterministic log-linear latency histogram (HDR
// style): each power-of-two octave is split into 2^histSubBits linear
// sub-buckets, so any recorded value's bucket representative is within
// a relative error of 2^-histSubBits of the true value. Values below
// 2^(histSubBits+1) are recorded exactly. All state is plain integers
// mutated at engine points, so merged reports are bit-identical at any
// GOMAXPROCS.
//
// The PR 6 metrics registry's power-of-two histogram is deliberately
// coarse (one bucket per octave — fine for message-size distributions,
// useless for p999). This histogram is the SLO-grade companion; the
// collector feeds both.
type Histogram struct {
	counts []int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per octave
)

// histSize covers every int64 ≥ 0: the largest shift is
// 63 - (histSubBits+1) = 55, and within a shift the sub-bucket index is
// < 2·histSub, so indexes run up to 55·histSub + 2·histSub - 1.
const histSize = 57 * histSub

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histSize), min: math.MaxInt64}
}

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift < 0 {
		shift = 0
	}
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns a bucket's inclusive low value and width.
func histBounds(idx int) (lo, width int64) {
	if idx < 2*histSub {
		return int64(idx), 1
	}
	shift := idx/histSub - 1
	m := int64(idx - shift*histSub)
	return m << uint(shift), int64(1) << uint(shift)
}

// Observe records one sample; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Mean returns the truncated integer mean (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the nearest-rank q-quantile (q in [0,1]) as the
// midpoint of the rank's bucket, clamped into [Min, Max] so the
// estimate never leaves the observed range (and is exact for a
// single-sample histogram). Empty histograms report 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			lo, w := histBounds(idx)
			v := lo + (w-1)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
