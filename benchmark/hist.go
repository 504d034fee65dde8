package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-memory log-linear histogram of non-negative int64
// samples (nanoseconds here): values below 2^histSubBits are exact,
// larger ones fall into 2^histSubBits sub-buckets per power of two, so
// a bucket is at most 0.8 % wide. Recording allocates nothing, which is
// the point: an all-samples slice grew the heap by 100 MB in a run and
// made goodput drift with it.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values are clamped below 2^40 ns (18 minutes)
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	shift := i/histSub - 1
	lo = int64(i%histSub+histSub) << uint(shift)
	return lo, lo + 1<<uint(shift)
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0 < p <= 100), interpolated
// linearly inside the bucket that holds it; 0 for an empty histogram.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + (rank-seen)/float64(c)*float64(hi-lo)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return float64(lo)
}

// median returns the median of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
