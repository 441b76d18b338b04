package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// histSub is the number of linear sub-buckets per power-of-two octave, so
// a recorded latency is resolved to within 1/histSub (under 1%) of its
// value: fine enough to see a 5% shift in a p50.
const histSub = 128

// histSize covers every int64 nanosecond value.
const histSize = (64 - 7 + 1) * histSub

// hist is a log-linear latency histogram over nanoseconds. It keeps
// counts only, so recording millions of samples costs a fixed 58 KiB and
// no allocation.
type hist struct {
	counts [histSize]uint64
	n      uint64
}

// histIndex maps a nanosecond value to its bucket: values below histSub
// are exact, larger ones keep their top 8 significant bits.
func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 8
	return (shift+1)*histSub + int(uint64(ns)>>uint(shift)) - histSub
}

// histValue returns the midpoint of bucket i in nanoseconds.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	mant := i%histSub + histSub
	lo := float64(uint64(mant) << uint(shift))
	return lo + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return histValue(i)
		}
	}
	return histValue(histSize - 1)
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile picks the highest percentile that has at least ten samples
// beyond it, so a reported tail is never a single outlier. It returns 0
// when n is below ten times the lowest candidate's tail.
func tailQuantile(n uint64) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty); xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantile is quantileOf over durations, in nanoseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantileOf(xs, q)
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
