package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie strictly beyond a reported tail
// percentile; with fewer, the "tail" is a handful of outliers.
const tailBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank —
// the value at 1-based rank ceil(q*n) of the sorted samples — and the number
// of samples strictly beyond that rank. samples must be sorted ascending.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

func sortSamples(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// slices is how many consecutive slices a phase's samples are cut into for
// the median.
const slices = 10

// slicedMedian cuts each stream, in the order its samples were taken, into
// slices consecutive parts of equal count, pools the k-th parts of every
// stream, and returns the mean of the k pooled medians. The host this
// benchmark runs on switches between speeds for seconds at a time; the
// median of a whole phase then jumps between the speeds' medians with the
// share of time spent in each, while the mean of slice medians moves in
// proportion to it. Each stream must hold at least slices samples.
func slicedMedian(streams [][]int64) float64 {
	var sum float64
	var part []int64
	for k := 0; k < slices; k++ {
		part = part[:0]
		for _, s := range streams {
			part = append(part, s[k*len(s)/slices:(k+1)*len(s)/slices]...)
		}
		sortSamples(part)
		v, _ := percentile(part, 0.5)
		sum += float64(v)
	}
	return sum / slices
}

// latency summarises the samples of one phase, in microseconds: the sliced
// median, and the p99 of all samples pooled.
type latency struct {
	n        int
	p50, p99 float64
	p50OK    bool // every stream held at least slices samples
	p99OK    bool // at least tailBeyond samples lie beyond the p99 rank
	meanNs   float64
}

// summarize takes one stream of samples per timing goroutine, each in the
// order taken.
func summarize(streams ...[]int64) latency {
	var all []int64
	l := latency{p50OK: true}
	for _, s := range streams {
		all = append(all, s...)
		l.p50OK = l.p50OK && len(s) >= slices
	}
	l.n = len(all)
	if l.n == 0 {
		return latency{}
	}
	if l.p50OK {
		l.p50 = slicedMedian(streams) / 1e3
	}
	sortSamples(all)
	p99, beyond := percentile(all, 0.99)
	l.p99 = float64(p99) / 1e3
	l.p99OK = beyond >= tailBeyond
	var sum float64
	for _, s := range all {
		sum += float64(s)
	}
	l.meanNs = sum / float64(l.n)
	return l
}

// median of float samples (set-up times), averaging the middle pair.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mismatch is an output that disagrees with the benchmark's own computation.
type mismatch struct{ what string }

func (m *mismatch) Error() string { return "output check failed: " + m.what }

func mismatchf(format string, args ...any) error {
	return &mismatch{what: fmt.Sprintf(format, args...)}
}
