package main

import "math/bits"

// hist is a fixed-bucket log-linear latency histogram over
// nanoseconds: 64 linear sub-buckets per power of two, so a bucket is
// at most 1.6 % wide. It is a plain array, so recording into it never
// allocates and the harness's own allocations stay out of
// allocs_per_op.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values clamp at ~18 minutes
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func (h *hist) record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	i := int(v)
	if v >= histSub {
		e := bits.Len64(v) - histSubBits - 1
		i = (e+1)<<histSubBits | int(v>>uint(e))&(histSub-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// bucketRange returns bucket i's lower bound and width in ns.
func bucketRange(i int) (low, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i>>histSubBits) - 1
	return float64(uint64(histSub+i&(histSub-1)) << e), float64(uint64(1) << e)
}

// quantile returns the q-quantile in ns, interpolating linearly inside
// the bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			low, width := bucketRange(i)
			return low + width*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	low, width := bucketRange(histBuckets - 1)
	return low + width
}
