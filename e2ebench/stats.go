package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailFloor is the number of samples a reported percentile above the median
// must have beyond it. Fewer and the percentile is one or two outliers, not a
// tail, so the benchmark refuses to report it.
const tailFloor = 10

// sample is a set of timings of one kind of operation, in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (s sample) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// median is the middle value, or the mean of the two middle values; 0 for
// an empty sample. The median is always reported, whatever the count.
func (s sample) median() float64 {
	xs := s.sorted()
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// percentile returns the nearest-rank q-quantile (0 < q < 1). A quantile
// above the median needs at least tailFloor samples beyond its rank, so p90
// needs 100 samples and p95 needs 200; below that it is refused with an
// error naming the shortfall.
func (s sample) percentile(q float64) (float64, error) {
	n := len(s)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("p%g of %d samples: no such percentile", q*100, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if q > 0.5 {
		if beyond := n - rank; beyond < tailFloor {
			return 0, fmt.Errorf("p%g refused: %d samples leave %d beyond it, need %d",
				q*100, n, beyond, tailFloor)
		}
	}
	return s.sorted()[rank-1], nil
}

// interval is a half-open time range [from, to).
type interval struct{ from, to time.Duration }

// covered returns how much of parent the union of children covers.
// Overlapping children count once, and the parts of a child outside the
// parent do not count at all.
func covered(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.from < parent.from {
			c.from = parent.from
		}
		if c.to > parent.to {
			c.to = parent.to
		}
		if c.to > c.from {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].from < cs[j].from })
	var total time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.from <= cur.to:
			if c.to > cur.to {
				cur.to = c.to
			}
		default:
			total += cur.to - cur.from
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.to - cur.from
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.to - parent.from - covered(parent, children)
}
