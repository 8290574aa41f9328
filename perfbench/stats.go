package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs is not modified. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1): the
// smallest sample with at least p·n samples at or below it. beyond reports
// how many samples lie strictly after that rank — a tail percentile is only
// a tail when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	// The epsilon keeps p·n that should be whole (0.99 × 1000) from
	// rounding up a rank.
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// p99Window is the request count of one p99 window: ten samples lie beyond
// each window's p99.
const p99Window = 1000

// windowP99 is the median, over consecutive windows of win samples, of each
// window's p99. One stall of the machine slows every request made during
// it; a single whole-phase p99 jumps with each such stall, while the median
// window shows the tail of a typical stretch of load. NaN when lat holds
// less than one window.
func windowP99(lat []float64, win int) (p99 float64, windows int) {
	var ps []float64
	for lo := 0; lo+win <= len(lat); lo += win {
		p, _ := percentile(lat[lo:lo+win], 0.99)
		ps = append(ps, p)
	}
	return median(ps), len(ps)
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones computed from
// the same values in Python. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns parent's duration minus the part of it that children
// cover. Children may overlap each other (concurrent workers) or spill past
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
