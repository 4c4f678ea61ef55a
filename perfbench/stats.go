package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile; fewer makes the percentile a reading of a handful of
// outliers rather than of the distribution.
const tailBeyond = 10

// Dist is a set of host-time samples of one operation, in milliseconds.
type Dist struct {
	ms []float64
}

// Add records one sample.
func (d *Dist) Add(ms float64) { d.ms = append(d.ms, ms) }

// AddAll records every sample of another distribution.
func (d *Dist) AddAll(o *Dist) { d.ms = append(d.ms, o.ms...) }

// Len returns the sample count.
func (d *Dist) Len() int { return len(d.ms) }

// Sum returns the total of all samples.
func (d *Dist) Sum() float64 {
	s := 0.0
	for _, v := range d.ms {
		s += v
	}
	return s
}

func (d *Dist) sorted() []float64 {
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	return s
}

// Median returns the 50th percentile (the mean of the two middle samples
// for an even count), or 0 with no samples.
func (d *Dist) Median() float64 { return median(d.ms) }

// Tail is a tail percentile together with the evidence behind it.
type Tail struct {
	Value      float64 // the sample at the percentile
	Percentile float64 // e.g. 99.0
	Samples    int     // total sample count
	Beyond     int     // samples strictly ranked above Value
}

func (t Tail) String() string {
	return fmt.Sprintf("p%.2f=%.4g (n=%d, %d beyond)", t.Percentile, t.Value, t.Samples, t.Beyond)
}

// Tail returns the highest percentile that still has tailBeyond samples
// ranked above it: with n sorted samples that is the sample at rank
// n-tailBeyond (1-based), i.e. percentile 100*(n-tailBeyond)/n. With
// tailBeyond or fewer samples there is no such percentile and ok is false.
func (d *Dist) Tail() (t Tail, ok bool) {
	n := len(d.ms)
	if n <= tailBeyond {
		return Tail{Samples: n}, false
	}
	s := d.sorted()
	i := n - tailBeyond - 1
	return Tail{
		Value:      s[i],
		Percentile: 100 * float64(n-tailBeyond) / float64(n),
		Samples:    n,
		Beyond:     tailBeyond,
	}, true
}

// repeatMedian merges distributions whose i-th samples repeat the same
// operation — the same round or request of a deterministic pass run
// several times — into one sample per operation, the median of its
// repeats. A host stall during one repeat then does not read as a slow
// operation. Distributions of unequal length are pooled instead.
func repeatMedian(ds []*Dist) *Dist {
	var out Dist
	for _, d := range ds {
		if d.Len() != ds[0].Len() {
			for _, d := range ds {
				out.AddAll(d)
			}
			return &out
		}
	}
	reps := make([]float64, len(ds))
	for i := 0; i < ds[0].Len(); i++ {
		for k, d := range ds {
			reps[k] = d.ms[i]
		}
		out.Add(median(reps))
	}
	return &out
}

// median of xs without modifying it; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
