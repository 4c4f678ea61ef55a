package main

import (
	"math"
	"testing"
)

func distOf(xs ...float64) *Dist {
	d := &Dist{}
	for _, x := range xs {
		d.Add(x)
	}
	return d
}

func ramp(n int) *Dist {
	d := &Dist{}
	for i := n; i >= 1; i-- { // descending: Tail must sort
		d.Add(float64(i))
	}
	return d
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100 * 1.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
		{2000, 1990, 99.5},
	}
	for _, c := range cases {
		tail, ok := ramp(c.n).Tail()
		if !ok {
			t.Fatalf("n=%d: no tail", c.n)
		}
		if tail.Value != c.value || math.Abs(tail.Percentile-c.pct) > 1e-9 || tail.Samples != c.n || tail.Beyond != 10 {
			t.Errorf("n=%d: got %+v, want value %g at p%g", c.n, tail, c.value, c.pct)
		}
	}
}

func TestTailNeedsMoreThanTenSamples(t *testing.T) {
	if tail, ok := ramp(10).Tail(); ok || tail.Samples != 10 {
		t.Fatalf("10 samples gave a tail: %+v", tail)
	}
	if _, ok := (&Dist{}).Tail(); ok {
		t.Fatal("empty distribution gave a tail")
	}
}

func TestTailCountsTiesAsBeyond(t *testing.T) {
	// Ten equal maxima sit beyond the 11th-largest sample.
	d := ramp(30)
	for i := 0; i < 10; i++ {
		d.Add(100)
	}
	if tail, _ := d.Tail(); tail.Value != 30 {
		t.Fatalf("tail %v, want 30", tail.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := distOf(3, 1, 2).Median(); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := distOf(4, 1, 3, 2).Median(); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := (&Dist{}).Median(); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestRepeatMedianFiltersOneStalledRepeat(t *testing.T) {
	a := distOf(1, 2, 3)
	b := distOf(1, 50, 3) // a stall hit operation 1 in this repeat only
	c := distOf(1, 2, 3)
	got := repeatMedian([]*Dist{a, b, c})
	if want := []float64{1, 2, 3}; len(got.ms) != 3 || got.ms[0] != want[0] || got.ms[1] != want[1] || got.ms[2] != want[2] {
		t.Fatalf("got %v, want %v", got.ms, want)
	}
	// Repeats of different length are not the same operations: pool them.
	if got := repeatMedian([]*Dist{distOf(1, 2), distOf(1)}); got.Len() != 3 {
		t.Fatalf("unequal repeats pooled to %d samples, want 3", got.Len())
	}
}
