package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistExactBelowSubBuckets(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Count() != 100 || h.max != 100 {
		t.Errorf("count %d max %d, want 100 100", h.Count(), h.max)
	}
}

func TestHistErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHist()
	xs := make([]float64, 0, 200000)
	for i := 0; i < cap(xs); i++ {
		// Log-uniform from 1 µs to 10 ms, the range of the workloads' round trips.
		v := int64(math.Exp(math.Log(1e3) + rng.Float64()*math.Log(1e4)))
		h.Record(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)-1))]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("Quantile(%v) = %v, exact %v: error %.4f > 1%%", q, got, exact, rel)
		}
	}
}

func TestHistMergeAndBounds(t *testing.T) {
	a, b := NewHist(), NewHist()
	a.Record(10)
	b.Record(1 << 30)
	b.Record(-5) // clamped to 0
	a.Merge(b)
	if a.Count() != 3 || a.max != 1<<30 || a.Quantile(0) != 0 {
		t.Errorf("merged: count %d max %d min %v", a.Count(), a.max, a.Quantile(0))
	}
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d [%d,+%d) does not round-trip", i, lo, w)
		}
	}
	if NewHist().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0}, [3]float64{1.25, 3.5, 9.0}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7, 1, 4, 4, 9, 2, 8, 6, 5, 3, 11}, [3]float64{3, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	h := NewHist()
	for _, v := range []int64{3, 3, 900, 70000, 1 << 33} {
		h.Record(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var g Hist
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if g != *h {
		t.Error("histogram changed across JSON")
	}
	if err := json.Unmarshal([]byte(`{"max":1,"buckets":[[99999999,1]]}`), &g); err == nil {
		t.Error("out-of-range bucket accepted")
	}
}
