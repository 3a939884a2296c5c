package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
)

// Hist is a fixed-size log-linear histogram of non-negative int64 samples
// (nanoseconds, usually). Values below 2*histSub are counted exactly; above
// that each power of two is split into histSub equal sub-buckets, so a
// bucket is never wider than 1/histSub (0.2%) of the values it holds. All
// storage is allocated by NewHist, before a measured window opens, so
// recording allocates nothing and the harness's footprint does not grow
// with the run length.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

const (
	histSubBits = 9
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histMaxBits = 40               // values are clamped below 2^40 (~18 min in ns)
	histBuckets = (histMaxBits - histSubBits) * histSub
)

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds is the inverse of histIndex: bucket i holds [lo, lo+width).
func histBounds(i int) (lo, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	mant := int64(i%histSub + histSub)
	return mant << uint(shift), 1 << uint(shift)
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples: the order
// statistic at rank q*(n-1), placed inside its bucket by linear
// interpolation over the bucket's samples. Exact for values below
// 2*histSub, within one bucket width (0.2%) above. Zero when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	k := int64(q * float64(h.n-1)) // 0-based rank
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > k {
			lo, width := histBounds(i)
			if width == 1 {
				return float64(lo)
			}
			v := float64(lo) + float64(width)*(float64(k-seen)+0.5)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		seen += c
	}
	return float64(h.max)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
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

// quartiles returns the three cut points dividing xs into four groups, the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// histJSON is Hist's wire form: the non-empty buckets as [index, count]
// pairs, so a result can carry its full distribution between processes.
type histJSON struct {
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON implements json.Marshaler.
func (h *Hist) MarshalJSON() ([]byte, error) {
	out := histJSON{Max: h.max, Buckets: [][2]int64{}}
	for i, c := range h.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Hist) UnmarshalJSON(b []byte) error {
	var in histJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*h = Hist{max: in.Max}
	for _, p := range in.Buckets {
		if p[0] < 0 || p[0] >= histBuckets || p[1] < 0 {
			return fmt.Errorf("histogram bucket %d out of range", p[0])
		}
		h.counts[p[0]] += p[1]
		h.n += p[1]
	}
	return nil
}
