package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// tail is one tail percentile with the evidence behind it.
type tail struct {
	P      float64 // percentile, from tailLadder
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the nearest-rank position
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples, %d beyond", t.P, t.N, t.Beyond)
}

// rankOf is the 1-based nearest-rank position of percentile p in n
// samples. The epsilon keeps float error in p·n/100 (99.9·10000/100
// is 9990.000000000002) from pushing the rank one past an exact
// integer.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailOf returns the highest ladder percentile with at least minBeyond
// samples beyond it. ok is false when even the median has fewer; the
// median is returned then.
func tailOf(samples []float64) (t tail, ok bool) {
	s := sorted(samples)
	t.N = len(s)
	if t.N == 0 {
		return t, false
	}
	for _, p := range tailLadder {
		r := rankOf(p, t.N)
		if t.N-r >= minBeyond {
			return tail{P: p, Value: s[r-1], N: t.N, Beyond: t.N - r}, true
		}
	}
	r := rankOf(50, t.N)
	return tail{P: 50, Value: s[r-1], N: t.N, Beyond: t.N - r}, false
}

// percentile is the nearest-rank percentile p of samples (0 when empty).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	return s[rankOf(p, len(s))-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
