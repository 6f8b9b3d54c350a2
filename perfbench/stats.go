package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is an extrapolation rather than a measurement.
const minTail = 10

// median returns the median of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses a sample in which fewer than minTail values lie beyond the
// rank, so a p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, need %d",
			100*q, n, n-rank, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// errorRate is failed ÷ attempted.
func errorRate(failed, attempted int) (float64, error) {
	if attempted < 1 {
		return 0, errors.New("error rate: nothing attempted")
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("error rate: %d failed of %d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}

// ratio is a fraction reported with its base.
type ratio struct {
	Num, Den int64
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
