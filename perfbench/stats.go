package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of samples by the
// nearest-rank rule: the smallest sample with at least ⌈q·n⌉ samples at
// or below it. It returns NaN for no samples and leaves samples as they
// are.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile in n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the q-quantile's rank:
// a percentile is only reported when at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// median returns the middle sample (the mean of the two middle samples
// for an even count), or NaN for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean, or NaN for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio returns num/den, or 0 when den is 0 (a waste ratio over no
// attempts wasted nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
