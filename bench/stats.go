package main

import "sort"

// quartiles returns the first quartile, median and third quartile of
// v by the method Python's statistics.quantiles(v, n=4) uses (the
// "exclusive" method: the i-th cut point of n sorted values sits at
// rank i*(n+1)/4, linearly interpolated and clamped to the sample), so
// a spread printed here is the spread the driver computes. Fewer than
// two values yield the single value (or zero) three times.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of v (mean of the middle two when even).
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
