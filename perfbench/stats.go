package main

import (
	"math"
	"sort"
	"time"
)

// median is the middle value (mean of the two middle values for an even
// count), the statistic every host-time metric reports.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the nearest-rank (ceil) quantile, the convention the
// repository's own histograms use.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowed is the median over windows of each window's q-quantile. Runs
// split their samples into windows (one sweep, one replay pass, a fifth of a
// load phase) so a burst of host noise moves one window, not the run's
// value.
func windowed(windows [][]float64, q float64) float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

func flat(windows [][]float64) []float64 {
	var out []float64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}

// assembled is the typical duration of a whole window built part by part:
// the sum over parts of each part's median across windows (all windows have
// the same parts). A burst of host noise inflates the parts it overlaps in
// one window, and each part's median drops it, where the median of whole
// windows would keep its share.
func assembled(windows [][]float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	var total float64
	part := make([]float64, len(windows))
	for k := range windows[0] {
		for w := range windows {
			part[w] = windows[w][k]
		}
		total += median(part)
	}
	return total
}
