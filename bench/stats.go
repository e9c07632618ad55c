package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads printed here match ones computed from the JSON results with it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is one workload × metric row of a run set.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(unit string, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func writeSummary(w io.Writer, name string, s summary) {
	fmt.Fprintf(w, "  %-28s %-6s median %-14s q1 %-14s q3 %-14s runs", name, s.Unit,
		fmtVal(s.Median), fmtVal(s.Q1), fmtVal(s.Q3))
	for _, v := range s.Values {
		fmt.Fprintf(w, " %s", fmtVal(v))
	}
	fmt.Fprintln(w)
}

func fmtVal(v float64) string { return fmt.Sprintf("%.6g", v) }

// verdict compares two run sets of one metric. b is the candidate, a the
// baseline. A difference counts when the medians differ by more than the
// metric's bound; when either side's own spread is wider than the bound
// the comparison is unresolved, unless every run of b beats every run of
// a (or loses to every one).
func verdict(m metricSpec, a, b summary) string {
	higher := m.Better == "higher"
	worse := func(x, y float64) bool { // x worse than y
		if higher {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, x := range b.Values {
		for _, y := range a.Values {
			allBetter = allBetter && worse(y, x)
			allWorse = allWorse && worse(x, y)
		}
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if !higher {
		change = -change
	}
	switch {
	case change < -m.Bound:
		return "worse"
	case change > m.Bound:
		return "better"
	}
	return "same"
}
