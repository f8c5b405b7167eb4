package main

import (
	"math"
	"sort"

	"github.com/phftl/phftl/internal/metrics"
)

// percentile is metrics.Percentiles for one percentile p in [0,100], leaving
// the input unsorted and reading 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return metrics.Percentiles(append([]float64(nil), samples...), p)[0]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// summary is the distribution of one metric over the runs of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize computes the median and the quartiles as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance protocol uses for the spread of ten runs.
func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = median(sorted)
	s.Q1, s.Q3 = s.Median, s.Median
	if n := len(sorted); n >= 2 {
		cut := func(i int) float64 {
			m := n + 1
			j := i * m / 4
			if j < 1 {
				j = 1
			}
			if j > n-1 {
				j = n - 1
			}
			delta := float64(i*m - j*4)
			return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
		}
		s.Q1, s.Q3 = cut(1), cut(3)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
