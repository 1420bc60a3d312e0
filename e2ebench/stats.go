package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one metric's observations across a run.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) by the nearest-rank rule;
// NaN when empty.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	k := int(math.Ceil(p*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(c) {
		k = len(c) - 1
	}
	return c[k]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
