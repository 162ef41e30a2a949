package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of latency samples in seconds.
type dist []float64

func (d *dist) add(t time.Duration) { *d = append(*d, t.Seconds()) }

// quantile is the nearest-rank q-quantile (q in (0,1]); 0 when empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many samples lie above the nearest-rank q-quantile.
func (d dist) beyond(q float64) int {
	return len(d) - int(math.Ceil(q*float64(len(d))))
}

func median(xs []float64) float64 { return dist(xs).quantile(0.5) }
