package main

import (
	"sort"
	"time"
)

// medianOf returns the median of f over outs.
func medianOf(outs []*runOut, f func(*runOut) float64) float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func eventsPerSecond(o *runOut) float64 { return float64(o.events) / o.win.wall.Seconds() }

func cpuPerEvent(o *runOut) float64 { return perEvent(o.win.cpu, o.events) }

func allocsPerEvent(o *runOut) float64 { return float64(o.win.allocs) / float64(o.events) }

func allocBytesPerEvent(o *runOut) float64 { return float64(o.win.allocBytes) / float64(o.events) }

func peakRSSMB(o *runOut) float64 { return float64(o.peakRSS) / (1 << 20) }

func perEvent(d time.Duration, events int64) float64 {
	return float64(d.Nanoseconds()) / float64(events)
}

// pacedFigures pools the block latencies and generator lateness of
// open-loop sub-runs.
func pacedFigures(outs []*runOut) (lat, late []time.Duration) {
	for _, o := range outs {
		lat = append(lat, blockLatencies(o)...)
		late = append(late, o.lateness...)
	}
	return lat, late
}

// blockLatencies returns, for every block of an in-process run, the
// time from its release to its aligned marker's arrival beside the
// sink.
func blockLatencies(out *runOut) []time.Duration {
	lat := make([]time.Duration, 0, out.blocks)
	for b := 0; b < out.blocks && b < len(out.arrivals); b++ {
		if !out.arrivals[b].IsZero() {
			lat = append(lat, out.arrivals[b].Sub(out.release[b]))
		}
	}
	return lat
}

// quantile returns the q-quantile of ds (nearest rank); 0 for none.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
