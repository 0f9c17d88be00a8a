package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rate is n per elapsed seconds, 0 for an empty interval.
func rate(n float64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tail is the p99, or, with fewer than 1,000 samples, the highest
// percentile that still has ten samples beyond it.
func tail(xs []float64) float64 {
	q := 0.99
	if n := float64(len(xs)); n > 0 && 1-10/n < q {
		q = max(1-10/n, 0.5)
	}
	return quantile(xs, q)
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// goCounters samples the Go runtime's allocation and CPU accounting, so a
// timed phase can report allocations per operation and the share of CPU
// the garbage collector took.
type goCounters struct {
	allocs       uint64
	gcCPU, total float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// goDelta turns two samples into (allocations per op, GC CPU percent).
func goDelta(a, b goCounters, ops int) (allocsPerOp, gcPct float64) {
	if ops > 0 {
		allocsPerOp = float64(b.allocs-a.allocs) / float64(ops)
	}
	if cpu := b.total - a.total; cpu > 0 {
		gcPct = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
	return
}

// liveHeapMB forces a collection and returns the live Go heap in MB. The
// second collection frees what sync.Pool victim caches kept alive through
// the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
