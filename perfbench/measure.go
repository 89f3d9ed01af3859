package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[i]) + (pos-float64(i))*float64(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was attempted (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's CPU time and context switches so far.
type usage struct {
	User, Sys time.Duration
	Ctx       int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		User: time.Duration(ru.Utime.Nano()),
		Sys:  time.Duration(ru.Stime.Nano()),
		Ctx:  ru.Nvcsw + ru.Nivcsw,
	}
}

func (u usage) sub(o usage) usage {
	return usage{User: u.User - o.User, Sys: u.Sys - o.Sys, Ctx: u.Ctx - o.Ctx}
}

// heapAfterGC returns the live heap once garbage from earlier work is
// collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// clockNs is the cost of one monotonic clock read, the unit every span
// includes once: the median over blocks of back-to-back reads.
func clockNs() float64 {
	const blocks, reads = 9, 200_000
	per := make([]float64, blocks)
	var sink time.Duration
	for b := range per {
		start := time.Now()
		for i := 0; i < reads; i++ {
			sink += time.Since(start)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / reads
	}
	if sink < 0 {
		per[0] = 0
	}
	return median(per)
}
