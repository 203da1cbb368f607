package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// sample is what one untraced operation measured.
type sample struct {
	wall        time.Duration
	cpu         time.Duration // process user + system time
	mallocs     uint64
	allocBytes  uint64
	peakRSSKiB  int64
	gcCPU, busy float64 // runtime/metrics CPU classes, in seconds
}

// measure runs op from a collected, returned-to-the-OS heap with a reset
// peak-RSS watermark, so each operation's memory figures are its own.
func measure(op func() error) (sample, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return sample{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, busy0 := cpuClasses()
	cpu0 := processCPU()
	start := time.Now()
	err := op()
	wall := time.Since(start)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	// The runtime folds GC CPU time into its metrics at the end of a
	// cycle; one more cycle settles the figures of this operation.
	runtime.GC()
	gc1, busy1 := cpuClasses()
	if err != nil {
		return sample{}, err
	}
	rss, err := peakRSS()
	if err != nil {
		return sample{}, err
	}
	return sample{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		peakRSSKiB: rss,
		gcCPU:      gc1 - gc0,
		busy:       busy1 - busy0,
	}, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClasses reads the runtime's estimate of GC CPU seconds and of all
// non-idle CPU seconds.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSS returns the process's resident-set high-water mark in KiB.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			return strconv.ParseInt(string(bytes.TrimSpace(bytes.TrimSuffix(rest, []byte("kB")))), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median returns the median of xs (0 for none).
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

// medianOf maps each sample through f and returns the median.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}
