package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process-wide cost counters at one instant.
type procSnap struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// processMetrics turns the difference of two snapshots into per-image
// costs.
func processMetrics(a, b procSnap, images int) map[string]float64 {
	n := float64(max(images, 1))
	gcFrac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return map[string]float64{
		"process.cpu_ms_per_image":   float64(b.cpu-a.cpu) / 1e6 / n,
		"process.alloc_mb_per_image": float64(b.allocBytes-a.allocBytes) / 1e6 / n,
		"process.gc_cpu_fraction":    gcFrac,
		"process.gcs_per_image":      float64(b.numGC-a.numGC) / n,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
