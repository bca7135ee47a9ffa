package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a reading of the process-wide counters that bracket the
// measured phase: CPU from getrusage, heap allocation totals, GC cycles
// and pauses, and the GC's share of CPU from runtime/metrics.
type procSample struct {
	cpu        time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
	gcCPU      float64
	allCPU     float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSample() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := procSample{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNS:    ms.PauseTotalNs,
	}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
		s.allCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}

// cpuTime is the user plus system CPU the process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicksPerSecond is USER_HZ, the unit of /proc/stat, which Linux
// fixes at 100 on every architecture it reports steal for.
const stealTicksPerSecond = 100

// stealTime returns the time the hypervisor has withheld from this
// machine's CPUs (the steal column of /proc/stat), averaged per CPU. A
// phase that keeps every CPU busy loses this much wall time to other
// tenants of the host; so does a single thread, on average, when steal is
// spread evenly over the CPUs.
func stealTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	var total, cpus int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			if total, err = strconv.ParseInt(f[8], 10, 64); err != nil {
				return 0, fmt.Errorf("parse steal in /proc/stat: %w", err)
			}
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0, fmt.Errorf("no per-CPU lines in /proc/stat")
	}
	return time.Duration(total) * time.Second / stealTicksPerSecond / time.Duration(cpus), nil
}

// stopwatch measures wall time net of steal time.
type stopwatch struct {
	start time.Time
	steal time.Duration
}

func startWatch() (stopwatch, error) {
	st, err := stealTime()
	return stopwatch{start: time.Now(), steal: st}, err
}

// elapsed returns the wall time since start less the steal time in it,
// and the steal time itself, in seconds.
func (w stopwatch) elapsed() (net, steal float64, err error) {
	wall := time.Since(w.start)
	st, err := stealTime()
	if err != nil {
		return 0, 0, err
	}
	stolen := st - w.steal
	return (wall - stolen).Seconds(), stolen.Seconds(), nil
}

// The reference loop is a fixed piece of integer arithmetic that uses
// neither the heap nor the program. Timing it before every repetition
// measures how fast this machine's CPU currently runs: on a virtual
// machine whose cores are shared with other guests that speed drifts by
// a quarter over minutes, and the wall-clock metrics drift with it.
// refNominalS is the loop's time on a quiet run of the machine the
// benchmark was written on; host-scaled times are reported in seconds of
// that machine (see bench in main.go).
const (
	refIterations = 60_000_000
	refNominalS   = 0.15
)

var refSink uint64

func refLoop(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	return x
}

// timeRefLoop runs the reference loop once and returns its time net of
// steal, in seconds.
func timeRefLoop() (float64, error) {
	w, err := startWatch()
	if err != nil {
		return 0, err
	}
	refSink += refLoop(refIterations)
	net, _, err := w.elapsed()
	return net, err
}

// settle collects garbage and returns freed memory to the OS, then
// resets the kernel's peak-RSS mark (/proc/self/clear_refs <- 5), so the
// next peakRSS reading covers only what runs after this call.
func settle() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q = 0.5 is the median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maximum returns the largest of xs, or 0 for none.
func maximum(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// trimmedMean returns the mean of xs without its smallest and largest
// tenth (at least one each from five values on). xs is not modified.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	if k == 0 && len(s) >= 5 {
		k = 1
	}
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
