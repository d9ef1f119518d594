package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuJiffies reads the machine-wide steal and total CPU ticks from the
// first line of /proc/stat.
func cpuJiffies() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(b))
}

// runtimeSample reads the Go runtime's own accounting.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	heapLive        float64 // bytes
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: get(0), totalCPU: get(1), heapLive: get(2)}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// meter measures one timed phase: wall time, process CPU, allocations,
// machine-wide CPU steal and the runtime's GC share.
type meter struct {
	t0             time.Time
	cpu0           time.Duration
	mallocs0       uint64
	steal0, total0 uint64
	rt0            runtimeSample
}

// phase is what a meter measured.
type phase struct {
	elapsed  time.Duration
	cpu      time.Duration
	mallocs  uint64
	stealPct float64
	gcCPUPct float64
	heapMB   float64
}

func startMeter() meter {
	m := meter{mallocs0: mallocs(), rt0: readRuntime()}
	m.steal0, m.total0 = cpuJiffies()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m meter) stop() phase {
	p := phase{elapsed: time.Since(m.t0), cpu: cpuTime() - m.cpu0}
	p.mallocs = mallocs() - m.mallocs0
	steal, total := cpuJiffies()
	if total > m.total0 {
		p.stealPct = 100 * float64(steal-m.steal0) / float64(total-m.total0)
	}
	rt := readRuntime()
	if d := rt.totalCPU - m.rt0.totalCPU; d > 0 {
		p.gcCPUPct = 100 * (rt.gcCPU - m.rt0.gcCPU) / d
	}
	p.heapMB = rt.heapLive / (1 << 20)
	return p
}

// environment stamps a run with what it ran on: identical CPU-bound work
// varies by several percent back to back on a shared VM, so a result is only
// comparable with its environment beside it.
func environment(p phase) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernelRelease(),
		"steal_pct":  p.stealPct,
	}
}
