package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the host and runtime a result came from, so a
// reader can tell a host change from a code change.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       int    `json:"gogc"`
	// GOMEMLIMIT is in bytes, -1 when unlimited.
	GOMEMLIMIT int64 `json:"gomemlimit"`
}

func hostFingerprint() fingerprint {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// SetGCPercent returns the previous value; setting it back leaves
	// the collector as it was. A negative SetMemoryLimit only reads.
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	limit := debug.SetMemoryLimit(-1)
	if limit == math.MaxInt64 {
		limit = -1
	}
	return fingerprint{
		CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOGC: gogc, GOMEMLIMIT: limit,
	}
}

// calibSink keeps the calibration loops from being optimised away.
var calibSink uint64

// calibrate times a fixed pair of loops five times and returns the
// median in milliseconds: 20M rounds of register-only integer work, and
// 300K dependent random reads over a 32 MiB table, larger than the CPU's
// caches. No change to the simulator can move it, but both host CPU
// speed and memory latency, which the workloads depend on, do.
func calibrate() float64 {
	table := make([]uint32, 8<<20)
	for i := range table {
		table[i] = uint32(i*2654435761) % uint32(len(table))
	}
	var ms []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(r) + 0x9e3779b97f4a7c15
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		j := uint32(x) % uint32(len(table))
		for i := 0; i < 300_000; i++ {
			j = table[j]
		}
		calibSink += x + uint64(j)
		ms = append(ms, time.Since(start).Seconds()*1e3)
	}
	return median(ms)
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the steal
// ticks and the sum of all ticks. ok is false where it is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		for i, s := range f[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, false
			}
			// guest and guest_nice (fields 9 and 10) are already in user.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return steal, total, true
	}
	return 0, 0, false
}

// stealMeter measures the share of host CPU time stolen by the
// hypervisor between its creation and pct.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func newStealMeter() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

func (m stealMeter) pct() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB,
// or the runtime's total memory obtained from the OS where /proc is
// unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// median is the midpoint of a sorted copy of xs (0 for none).
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
