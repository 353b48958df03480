package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB since the
// last resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle starts an operation from the same state every time: garbage of
// earlier operations collected and returned to the OS, and the peak RSS
// reset to the current RSS (Linux clear_refs 5), so each operation's
// peak is its own.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it the peak is the process's
}

// allocMB returns the bytes allocated on the heap so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// opTime is the wall time, CPU time and peak RSS of one measured
// operation.
type opTime struct {
	wall, cpu time.Duration
	rssMB     float64
}

// timed settles the process, runs f and reports its wall and CPU time and
// its peak RSS.
func timed(f func() error) (opTime, error) {
	settle()
	c0, t0 := cpuTime(), time.Now()
	err := f()
	return opTime{wall: time.Since(t0), cpu: cpuTime() - c0, rssMB: peakRSSMB()}, err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
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
	return s[i]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// setEndToEnd fills the seven end-to-end metrics from untraced
// operations. requests are the per-request latencies the workload defines
// (see NOTES.md); events is the deterministic kernel event count of one
// operation's useful work. A traced run must never report them.
func setEndToEnd(e *env, r *result, ops []opTime, events float64, setup []time.Duration, requests []time.Duration) {
	if e.trace {
		r.fail("end-to-end metrics computed in a traced run")
		return
	}
	var walls, cpus, rss []float64
	for _, o := range ops {
		walls = append(walls, o.wall.Seconds())
		cpus = append(cpus, o.cpu.Seconds())
		rss = append(rss, o.rssMB)
	}
	wall := median(walls)
	r.set("wall_s", "s", wall)
	r.set("events_per_s", "1/s", events/wall)
	r.set("cpu_s", "s", median(cpus))
	r.set("setup_s", "s", median(seconds(setup)))
	r.set("peak_rss_mb", "MB", median(rss))
	ms := millis(requests)
	r.set("request_p50_ms", "ms", quantile(ms, 0.5))
	r.set("request_p90_ms", "ms", quantile(ms, 0.9))
}

// digest is a short content hash of simulated output, printed so a reader
// can see when results change.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", h[:8])
}
