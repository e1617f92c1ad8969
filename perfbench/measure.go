package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Metric registry: every name this program can print, with its unit. The
// end-to-end names are shared by all workloads, so each is defined on the
// simulator and the live server alike (see BENCHMARK.json); the per-layer
// names report 0 on a workload that does not run the layer.
var (
	endToEndUnits = map[string]string{
		"setup_s":        "s",
		"ops_per_s":      "1/s",
		"admitted_share": "share",
		"startup_p90_ms": "ms",
	}
	perLayerUnits = map[string]string{
		"engine.clock.events_per_day":         "1/day",
		"engine.clock.self_ns_per_event":      "ns",
		"engine.clock.self_share":             "share",
		"engine.clock.pending_max":            "count",
		"engine.disk.services_per_day":        "1/day",
		"engine.disk.self_ns_per_event":       "ns",
		"engine.disk.admits":                  "1/day",
		"engine.disk.rejects":                 "1/day",
		"engine.disk.defers":                  "1/day",
		"engine.disk.downgrades":              "1/day",
		"engine.disk.switches":                "1/day",
		"engine.allocator.size_calls":         "1/day",
		"engine.allocator.size_ns":            "ns",
		"engine.allocator.plan_calls":         "1/day",
		"engine.allocator.plan_ns":            "ns",
		"engine.allocator.admit_calls":        "1/day",
		"engine.allocator.admit_denied_ratio": "ratio",
		"engine.scheduler.next_calls":         "1/day",
		"engine.scheduler.next_ns":            "ns",
		"engine.scheduler.next_share":         "share",
		"engine.scheduler.services_per_next":  "ratio",
		"engine.observer.calls_per_day":       "1/day",
		"engine.observer.self_ns_per_call":    "ns",
		"core.estimates_per_day":              "1/day",
		"core.estimate_hit_ratio":             "ratio",
		"diskmodel.busy_share":                "share",
		"diskmodel.seek_ms_per_read":          "ms",
		"serve.admit_reply_p50_ms":            "ms",
		"serve.admit_reply_p99_ms":            "ms",
		"serve.first_frame_p50_ms":            "ms",
		"serve.allocs_per_session":            "count",
		"livemetrics.startup_p50_ms":          "ms",
		"livemetrics.startup_p99_ms":          "ms",
		"livemetrics.underruns_per_session":   "ratio",
		"livemetrics.defers_per_session":      "ratio",
		"engine.wallclock.wakeup_lag_ms":      "ms",
		"engine.wallclock.compensation_ms":    "ms",
		"trace.overhead_share":                "share",
		"runtime.alloc_mb_per_op":             "MB",
		"runtime.cpu_ms_per_op":               "ms",
		"runtime.max_rss_mb":                  "MB",
		"sim.startup_p50_ms":                  "ms",
		"serve.first_byte_p50_ms":             "ms",
		"sim.refused_share":                   "share",
		"sim.underrun_share":                  "share",
		"sim.buffer_peak_mb":                  "MB",
		"sim.startup_p99_ms":                  "ms",
		"serve.first_byte_p99_ms":             "ms",
		"livemetrics.starved_share":           "share",
	}
	units = mergeUnits(endToEndUnits, perLayerUnits, cpuShareUnits())
)

// cpuModules are the buckets CPU-profile samples are attributed to; see
// attributeProfile. "other" takes the benchmark's own code and repository
// packages outside the list.
var cpuModules = []string{"engine", "container-heap", "buffer", "core", "sched", "catalog",
	"diskmodel", "sim", "serve", "livemetrics", "runtime", "other"}

func cpuShareUnits() map[string]string {
	m := make(map[string]string, len(cpuModules))
	for _, mod := range cpuModules {
		m["cpu_share."+mod] = "share"
	}
	return m
}

func mergeUnits(ms ...map[string]string) map[string]string {
	out := make(map[string]string)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// perLayerZero returns every per-layer metric at 0; a workload overwrites
// the layers it runs.
func perLayerZero() map[string]float64 {
	m := make(map[string]float64, len(perLayerUnits)+len(cpuModules))
	for k := range perLayerUnits {
		m[k] = 0
	}
	for _, mod := range cpuModules {
		m["cpu_share."+mod] = 0
	}
	return m
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// median returns the median of v without reordering the caller's slice.
func median(v []float64) float64 {
	return quantile(append([]float64(nil), v...), 0.5)
}

// cpuTime reports the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB reports the process's peak resident set size in megabytes
// (Linux reports ru_maxrss in kilobytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// heapCounters reads the cumulative allocated bytes and allocation count.
func heapCounters() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// sample is one measured unit of work: its wall time, process CPU time and
// heap allocation.
type sample struct {
	wall, cpu time.Duration
	allocB    uint64
}

// measure runs fn and records its cost.
func measure(fn func() error) (sample, error) {
	b0, _ := heapCounters()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	b1, _ := heapCounters()
	return sample{wall: wall, cpu: cpu, allocB: b1 - b0}, err
}
