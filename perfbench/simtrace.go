package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/engine"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// layerObserver is the traced run's result collector. It counts what
// sim.Run's collector counts for the transparency check, plus the
// per-layer work counts.
type layerObserver struct {
	engine.NopObserver
	sum                      daySummary
	admits, defers, services int64
	estimates, resolved      int64
	hits                     int64
}

func (c *layerObserver) OnAdmit(int, *engine.Stream, si.Seconds) { c.admits++ }
func (c *layerObserver) OnDefer(int, si.Seconds)                 { c.defers++ }
func (c *layerObserver) OnReject(int, workload.Request, engine.RejectReason, si.Seconds) {
	c.sum.Rejected++
}
func (c *layerObserver) OnFill(int, *engine.Stream, si.Seconds, si.Seconds, si.Bits, si.Seconds) {
	c.services++
}
func (c *layerObserver) OnStart(int, *engine.Stream, si.Seconds) { c.sum.Served++ }
func (c *layerObserver) OnEstimate(int, int, si.Bits, si.Seconds) {
	c.estimates++
}
func (c *layerObserver) OnEstimateResolved(_ int, hit bool, _ si.Seconds) {
	c.resolved++
	if hit {
		c.hits++
	}
}
func (c *layerObserver) OnDowngrade(int, workload.Request, si.BitRate, si.BitRate, si.Seconds) {
	c.sum.Downgrades++
}
func (c *layerObserver) OnRateSwitch(int, *engine.Stream, si.BitRate, si.BitRate, si.Seconds) {
	c.sum.Switches++
}
func (c *layerObserver) OnDepart(_ int, st *engine.Stream, _ si.Seconds) {
	if st.Starved() {
		c.sum.StarvedStreams++
	}
}

// tracedDayResult is one traced day's outcome and layer counts.
type tracedDayResult struct {
	sum     daySummary
	col     *layerObserver
	runNS   int64 // host time inside VirtualClock.Run
	busy    si.Seconds
	horizon si.Seconds
	reads   int64
	seek    si.Seconds
}

// tracedDay runs one day under method k the way sim.Run does — same
// engine configuration, arrival scheduling, one-minute sampler, grace
// and end-of-run sweep — but with every engine seam decorated to record
// spans on t. The decorators forward calls unchanged, so the day's
// simulated outcome must equal sim.Run's.
func (in *dayInputs) tracedDay(key dayKey, t *tracer) (tracedDayResult, error) {
	cfg := in.config(key, nil)
	clock := engine.NewVirtualClock()
	dom := &tracedDomain{inner: clock, t: t}
	col := &layerObserver{}
	sys, err := engine.New(engine.Config{
		Clock:        dom,
		Allocator:    tracedAllocator{inner: sim.AllocatorFor(cfg.Scheme), t: t},
		NewScheduler: newTracedScheduler(t),
		Method:       cfg.Method,
		Spec:         cfg.Spec,
		CR:           cfg.CR,
		Rates:        cfg.Rates,
		Downgrade:    cfg.Downgrade,
		Adapt:        cfg.Adapt,
		Alpha:        1,
		TLog:         si.Minutes(40),
		Library:      cfg.Library,
		Seed:         cfg.Seed,
		SizeTable:    cfg.SizeTable,
		Observer:     tracedObserver{inner: col, t: t},
	})
	if err != nil {
		return tracedDayResult{}, fmt.Errorf("%v traced day of trace %d: %w", key.method, key.trace, err)
	}
	horizon := cfg.Trace.Schedule.Horizon()
	for _, req := range cfg.Trace.Requests {
		if req.Arrival > horizon {
			break
		}
		req := req
		dom.Schedule(req.Arrival, func() { sys.OnArrival(req) })
	}
	end := horizon + si.Minutes(30)
	var sample func()
	sample = func() {
		now := clock.Now()
		for i := 0; i < sys.Disks(); i++ {
			sys.Disk(i).Pool().Usage(now)
		}
		if next := now + si.Minutes(1); next <= end {
			dom.Schedule(next, sample)
		}
	}
	dom.Schedule(0, sample)

	t0 := t.now()
	clock.Run(end)
	res := tracedDayResult{col: col, runNS: t.now() - t0, horizon: end}

	col.sum.Arrivals = len(cfg.Trace.Requests)
	for i := 0; i < sys.Disks(); i++ {
		d := sys.Disk(i)
		d.ResolveEstimates(clock.Now())
		st := d.Pool().Stats()
		col.sum.Underruns += st.Underruns
		col.sum.PeakMemory += st.HighWater
		for _, s := range d.Streams() {
			if s.Starved() {
				col.sum.StarvedStreams++
			}
		}
		ds := d.DiskStats()
		res.busy += ds.TotalSeek + ds.TotalRotate + ds.TotalXfer
		res.seek += ds.TotalSeek
		res.reads += ds.Reads
	}
	res.sum = col.sum
	return res, nil
}

// runTraced measures the per-layer metrics: day by day it simulates the
// day untraced through sim.Run under the CPU profiler, then traced, and
// requires the two to agree exactly. It covers the first trace's days
// under every method, then keeps cycling the run's days while time
// remains. The simulated (sim.*) figures come from the first trace.
func (in *dayInputs) runTraced(o options) (outcome, error) {
	out := outcome{metrics: perLayerZero()}
	t := newTracer()
	var cpu cpuProfile
	var agg layerObserver
	var q qoe
	var days, runNS, untracedNS, tracedNS int64
	var allocB uint64
	var cpuNS time.Duration
	var busy, horizon, seek si.Seconds
	var reads int64
	keys := in.days()
	start := time.Now()
	for i := 0; i < len(dayMethods) || time.Since(start).Seconds() < o.seconds; i++ {
		key := keys[i%len(keys)]
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, fmt.Errorf("starting the CPU profile: %w", err)
		}
		rec := &startupRecorder{}
		want, smp, err := in.runDay(key, rec)
		pprof.StopCPUProfile()
		if err != nil {
			return out, err
		}
		if err := cpu.add(prof.Bytes()); err != nil {
			return out, err
		}
		if i < len(dayMethods) {
			q.add(want, rec.lat)
		}
		t0 := time.Now()
		got, err := in.tracedDay(key, t)
		if err != nil {
			return out, err
		}
		tracedNS += int64(time.Since(t0))
		untracedNS += int64(smp.wall)
		allocB += smp.allocB
		cpuNS += smp.cpu
		out.attempted++
		if got.sum != want {
			out.failed++
			logf("%v day of trace %d: traced %+v, sim.Run %+v", key.method, key.trace, got.sum, want)
		}
		days++
		runNS += got.runNS
		busy += got.busy
		horizon += got.horizon
		seek += got.seek
		reads += got.reads
		c := got.col
		agg.admits += c.admits
		agg.defers += c.defers
		agg.services += c.services
		agg.estimates += c.estimates
		agg.resolved += c.resolved
		agg.hits += c.hits
		agg.sum.Rejected += c.sum.Rejected
		agg.sum.Downgrades += c.sum.Downgrades
		agg.sum.Switches += c.sum.Switches
	}
	out.correct = out.failed == 0

	m := out.metrics
	d := float64(days)
	s := &t.seams
	events := s[seamCallback].calls
	clockSelf := runNS - t.callbackNS
	m["engine.clock.events_per_day"] = float64(events) / d
	m["engine.clock.self_ns_per_event"] = ratio(clockSelf, events)
	m["engine.clock.self_share"] = ratio(clockSelf, runNS)
	m["engine.clock.pending_max"] = float64(t.pendingMax)
	m["engine.disk.services_per_day"] = float64(agg.services) / d
	m["engine.disk.self_ns_per_event"] = ratio(s[seamCallback].selfNS, events)
	m["engine.disk.admits"] = float64(agg.admits) / d
	m["engine.disk.rejects"] = float64(agg.sum.Rejected) / d
	m["engine.disk.defers"] = float64(agg.defers) / d
	m["engine.disk.downgrades"] = float64(agg.sum.Downgrades) / d
	m["engine.disk.switches"] = float64(agg.sum.Switches) / d
	m["engine.allocator.size_calls"] = float64(s[seamSize].calls) / d
	m["engine.allocator.size_ns"] = ratio(s[seamSize].selfNS, s[seamSize].calls)
	m["engine.allocator.plan_calls"] = float64(s[seamPlan].calls) / d
	m["engine.allocator.plan_ns"] = ratio(s[seamPlan].selfNS, s[seamPlan].calls)
	m["engine.allocator.admit_calls"] = float64(s[seamAdmit].calls) / d
	m["engine.allocator.admit_denied_ratio"] = ratio(t.admitDenied, s[seamAdmit].calls)
	m["engine.scheduler.next_calls"] = float64(s[seamNext].calls) / d
	m["engine.scheduler.next_ns"] = ratio(s[seamNext].selfNS, s[seamNext].calls)
	m["engine.scheduler.next_share"] = ratio(s[seamNext].selfNS, runNS)
	m["engine.scheduler.services_per_next"] = ratio(t.nextServices, s[seamNext].calls)
	m["engine.observer.calls_per_day"] = float64(s[seamObserver].calls) / d
	m["engine.observer.self_ns_per_call"] = ratio(s[seamObserver].selfNS, s[seamObserver].calls)
	m["core.estimates_per_day"] = float64(agg.estimates) / d
	m["core.estimate_hit_ratio"] = ratio(agg.hits, agg.resolved)
	m["diskmodel.busy_share"] = float64(busy / horizon)
	m["diskmodel.seek_ms_per_read"] = float64(seek) * 1e3 / float64(reads)
	m["trace.overhead_share"] = float64(tracedNS)/float64(untracedNS) - 1
	m["runtime.alloc_mb_per_op"] = float64(allocB) / 1e6 / d
	m["runtime.cpu_ms_per_op"] = cpuNS.Seconds() * 1e3 / d
	m["runtime.max_rss_mb"] = maxRSSMB()
	m["sim.startup_p50_ms"] = quantile(q.lat, 0.50) * 1e3
	m["sim.refused_share"] = float64(q.refused) / float64(q.arrivals)
	m["sim.underrun_share"] = float64(q.starved) / float64(q.served)
	m["sim.buffer_peak_mb"] = q.peak.MegabytesVal() / float64(q.days)
	m["sim.startup_p99_ms"] = quantile(q.lat, 0.99) * 1e3
	cpu.shares(m)
	return out, nil
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
