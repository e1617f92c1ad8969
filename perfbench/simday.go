package main

import (
	"fmt"
	"runtime"
	"time"

	vod "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// dayWorkload is a simulated-day workload: the paper's one-disk library
// (six MPEG-1 titles, Zipf 0.271 popularity, one Barracuda 9LP), days of
// Poisson arrivals on the theta=1 Zipf time-of-day profile, the dynamic
// scheme, and each day simulated once under each scheduling method.
type dayWorkload struct {
	arrivals float64
	hours    float64 // a day's span; the profile peaks at 3/8 of it
	// traces is how many days, each from its own seed-derived trace, a
	// run simulates under every method. One day's simulated figures swing
	// with its trace (a light day's startup p90 by ~10% between seeds),
	// so runs pool several: two light days, whose dynamic-scheme fills
	// cost ~6 s each, and four of the cheaper busy days.
	traces int
	// ladder gives every title the 1.5/1.0/0.5 Mbps QoE ladder, requests
	// ask for the top rung, and the engine runs downgrading admission and
	// mid-stream adaptation.
	ladder bool
}

var (
	// lightDay is the paper's light day: few streams, tiny buffers, so
	// the per-event path (clock heap, pool, book) does almost all the work.
	lightDay = dayWorkload{arrivals: 350, hours: 24, traces: 2}
	// busyLadderDay is the repository's single-disk evaluation load on the
	// bitrate ladder: ~40 streams in service, rejections, downgrades and
	// switches, and far fewer events per stream.
	busyLadderDay = dayWorkload{arrivals: 2500, hours: 24, traces: 4, ladder: true}
)

var dayMethods = []sched.Kind{sched.RoundRobin, sched.Sweep, sched.GSS}

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 15

// qoeLadder is the ladder busy-ladder-day's titles carry.
func qoeLadder() []si.BitRate { return []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)} }

// dayKey names one simulated day of a run: a trace and a method.
type dayKey struct {
	trace  int
	method sched.Kind
}

// dayInputs is everything a run's simulated days need: the library, the
// traces with their seeds, and each method's precomputed sizing table.
type dayInputs struct {
	w      dayWorkload
	spec   vod.DiskSpec
	cr     si.BitRate
	lib    *catalog.Library
	traces []workload.Trace
	seeds  []int64
	tables map[sched.Kind]*core.Table
}

// traceSeed derives the seed of a run's i'th trace, which also seeds the
// engine's disks for that trace's days.
func traceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// setup builds a run's inputs from its seed.
func (w dayWorkload) setup(seed int64) (*dayInputs, error) {
	spec, cr, params := vod.PaperEnvironment()
	lc := catalog.Config{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271}
	if w.ladder {
		lc.Video = func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Ladder = qoeLadder()
			return v
		}
	}
	lib, err := catalog.New(lc)
	if err != nil {
		return nil, fmt.Errorf("building the library: %w", err)
	}
	in := &dayInputs{w: w, spec: spec, cr: cr, lib: lib,
		tables: make(map[sched.Kind]*core.Table, len(dayMethods))}
	span := si.Hours(w.hours)
	for i := 0; i < w.traces; i++ {
		s := traceSeed(seed, i)
		tr := workload.Generate(workload.ZipfDay(w.arrivals, 1, span*3/8, span), lib, s)
		if w.ladder {
			for j, r := range tr.Requests {
				tr.Requests[j].Rate = lib.Video(r.Video).Rate
			}
		}
		in.traces = append(in.traces, tr)
		in.seeds = append(in.seeds, s)
	}
	for _, k := range dayMethods {
		in.tables[k] = core.NewTable(params, sched.NewMethod(k).DLModel(spec))
	}
	return in, nil
}

// days lists a run's distinct days, trace by trace.
func (in *dayInputs) days() []dayKey {
	var keys []dayKey
	for i := range in.traces {
		for _, k := range dayMethods {
			keys = append(keys, dayKey{trace: i, method: k})
		}
	}
	return keys
}

// config is the sim.Run configuration of one day.
func (in *dayInputs) config(key dayKey, obs engine.Observer) sim.Config {
	cfg := sim.Config{
		Scheme:    sim.Dynamic,
		Method:    sched.NewMethod(key.method),
		Spec:      in.spec,
		CR:        in.cr,
		Library:   in.lib,
		Trace:     in.traces[key.trace],
		Seed:      in.seeds[key.trace],
		SizeTable: in.tables[key.method],
		Observer:  obs,
	}
	if in.w.ladder {
		cfg.Rates = qoeLadder()
		cfg.Downgrade = true
		cfg.Adapt = &engine.AdaptConfig{}
	}
	return cfg
}

// daySummary is the simulated outcome of one day that the checks compare:
// every run of the same day, traced or not, must reproduce it exactly.
type daySummary struct {
	Arrivals, Served, Rejected, Downgrades, Switches int
	Underruns, StarvedStreams                        int
	PeakMemory                                       si.Bits
}

func summarize(arrivals int, r *sim.Result) daySummary {
	return daySummary{
		Arrivals:       arrivals,
		Served:         r.Served,
		Rejected:       r.Rejected + r.RejectedMemory,
		Downgrades:     r.Downgrades,
		Switches:       r.RateSwitches(),
		Underruns:      r.Underruns,
		StarvedStreams: r.StarvedStreams,
		PeakMemory:     r.PeakMemory,
	}
}

// check reports a day whose arrivals are not all accounted for: with the
// 30-minute grace every arrival is either served or refused by the end.
func (s daySummary) check() error {
	if s.Served < 1 || s.Served+s.Rejected != s.Arrivals {
		return fmt.Errorf("served %d + refused %d != %d arrivals", s.Served, s.Rejected, s.Arrivals)
	}
	return nil
}

// startupRecorder collects arrival-to-first-byte latencies in simulated
// seconds.
type startupRecorder struct {
	engine.NopObserver
	lat []float64
}

func (r *startupRecorder) OnStart(_ int, st *engine.Stream, now si.Seconds) {
	r.lat = append(r.lat, float64(now-st.Req().Arrival))
}

// qoe pools the simulated outcomes of distinct days.
type qoe struct {
	days                               int
	arrivals, served, refused, starved int
	peak                               si.Bits
	lat                                []float64 // startup latencies, simulated seconds
}

func (q *qoe) add(s daySummary, lat []float64) {
	q.days++
	q.arrivals += s.Arrivals
	q.served += s.Served
	q.refused += s.Rejected
	q.starved += s.StarvedStreams
	q.peak += s.PeakMemory
	q.lat = append(q.lat, lat...)
}

// runDay simulates one untraced day through sim.Run and measures it.
func (in *dayInputs) runDay(key dayKey, rec *startupRecorder) (daySummary, sample, error) {
	var res *sim.Result
	cfg := in.config(key, rec)
	smp, err := measure(func() (err error) {
		res, err = sim.Run(cfg)
		return err
	})
	if err != nil {
		return daySummary{}, smp, fmt.Errorf("%v day of trace %d: %w", key.method, key.trace, err)
	}
	return summarize(len(cfg.Trace.Requests), res), smp, nil
}

// run executes the workload for the requested time.
func (w dayWorkload) run(o options) (outcome, error) {
	var in *dayInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = w.setup(o.seed); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		return in.runTraced(o)
	}
	return in.runUntraced(o, median(setups))
}

// runUntraced measures whole days for o.seconds: every distinct day once
// first — the reference days the simulated metrics come from — then more
// days, cycling, while time remains. Every repeated day must reproduce
// its reference day exactly.
func (in *dayInputs) runUntraced(o options, setupS float64) (outcome, error) {
	out := outcome{metrics: make(map[string]float64)}
	keys := in.days()
	ref := make(map[dayKey]daySummary, len(keys))
	walls := make(map[dayKey][]float64)
	cpus := make(map[dayKey][]float64)
	var q qoe
	start := time.Now()
	for i := 0; i < len(keys) || time.Since(start).Seconds() < o.seconds; i++ {
		key := keys[i%len(keys)]
		rec := &startupRecorder{}
		runtime.GC() // start every day from a collected heap, not the last day's garbage
		sum, smp, err := in.runDay(key, rec)
		if err != nil {
			return out, err
		}
		out.attempted++
		walls[key] = append(walls[key], smp.wall.Seconds())
		cpus[key] = append(cpus[key], smp.cpu.Seconds())
		first, seen := ref[key]
		switch {
		case !seen:
			ref[key] = sum
			q.add(sum, rec.lat)
			if err := sum.check(); err != nil {
				out.failed++
				logf("%v day of trace %d: %v", key.method, key.trace, err)
			}
		case sum != first:
			out.failed++
			logf("%v day of trace %d not deterministic: %+v, first run %+v", key.method, key.trace, sum, first)
		}
	}
	out.correct = out.failed == 0

	// Each distinct day's median, so which days a run happened to repeat
	// does not move the per-day figures. The simulator is single-threaded
	// and CPU-bound, so its throughput is taken over process CPU time:
	// on a shared host, wall time also counts the stretches another
	// tenant held the core, which swing the rate by a fifth between runs.
	var wall, cpu float64
	for _, key := range keys {
		wall += median(walls[key])
		cpu += median(cpus[key])
	}
	logf("%d distinct days: median wall %.3fs, cpu %.3fs in total", len(keys), wall, cpu)
	days := float64(len(keys))
	m := out.metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = days / cpu
	m["admitted_share"] = 1 - float64(q.refused)/float64(q.arrivals)
	m["startup_p90_ms"] = quantile(q.lat, 0.90) * 1e3
	for _, key := range keys {
		s := ref[key]
		logf("trace %d %v: served %d refused %d downgrades %d switches %d underruns %d starved %d peak %.3f MB, median day %.2fs",
			key.trace, key.method, s.Served, s.Rejected, s.Downgrades, s.Switches, s.Underruns, s.StarvedStreams,
			s.PeakMemory.MegabytesVal(), median(walls[key]))
	}
	return out, nil
}
