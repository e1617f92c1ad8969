package main

import (
	"reflect"
	"sort"
	"testing"
)

// Short variants of the two simulated workloads: a few simulated hours,
// so the checks run in seconds.
var (
	shortLight  = dayWorkload{arrivals: 60, hours: 3, traces: 2}
	shortLadder = dayWorkload{arrivals: 400, hours: 3, traces: 1, ladder: true}
)

// TestTracedDayIsTransparent checks that the decorated engine run
// reproduces sim.Run's simulated outcome exactly under every method, on
// both the single-rate and the ladder configuration.
func TestTracedDayIsTransparent(t *testing.T) {
	for _, w := range []dayWorkload{shortLight, shortLadder} {
		in, err := w.setup(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range in.days() {
			want, _, err := in.runDay(key, &startupRecorder{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := in.tracedDay(key, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if got.sum != want {
				t.Errorf("ladder=%v %+v: traced %+v, sim.Run %+v", w.ladder, key, got.sum, want)
			}
			if got.col.services == 0 {
				t.Errorf("ladder=%v %+v: traced day counted no services", w.ladder, key)
			}
		}
	}
}

// TestSeedReproducesSimulatedMetrics checks that a seed fixes every
// metric derived from simulated results, and that another seed changes
// the trace.
func TestSeedReproducesSimulatedMetrics(t *testing.T) {
	simulated := []string{"admitted_share", "startup_p90_ms"}
	runOnce := func(seed int64) map[string]float64 {
		in, err := shortLadder.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := in.runUntraced(options{seconds: 0.01}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !out.correct || out.failed != 0 {
			t.Fatalf("seed %d: run not correct: %+v", seed, out)
		}
		return out.metrics
	}
	a, b := runOnce(5), runOnce(5)
	for _, name := range simulated {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v under the same seed", name, a[name], b[name])
		}
	}

	// The traced run's sim.* figures and work counts are simulated, not
	// timed, so they too must repeat exactly.
	counted := []string{"sim.refused_share", "sim.underrun_share", "sim.buffer_peak_mb",
		"sim.startup_p50_ms", "sim.startup_p99_ms",
		"engine.clock.events_per_day", "engine.clock.pending_max", "engine.disk.services_per_day",
		"engine.disk.admits", "engine.disk.rejects", "engine.disk.defers",
		"engine.disk.downgrades", "engine.disk.switches",
		"engine.allocator.size_calls", "engine.allocator.plan_calls", "engine.allocator.admit_calls",
		"engine.allocator.admit_denied_ratio", "engine.scheduler.next_calls",
		"engine.scheduler.services_per_next", "engine.observer.calls_per_day",
		"core.estimates_per_day", "core.estimate_hit_ratio",
		"diskmodel.busy_share", "diskmodel.seek_ms_per_read"}
	traceOnce := func(seed int64) map[string]float64 {
		in, err := shortLadder.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := in.runTraced(options{seconds: 0.01, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !out.correct || out.failed != 0 {
			t.Fatalf("seed %d: traced run not correct: %+v", seed, out)
		}
		return out.metrics
	}
	ta, tb := traceOnce(5), traceOnce(5)
	for _, name := range counted {
		if ta[name] != tb[name] {
			t.Errorf("%s: %v then %v under the same seed", name, ta[name], tb[name])
		}
	}
	if ta["engine.clock.events_per_day"] == 0 || ta["engine.disk.services_per_day"] == 0 {
		t.Errorf("traced run counted no work: %v", ta)
	}
	in5, err := shortLadder.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	in6, err := shortLadder.setup(6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(in5.traces[0].Requests, in6.traces[0].Requests) {
		t.Error("seeds 5 and 6 generated the same trace")
	}
}

// TestDefinitionMatchesRegistry checks BENCHMARK.json against this
// program: the same workloads, and the same metric names and units in
// each set.
func TestDefinitionMatchesRegistry(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: definition %v, program %v", names, want)
	}
	asMap := func(ms []specMetric) map[string]string {
		m := make(map[string]string)
		for _, x := range ms {
			if _, dup := m[x.Name]; dup {
				t.Errorf("metric %s listed twice", x.Name)
			}
			m[x.Name] = x.Unit
		}
		return m
	}
	if got := asMap(spec.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end-to-end metrics: definition %v, program %v", got, endToEndUnits)
	}
	if got, want := asMap(spec.PerLayer), mergeUnits(perLayerUnits, cpuShareUnits()); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics: definition %v, program %v", got, want)
	}
}

// TestRenderChecksTheDefinition checks that the result line refuses a
// metric the definition does not list, a missing one, and a unit that
// disagrees.
func TestRenderChecksTheDefinition(t *testing.T) {
	want := []specMetric{{Name: "setup_s", Unit: "s"}}
	ok := outcome{correct: true, attempted: 1, metrics: map[string]float64{"setup_s": 0.5}}
	if _, err := render(ok, want); err != nil {
		t.Fatalf("valid outcome refused: %v", err)
	}
	extra := outcome{attempted: 1, metrics: map[string]float64{"setup_s": 0.5, "ops_per_s": 1}}
	if _, err := render(extra, want); err == nil {
		t.Error("an unlisted metric was printed")
	}
	if _, err := render(outcome{attempted: 1, metrics: map[string]float64{}}, want); err == nil {
		t.Error("a missing metric was not reported")
	}
	if _, err := render(ok, []specMetric{{Name: "setup_s", Unit: "ms"}}); err == nil {
		t.Error("a unit mismatch was not reported")
	}
}

// TestModuleOf pins the CPU-profile attribution rules.
func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/engine.(*Disk).dispatch":     "engine",
		"repro/internal/engine.eventHeap.Less":       "container-heap",
		"repro/internal/engine.(*eventHeap).Push":    "container-heap",
		"container/heap.down":                        "container-heap",
		"repro/internal/buffer.(*Pool).Usage":        "buffer",
		"repro/internal/workload.Generate":           "other",
		"main.(*viewer).session":                     "other",
		"runtime.mallocgc":                           "",
		"net.(*conn).Write":                          "",
		"repro/internal/serve.(*Server).watch.func1": "serve",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLoopbackShortRun drives the loopback workload briefly in both modes:
// every viewing must verify and the server must drain.
func TestLoopbackShortRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		out, err := runLoopback(options{seed: 1, seconds: 0.4, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if !out.correct || out.failed != 0 || out.attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, out.correct, out.attempted, out.failed)
		}
	}
}
