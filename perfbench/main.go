// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points — sim.Run for the simulated days, an
// in-process serve.Server over loopback TCP for the live path — for a
// fixed number of seconds, checks the outputs, and prints one JSON line:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set BENCHMARK.json lists;
// with -trace 1 they are the per-layer set, measured by a separate traced
// run that wraps the engine's pluggable seams (clock domain, allocator,
// scheduler, observer) from this package. The printed names and units are
// checked against BENCHMARK.json before anything is printed.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module:
//
//	bash perfbench/run.sh --workload light-day --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run reports: the correctness verdict, the
// operations it attempted and how many failed, and its metric values by
// name (units come from the metric registry).
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (outcome, error){
	"light-day":       lightDay.run,
	"busy-ladder-day": busyLadderDay.run,
	"loopback":        runLoopback,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: light-day, busy-ladder-day or loopback")
	seed := fs.Int64("seed", 1, "workload seed: drives trace generation and the engine seed")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition the printed metrics must match")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (light-day, busy-ladder-day or loopback), -seconds > 0 and -trace 0|1; got %q, %g, %d\n",
			*name, *seconds, *trace)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !spec.lists(*name) {
		fmt.Fprintf(stderr, "perfbench: workload %s is not in %s\n", *name, *specPath)
		return 1
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	out, err := runner(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := render(out, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stderr, out, want)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json this program checks itself
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// lists reports whether the definition names the workload.
func (s benchSpec) lists(workload string) bool {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the result line. The workload must have produced exactly
// the metrics the definition lists, each a finite number, and each unit
// must be the one this program's registry gives the name — so a metric
// renamed on one side only fails the run instead of printing stale data.
func render(out outcome, want []specMetric) ([]byte, error) {
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(want))}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s listed in the definition was not measured", m.Name)
		}
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			return nil, fmt.Errorf("metric %s has unit %q in the definition, %q here", m.Name, m.Unit, unit)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(out.metrics) != len(want) {
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not in the definition", name)
			}
		}
	}
	return json.Marshal(res)
}

// report prints the metrics as a readable table on w.
func report(w io.Writer, out outcome, want []specMetric) {
	names := make([]string, 0, len(want))
	for _, m := range want {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, out.metrics[n], units[n])
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", out.correct, out.attempted, out.failed)
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
