package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// rateSystem builds a one-disk system sized for rates (nil: the paper's
// uniform-rate config) over the paper's six MPEG-1 titles.
func rateSystem(t *testing.T, rates []si.BitRate, adapt *AdaptConfig) (*System, error) {
	t.Helper()
	lib, err := catalog.New(catalog.Config{
		Titles: 6, Disks: 1, Spec: diskmodel.Barracuda9LP(), PopularityTheta: 0.271,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Clock:     NewVirtualClock(),
		Allocator: DynamicAllocator{},
		Method:    sched.NewMethod(sched.RoundRobin),
		Spec:      diskmodel.Barracuda9LP(),
		CR:        si.Mbps(1.5),
		Rates:     rates,
		Adapt:     adapt,
		Alpha:     1,
		TLog:      si.Minutes(40),
		Library:   lib,
	})
}

// loadedDisk fills rateSystem's disk with 24 arrivals cycling through
// the rates, leaving it mid-day with a loaded in-service population.
func loadedDisk(t *testing.T, rates []si.BitRate) *Disk {
	t.Helper()
	sys, err := rateSystem(t, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc := sys.Clock().(*VirtualClock)
	for i := 0; i < 24; i++ {
		vc.Run(si.Seconds(i * 2))
		req := workload.Request{
			ID: i, Arrival: si.Seconds(i * 2), Video: i % 6, Disk: 0,
			Viewing: si.Minutes(30),
		}
		if len(rates) > 0 {
			req.Rate = rates[i%len(rates)]
		}
		sys.OnArrival(req)
	}
	vc.Run(si.Seconds(120))
	d := sys.Disk(0)
	if d.InService() < 12 {
		t.Fatalf("only %d streams in service, want a loaded disk", d.InService())
	}
	return d
}

// multiRateDisk is loadedDisk on a three-rung ladder: a mixed-rate
// in-service population.
func multiRateDisk(t *testing.T) *Disk {
	t.Helper()
	return loadedDisk(t, []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)})
}

// The rate-aware planning path runs on every fill of every stream: the
// per-scheme PlanSize bound over the rates actually in service must stay
// allocation-free at steady state, closures included — on a mixed-rate
// ladder and on the uniform-rate config, the paper's regime, which runs
// the same path as its one-context case.
func TestMultiRatePlanSizeAllocFree(t *testing.T) {
	fixtures := []struct {
		name string
		d    *Disk
	}{
		{"ladder", multiRateDisk(t)},
		{"uniform", loadedDisk(t, nil)},
	}
	allocators := []Allocator{
		StaticAllocator{}, DynamicAllocator{}, NaiveAllocator{}, DybaseAllocator{},
	}
	for _, f := range fixtures {
		d, n := f.d, f.d.InService()
		for _, a := range allocators {
			a.PlanSize(d, n) // warm the lazily memoized per-rate tables
		}
		for _, a := range allocators {
			allocs := testing.AllocsPerRun(1000, func() {
				_ = a.PlanSize(d, n)
			})
			if allocs != 0 {
				t.Errorf("%s: %T.PlanSize allocates %v objects/op, want 0", f.name, a, allocs)
			}
		}
	}
}

// A uniform-rate config is the one-context case of the per-rate sizing
// path: no Rates, Rates = [CR] and a duplicated [CR, CR] all build
// exactly the base context, every stream carries it, and — with no lower
// rung to switch to — mid-stream adaptation stays rejected.
func TestUniformConfigBuildsOneContext(t *testing.T) {
	cr := si.Mbps(1.5)
	for _, rates := range [][]si.BitRate{nil, {cr}, {cr, cr}} {
		sys, err := rateSystem(t, rates, nil)
		if err != nil {
			t.Fatalf("Rates %v: %v", rates, err)
		}
		if len(sys.ctxs) != 1 || sys.ctxs[0].rate != cr || sys.ctxs[0].params != sys.Params() {
			t.Errorf("Rates %v: %d contexts (first %+v), want the one base context", rates, len(sys.ctxs), sys.ctxs[0])
		}
		if sys.AdmitCap() != sys.Params().N {
			t.Errorf("Rates %v: admit cap %d, want N = %d", rates, sys.AdmitCap(), sys.Params().N)
		}
		sys.OnArrival(workload.Request{ID: 1, Video: 0, Disk: 0, Viewing: si.Minutes(10)})
		if d := sys.Disk(0); d.InService() != 1 || d.Streams()[0].ctx != sys.ctxs[0] {
			t.Errorf("Rates %v: the admitted stream does not carry the base context", rates)
		}
		if _, err := rateSystem(t, rates, &AdaptConfig{}); err == nil {
			t.Errorf("Rates %v: Adapt on a one-context system accepted", rates)
		}
	}
}

// The multi-rate admission test — count cap, bandwidth cap, ladder
// walk — also runs per arrival and must not allocate.
func TestMultiRateFitsRateAllocFree(t *testing.T) {
	d := multiRateDisk(t)
	rates := []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, r := range rates {
			_ = d.fitsRate(r)
		}
	})
	if allocs != 0 {
		t.Errorf("fitsRate allocates %v objects/op, want 0", allocs)
	}
}
