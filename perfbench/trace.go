package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/si"
	"repro/internal/workload"
)

// The traced run wraps each of the engine's pluggable seams — the clock
// domain, the allocator, the scheduler factory and the observer — in a
// decorator that forwards every call unchanged and records, around it, a
// span on one shared stack. A span's self time is its duration minus the
// spans nested inside it, so each layer is charged only for its own work:
// a clock callback's self time is the disk service loop (plus the simulator's
// arrival and sampling callbacks), an allocator call inside Scheduler.Next
// is charged to the allocator, not the scheduler. The virtual clock is
// single-threaded, so the stack needs no locking.

// seam identifies the layer a span is charged to.
type seam int

const (
	seamCallback   seam = iota // a clock callback: the engine's disk service loop
	seamSize                   // Allocator.Size
	seamPlan                   // Allocator.PlanSize
	seamAdmit                  // Allocator.Admit
	seamNext                   // Scheduler.Next
	seamSchedOther             // the other Scheduler methods
	seamObserver               // any Observer callback
	seamCount
)

// tally is one seam's accumulated calls and self time.
type tally struct {
	calls  int64
	selfNS int64
}

type span struct {
	start int64 // ns since the tracer's epoch
	child int64 // ns covered by spans nested inside
}

// tracer is the span stack and the per-seam tallies of one traced run.
type tracer struct {
	epoch time.Time
	stack []span
	seams [seamCount]tally

	callbackNS   int64 // full duration of the clock callbacks
	admitDenied  int64
	nextServices int64 // Scheduler.OnServiced calls: the Next results that were used
	pendingMax   int   // the clock's longest event queue seen at a callback
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) enter() { t.stack = append(t.stack, span{start: t.now()}) }

// exit closes the innermost span and charges its self time to s.
func (t *tracer) exit(s seam) {
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := t.now() - top.start
	t.seams[s].calls++
	t.seams[s].selfNS += dur - top.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	} else if s == seamCallback {
		t.callbackNS += dur
	}
}

// tracedDomain is a single-shard clock domain whose one clock times every
// callback it runs.
type tracedDomain struct {
	inner *engine.VirtualClock
	t     *tracer
	free  []*boundCall // fired boundCalls, reused so pre-bound scheduling stays cheap
}

func (c *tracedDomain) DiskClock(int) engine.Clock { return c }

func (c *tracedDomain) Now() si.Seconds { return c.inner.Now() }

func (c *tracedDomain) Schedule(at si.Seconds, fn func()) engine.Timer {
	return c.inner.Schedule(at, func() { c.call(fn) })
}

func (c *tracedDomain) After(delay si.Seconds, fn func()) engine.Timer {
	return c.inner.After(delay, func() { c.call(fn) })
}

// boundCall carries a pre-bound callback through the wrapped clock.
// Fired ones go back on the domain's freelist.
type boundCall struct {
	c   *tracedDomain
	fn  func(any)
	arg any
}

func runBound(arg any) {
	b := arg.(*boundCall)
	c, fn, a := b.c, b.fn, b.arg
	b.fn, b.arg = nil, nil
	c.free = append(c.free, b)
	c.call(func() { fn(a) })
}

func (c *tracedDomain) bind(fn func(any), arg any) *boundCall {
	var b *boundCall
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		b = new(boundCall)
	}
	b.c, b.fn, b.arg = c, fn, arg
	return b
}

func (c *tracedDomain) ScheduleFunc(at si.Seconds, fn func(any), arg any) engine.Timer {
	return c.inner.ScheduleFunc(at, runBound, c.bind(fn, arg))
}

func (c *tracedDomain) AfterFunc(delay si.Seconds, fn func(any), arg any) engine.Timer {
	return c.inner.AfterFunc(delay, runBound, c.bind(fn, arg))
}

// call runs one clock callback inside a span.
func (c *tracedDomain) call(fn func()) {
	if p := c.inner.Pending(); p > c.t.pendingMax {
		c.t.pendingMax = p
	}
	c.t.enter()
	fn()
	c.t.exit(seamCallback)
}

// tracedAllocator times the allocator's three calls.
type tracedAllocator struct {
	inner engine.Allocator
	t     *tracer
}

func (a tracedAllocator) Size(d *engine.Disk, st *engine.Stream, n int) si.Bits {
	a.t.enter()
	v := a.inner.Size(d, st, n)
	a.t.exit(seamSize)
	return v
}

func (a tracedAllocator) PlanSize(d *engine.Disk, n int) si.Bits {
	a.t.enter()
	v := a.inner.PlanSize(d, n)
	a.t.exit(seamPlan)
	return v
}

func (a tracedAllocator) Admit(d *engine.Disk, n int) bool {
	a.t.enter()
	ok := a.inner.Admit(d, n)
	a.t.exit(seamAdmit)
	if !ok {
		a.t.admitDenied++
	}
	return ok
}

// tracedScheduler times a disk's scheduler.
type tracedScheduler struct {
	inner engine.Scheduler
	t     *tracer
}

func newTracedScheduler(t *tracer) func(*engine.Disk) engine.Scheduler {
	return func(d *engine.Disk) engine.Scheduler {
		return &tracedScheduler{inner: engine.NewScheduler(d), t: t}
	}
}

func (s *tracedScheduler) Admit(st *engine.Stream) {
	s.t.enter()
	s.inner.Admit(st)
	s.t.exit(seamSchedOther)
}

func (s *tracedScheduler) Remove(st *engine.Stream) {
	s.t.enter()
	s.inner.Remove(st)
	s.t.exit(seamSchedOther)
}

func (s *tracedScheduler) CanAdmit() bool {
	s.t.enter()
	ok := s.inner.CanAdmit()
	s.t.exit(seamSchedOther)
	return ok
}

func (s *tracedScheduler) Next(now si.Seconds) (*engine.Stream, si.Seconds) {
	s.t.enter()
	st, at := s.inner.Next(now)
	s.t.exit(seamNext)
	return st, at
}

func (s *tracedScheduler) OnServiced(st *engine.Stream) {
	s.t.enter()
	s.inner.OnServiced(st)
	s.t.exit(seamSchedOther)
	s.t.nextServices++
}

// tracedObserver times every observer callback.
type tracedObserver struct {
	inner engine.Observer
	t     *tracer
}

func (o tracedObserver) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	o.t.enter()
	o.inner.OnAdmit(disk, st, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnDefer(disk int, now si.Seconds) {
	o.t.enter()
	o.inner.OnDefer(disk, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	o.t.enter()
	o.inner.OnReject(disk, req, reason, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnFill(disk int, st *engine.Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds) {
	o.t.enter()
	o.inner.OnFill(disk, st, start, dur, fill, deadline)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnFillComplete(disk int, st *engine.Stream, fill si.Bits, now si.Seconds) {
	o.t.enter()
	o.inner.OnFillComplete(disk, st, fill, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	o.t.enter()
	o.inner.OnStart(disk, st, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnStall(disk int, now si.Seconds) {
	o.t.enter()
	o.inner.OnStall(disk, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnEstimate(disk int, kc int, size si.Bits, now si.Seconds) {
	o.t.enter()
	o.inner.OnEstimate(disk, kc, size, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnEstimateResolved(disk int, hit bool, now si.Seconds) {
	o.t.enter()
	o.inner.OnEstimateResolved(disk, hit, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnUnderrun(disk int, id int, now, gap si.Seconds) {
	o.t.enter()
	o.inner.OnUnderrun(disk, id, now, gap)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	o.t.enter()
	o.inner.OnDowngrade(disk, req, from, to, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnRateSwitch(disk int, st *engine.Stream, from, to si.BitRate, now si.Seconds) {
	o.t.enter()
	o.inner.OnRateSwitch(disk, st, from, to, now)
	o.t.exit(seamObserver)
}

func (o tracedObserver) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	o.t.enter()
	o.inner.OnDepart(disk, st, now)
	o.t.exit(seamObserver)
}
