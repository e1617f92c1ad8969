package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// The loopback workload: an in-process serve.Server — dynamic scheme,
// jitter compensation on, time compressed 1200x, two disk shards — driven
// by loopbackViewers persistent keep-alive viewers over loopback TCP. It
// is a closed loop: each viewer sends its next WATCH only after it has
// received and verified every byte of the previous viewing. The seed
// picks each viewing's title and seeds the server's disks.
const (
	loopbackViewers = 2
	loopbackScale   = 1200
	loopbackDisks   = 2
	watchSeconds    = 5
	// watchBytes is what a WATCH 5 delivers: 5 s of the 1.5 Mbps stream.
	watchBytes = 937_500
	// drainTimeout bounds the wait for the server to retire the last
	// viewings' streams after the clients stop.
	drainTimeout = 5 * time.Second
)

// loopbackRig is one stood-up server with its connected viewers.
type loopbackRig struct {
	srv     *serve.Server
	ln      net.Listener
	served  chan struct{} // closed when Serve returns
	viewers []*viewer
}

func newLoopbackRig(seed int64) (*loopbackRig, error) {
	srv, err := serve.New(serve.Config{Scale: loopbackScale, Disks: loopbackDisks, Seed: seed, JitterComp: true})
	if err != nil {
		return nil, fmt.Errorf("building the server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("listening: %w", err)
	}
	rig := &loopbackRig{srv: srv, ln: ln, served: make(chan struct{})}
	go func() {
		defer close(rig.served)
		srv.Serve(ln)
	}()
	titles := 6 * loopbackDisks
	for i := 0; i < loopbackViewers; i++ {
		v, err := dialViewer(ln.Addr().String(), rand.New(rand.NewSource(seed*7919+int64(i))), titles)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.viewers = append(rig.viewers, v)
	}
	return rig, nil
}

// warm runs one viewing per viewer so both sides' pools hold their
// steady-state population before timing. It is not part of setup_s: a
// viewing is paced by its content (5 s at 1200x), so it would add a fixed
// 4 ms per viewer of waiting, not set-up work.
func (r *loopbackRig) warm() error {
	for _, v := range r.viewers {
		if err := v.session(nil); err != nil {
			return fmt.Errorf("warm-up viewing: %w", err)
		}
	}
	return nil
}

// close disconnects the viewers, stops accepting, waits for Serve to
// return and stops the server's clock.
func (r *loopbackRig) close() {
	for _, v := range r.viewers {
		v.conn.Close()
	}
	r.ln.Close()
	<-r.served
	r.srv.Stop()
}

// viewer is one persistent client connection.
type viewer struct {
	conn   net.Conn
	r      *bufio.Reader
	rng    *rand.Rand
	titles int
	cmd    []byte
	hdr    [4]byte
	buf    []byte
}

func dialViewer(addr string, rng *rand.Rand, titles int) (*viewer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing the server: %w", err)
	}
	return &viewer{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), rng: rng, titles: titles,
		buf: make([]byte, 64<<10)}, nil
}

// stamps are one viewer's per-viewing measurements, in seconds.
type stamps struct {
	admitReply []float64 // WATCH write to the OK line
	firstFrame []float64 // OK line to the first frame header
	firstByte  []float64 // WATCH write to the first frame header
	ok         int       // viewings completed and verified
}

var errRefused = errors.New("viewing refused")

var zeros [64 << 10]byte

// session runs one viewing and verifies it: the reply is OK, and the
// frames carry exactly watchBytes bytes of the server's all-zero filler.
// st, when non-nil, receives the viewing's stamps.
func (v *viewer) session(st *stamps) error {
	v.cmd = append(v.cmd[:0], "WATCH "...)
	v.cmd = strconv.AppendInt(v.cmd, watchSeconds, 10)
	v.cmd = append(v.cmd, ' ')
	v.cmd = strconv.AppendInt(v.cmd, int64(v.rng.Intn(v.titles)), 10)
	v.cmd = append(v.cmd, '\n')
	t0 := time.Now()
	if _, err := v.conn.Write(v.cmd); err != nil {
		return err
	}
	status, err := v.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	t1 := time.Now()
	if !bytes.HasPrefix(status, []byte("OK ")) {
		return fmt.Errorf("%w: %q", errRefused, bytes.TrimSpace(status))
	}
	var total, frames int64
	for {
		if _, err := io.ReadFull(v.r, v.hdr[:]); err != nil {
			return err
		}
		if frames == 0 && st != nil {
			t2 := time.Now()
			st.admitReply = append(st.admitReply, t1.Sub(t0).Seconds())
			st.firstFrame = append(st.firstFrame, t2.Sub(t1).Seconds())
			st.firstByte = append(st.firstByte, t2.Sub(t0).Seconds())
		}
		n := int64(binary.BigEndian.Uint32(v.hdr[:]))
		if n == 0 {
			break
		}
		frames++
		total += n
		for rem := n; rem > 0; {
			c := int64(len(v.buf))
			if c > rem {
				c = rem
			}
			if _, err := io.ReadFull(v.r, v.buf[:c]); err != nil {
				return err
			}
			if !bytes.Equal(v.buf[:c], zeros[:c]) {
				return fmt.Errorf("viewing delivered non-filler bytes")
			}
			rem -= c
		}
	}
	if total != watchBytes {
		return fmt.Errorf("viewing delivered %d bytes, want %d", total, watchBytes)
	}
	if st != nil {
		st.ok++
	}
	return nil
}

// loopbackPhase is what one timed stretch of viewings measured.
type loopbackPhase struct {
	st       stamps
	sessions int
	failed   int
	elapsed  time.Duration
	cpu      time.Duration
	allocB   uint64
	mallocs  uint64
	lagMS    []float64 // sampled shard wakeup lag
	compMS   []float64 // sampled shard jitter compensation
}

// drive runs the viewers in a closed loop for d and gathers their stamps.
func (r *loopbackRig) drive(d time.Duration) loopbackPhase {
	var ph loopbackPhase
	per := make([]stamps, len(r.viewers))
	fails := make([]int, len(r.viewers))
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i := 0; i < loopbackDisks; i++ {
					sh := r.srv.Clock().Shard(i)
					ph.lagMS = append(ph.lagMS, float64(sh.WakeupLag())/1e6)
					ph.compMS = append(ph.compMS, float64(sh.Compensation())/1e6)
				}
			}
		}
	}()
	b0, m0 := heapCounters()
	c0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i, v := range r.viewers {
		wg.Add(1)
		go func(i int, v *viewer) {
			defer wg.Done()
			for time.Since(start) < d {
				if err := v.session(&per[i]); err != nil {
					fails[i]++
					logf("viewer %d: %v", i, err)
					if !errors.Is(err, errRefused) {
						return // the connection is unusable
					}
				}
			}
		}(i, v)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - c0
	b1, m1 := heapCounters()
	ph.allocB, ph.mallocs = b1-b0, m1-m0
	close(stop)
	<-sampled
	for i := range per {
		p := &per[i]
		ph.st.admitReply = append(ph.st.admitReply, p.admitReply...)
		ph.st.firstFrame = append(ph.st.firstFrame, p.firstFrame...)
		ph.st.firstByte = append(ph.st.firstByte, p.firstByte...)
		ph.sessions += p.ok
		ph.failed += fails[i]
	}
	return ph
}

// drained waits for the server to retire every stream and booking, and
// checks its tallies reconcile: nothing refused, every admission departed.
func (r *loopbackRig) drained() error {
	deadline := time.Now().Add(drainTimeout)
	for {
		c := r.srv.Counters()
		if c.InService == 0 && c.Book == 0 {
			if c.Rejected != 0 || c.Admitted != c.Departed {
				return fmt.Errorf("server tallies do not reconcile: %+v", c)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still busy %v after the viewers stopped: %+v", drainTimeout, c)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runLoopback runs the loopback workload.
func runLoopback(o options) (outcome, error) {
	var rig *loopbackRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newLoopbackRig(o.seed); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	if err := rig.warm(); err != nil {
		return outcome{}, err
	}

	base := rig.srv.Metrics().Snapshot().Totals // the warm-up viewings
	run := time.Duration(o.seconds * float64(time.Second))
	var phases []loopbackPhase
	var cpu cpuProfile
	if o.trace {
		// Half the time untraced, half under the CPU profiler: the rate
		// difference is the tracing overhead.
		phases = append(phases, rig.drive(run/2))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return outcome{}, fmt.Errorf("starting the CPU profile: %w", err)
		}
		phases = append(phases, rig.drive(run-run/2))
		pprof.StopCPUProfile()
		if err := cpu.add(prof.Bytes()); err != nil {
			return outcome{}, err
		}
	} else {
		phases = append(phases, rig.drive(run))
	}

	out := outcome{metrics: make(map[string]float64)}
	var all loopbackPhase
	for _, ph := range phases {
		all.st.admitReply = append(all.st.admitReply, ph.st.admitReply...)
		all.st.firstFrame = append(all.st.firstFrame, ph.st.firstFrame...)
		all.st.firstByte = append(all.st.firstByte, ph.st.firstByte...)
		all.sessions += ph.sessions
		all.failed += ph.failed
		all.elapsed += ph.elapsed
		all.cpu += ph.cpu
		all.allocB += ph.allocB
		all.mallocs += ph.mallocs
		all.lagMS = append(all.lagMS, ph.lagMS...)
		all.compMS = append(all.compMS, ph.compMS...)
	}
	out.attempted = all.sessions + all.failed
	out.failed = all.failed
	out.correct = all.failed == 0 && all.sessions > 0
	if err := rig.drained(); err != nil {
		logf("%v", err)
		out.correct = false
	}
	snap := rig.srv.Metrics().Snapshot()
	tot := snap.Totals
	underruns, deferred := tot.Underruns-base.Underruns, tot.Deferred-base.Deferred
	starved, departed := tot.StarvedStreams-base.StarvedStreams, tot.Departed-base.Departed
	sessions := float64(all.sessions)
	if all.sessions == 0 {
		sessions = 1 // keep the ratios finite; correct is already false
	}
	if !o.trace {
		m := out.metrics
		m["setup_s"] = median(setups)
		m["ops_per_s"] = float64(all.sessions) / all.elapsed.Seconds()
		m["admitted_share"] = float64(all.sessions) / float64(out.attempted)
		m["startup_p90_ms"] = quantile(all.st.firstByte, 0.90) * 1e3
		return out, nil
	}
	m := perLayerZero()
	out.metrics = m
	m["serve.admit_reply_p50_ms"] = quantile(all.st.admitReply, 0.50) * 1e3
	m["serve.admit_reply_p99_ms"] = quantile(all.st.admitReply, 0.99) * 1e3
	m["serve.first_frame_p50_ms"] = quantile(all.st.firstFrame, 0.50) * 1e3
	m["serve.first_byte_p99_ms"] = quantile(all.st.firstByte, 0.99) * 1e3
	m["serve.allocs_per_session"] = float64(all.mallocs) / sessions
	m["runtime.alloc_mb_per_op"] = float64(all.allocB) / 1e6 / sessions
	m["runtime.cpu_ms_per_op"] = all.cpu.Seconds() * 1e3 / sessions
	m["runtime.max_rss_mb"] = maxRSSMB()
	m["serve.first_byte_p50_ms"] = quantile(all.st.firstByte, 0.50) * 1e3
	m["livemetrics.startup_p50_ms"] = snap.StartupP50MS
	m["livemetrics.startup_p99_ms"] = snap.StartupP99MS
	m["livemetrics.underruns_per_session"] = float64(underruns) / sessions
	m["livemetrics.defers_per_session"] = float64(deferred) / sessions
	m["livemetrics.starved_share"] = ratio(starved, departed)
	m["engine.wallclock.wakeup_lag_ms"] = median(all.lagMS)
	m["engine.wallclock.compensation_ms"] = median(all.compMS)
	untraced := float64(phases[0].sessions) / phases[0].elapsed.Seconds()
	traced := float64(phases[1].sessions) / phases[1].elapsed.Seconds()
	m["trace.overhead_share"] = untraced/traced - 1
	cpu.shares(m)
	return out, nil
}
