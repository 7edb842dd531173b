package main

import (
	"sort"
	"sync"
	"time"

	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
)

// Timing decorators for the two interfaces sim.Run drives: noc.Network
// (router Step) and sim.Workload (traffic generation or trace replay).
//
// A clock read on the two-vCPU VM this was tuned on costs ~70 ns, more than
// a small router's whole Step, so timing every call would measure the clock.
// The decorators count every call but time only a pseudo-random
// 1/sampleEvery of them, subtract the clock's own cost from each timed
// sample, and scale the timed total by calls/timed. Random (not strided)
// sampling keeps the estimate unbiased when call costs repeat with the PE
// index.

// sampleEvery is the sampling period; a power of two.
const sampleEvery = 16

// callStat accumulates one method's sampled timings.
type callStat struct {
	calls, timed int64
	ns           int64
}

// estimate is the scaled total wall time of all calls.
func (c callStat) estimate() time.Duration {
	if c.timed == 0 {
		return 0
	}
	return time.Duration(float64(c.ns) * float64(c.calls) / float64(c.timed))
}

// sampler decides which calls to time.
type sampler struct {
	state uint64
	clock clockCost
}

func newSampler(seed uint64) *sampler {
	return &sampler{state: seed | 1, clock: calibrateClock()}
}

// clockCost splits the cost of one time.Now/time.Since pair: inside is the
// part that lands in the measured interval (subtracted from every sample),
// outside the rest, which the enclosing sim.Run pays once per timed call.
type clockCost struct {
	inside, outside int64
}

// calibrateClock measures the clock pair once per process: the median over
// 15 rounds of the smallest empty interval and of the mean pair cost.
var calibrateClock = sync.OnceValue(func() clockCost {
	const rounds, pairs = 15, 200
	var in, pair [rounds]int64
	for i := range in {
		var min int64 = 1 << 62
		start := time.Now()
		for k := 0; k < pairs; k++ {
			t0 := time.Now()
			if d := time.Since(t0).Nanoseconds(); d < min {
				min = d
			}
		}
		in[i], pair[i] = min, time.Since(start).Nanoseconds()/pairs
	}
	return clockCost{inside: medianInt64(in[:]), outside: medianInt64(pair[:]) - medianInt64(in[:])}
})

func medianInt64(v []int64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	return s[len(s)/2]
}

// take reports whether to time the next call (xorshift64).
func (s *sampler) take() bool {
	x := s.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.state = x
	return x&(sampleEvery-1) == 0
}

// record adds one timed sample, net of the clock's own cost.
func (s *sampler) record(c *callStat, t0 time.Time) {
	d := time.Since(t0).Nanoseconds() - s.clock.inside
	if d < 0 {
		d = 0
	}
	c.ns += d
	c.timed++
}

// timedNet decorates a noc.Network, timing Step and counting idle cycles
// (nothing offered, nothing in flight when Step is called).
type timedNet struct {
	noc.Network
	s      *sampler
	step   callStat
	idle   int64
	offers int
}

func (n *timedNet) Offer(pe int, p noc.Packet) {
	n.offers++
	n.Network.Offer(pe, p)
}

func (n *timedNet) Step(now int64) {
	if n.offers == 0 && n.Network.InFlight() == 0 {
		n.idle++
	}
	n.offers = 0
	n.step.calls++
	if !n.s.take() {
		n.Network.Step(now)
		return
	}
	t0 := time.Now()
	n.Network.Step(now)
	n.s.record(&n.step, t0)
}

// SetDense forwards the engine's path selection so a decorated network runs
// the same stepping path an undecorated one would.
func (n *timedNet) SetDense(dense bool) {
	if d, ok := n.Network.(interface{ SetDense(bool) }); ok {
		d.SetDense(dense)
	}
}

// timedWorkload decorates a sim.Workload; every method the engine calls in
// the cycle loop is one sampled cost center, summed into one workload total.
type timedWorkload struct {
	wl    sim.Workload
	s     *sampler
	calls callStat
}

func (w *timedWorkload) Tick(now int64) {
	w.calls.calls++
	if !w.s.take() {
		w.wl.Tick(now)
		return
	}
	t0 := time.Now()
	w.wl.Tick(now)
	w.s.record(&w.calls, t0)
}

func (w *timedWorkload) Pending(pe int, now int64) (noc.Packet, bool) {
	w.calls.calls++
	if !w.s.take() {
		return w.wl.Pending(pe, now)
	}
	t0 := time.Now()
	p, ok := w.wl.Pending(pe, now)
	w.s.record(&w.calls, t0)
	return p, ok
}

func (w *timedWorkload) Injected(pe int, now int64) {
	w.calls.calls++
	if !w.s.take() {
		w.wl.Injected(pe, now)
		return
	}
	t0 := time.Now()
	w.wl.Injected(pe, now)
	w.s.record(&w.calls, t0)
}

func (w *timedWorkload) Delivered(p noc.Packet, now int64) {
	w.calls.calls++
	if !w.s.take() {
		w.wl.Delivered(p, now)
		return
	}
	t0 := time.Now()
	w.wl.Delivered(p, now)
	w.s.record(&w.calls, t0)
}

func (w *timedWorkload) Done() bool { return w.wl.Done() }

// Unwrap lets sim.Run reach the decorated workload's own capabilities
// (observers, recovery counters) exactly as without the decorator.
func (w *timedWorkload) Unwrap() sim.Workload { return w.wl }

// timedActiveWorkload adds the ActiveSet fast path, so a decorated run offers
// from the same sparse PE set the undecorated engine would.
type timedActiveWorkload struct {
	*timedWorkload
	as sim.ActiveSet
}

func (w timedActiveWorkload) ActivePEs(buf []int) []int {
	w.calls.calls++
	if !w.s.take() {
		return w.as.ActivePEs(buf)
	}
	t0 := time.Now()
	buf = w.as.ActivePEs(buf)
	w.s.record(&w.calls, t0)
	return buf
}

// layerTimes is one decorated run's breakdown.
type layerTimes struct {
	Run      time.Duration // sim.Run wall clock (one clock pair per run)
	Step     time.Duration // estimated router Step total
	Workload time.Duration // estimated workload total
	Clock    time.Duration // clock reads of the timed calls, outside their samples
	Cycles   int64
	Idle     int64 // idle cycles seen by Step
	Steps    int64 // Step calls
}

// Self is sim.Run's own time: the run minus its Step, workload and clock
// children. It still holds the decorators' per-call forwarding cost.
func (lt layerTimes) Self() time.Duration {
	return lt.Run - lt.Step - lt.Workload - lt.Clock
}

// runTimed runs net against wl through sim.Run with both decorators attached.
func runTimed(net noc.Network, wl sim.Workload, opts sim.Options) (sim.Result, layerTimes, error) {
	s := newSampler(0x9e3779b97f4a7c15)
	tn := &timedNet{Network: net, s: s}
	tw := &timedWorkload{wl: wl, s: s}
	var dwl sim.Workload = tw
	if as, ok := wl.(sim.ActiveSet); ok {
		dwl = timedActiveWorkload{timedWorkload: tw, as: as}
	}
	t0 := time.Now()
	res, err := sim.Run(tn, dwl, opts)
	lt := layerTimes{
		Run:      time.Since(t0),
		Step:     tn.step.estimate(),
		Workload: tw.calls.estimate(),
		Clock:    time.Duration((tn.step.timed + tw.calls.timed) * s.clock.outside),
		Cycles:   res.Cycles,
		Idle:     tn.idle,
		Steps:    tn.step.calls,
	}
	return res, lt, err
}
