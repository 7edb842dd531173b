package traffic

import (
	"math"

	"fasttrack/internal/active"
	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// noNext marks a PE (or instance) with no future generation event.
const noNext = math.MaxInt64

// SynthSpec is one instance of a batched synthetic workload: the per-job
// parameters of NewSynthetic. Instances in one batch share the fabric
// geometry but may differ in everything else.
type SynthSpec struct {
	Pattern Pattern
	Rate    float64
	Quota   int
	Seed    uint64
}

// qent is one queued source packet. Only the destination and generation
// cycle vary per packet — the ID is a (source, sequence) pair reconstructed
// at Pending time from the per-PE injected count, and Src is the PE — so the
// queue stores 24 bytes instead of an 80-byte noc.Packet.
type qent struct {
	dst noc.Coord
	gen int64
}

// synthInst is the per-instance aggregate state of a SyntheticBatch.
type synthInst struct {
	pattern Pattern
	rate    float64
	quota   int

	pending int // packets queued across the instance
	doneGen int // PEs that are silent or at quota

	// minNext is the earliest pending generation event across the instance's
	// PEs (noNext when generation is finished): cycles before it cannot
	// enqueue anything, so Tick returns immediately and the lockstep driver
	// may fast-forward an otherwise-idle instance straight to it.
	minNext int64

	// listed backs the sim.ActiveSet fast path, exactly like Synthetic's.
	listed active.List
}

// SyntheticBatch is B independent Synthetic workloads over one fabric
// geometry with all per-(instance, PE) state — RNG streams, event schedules,
// sequence counters, source queues — in flat batch-major arrays (index
// b*n + pe).
//
// Generation is event-driven rather than per-cycle: Bernoulli arrivals are
// open-loop (the draw sequence never depends on network state), so each PE's
// next generation event can be precomputed by replaying the per-PE RNG
// stream — the same stream NewSynthetic's per-cycle path consumes, in the
// same order — until the next successful (Bool, Dest) pair. A Tick before
// the instance's earliest event is then a no-op without touching any PE, and
// packets that do materialize are bit-identical to the per-cycle path's:
// same ID, source, destination, generation cycle.
//
// Views (View) implement sim.Workload + sim.ActiveSet per instance, plus the
// next-event probe sim's lockstep driver uses to skip idle stretches.
type SyntheticBatch struct {
	w, h, n int
	insts   []synthInst

	// Flat per-(instance, PE) state; index = instance*n + pe.
	rngs      []xrand.Rand
	nextCycle []int64     // cycle of the next committed generation event
	nextDst   []noc.Coord // its destination
	generated []int32
	injected  []int32
	silent    []bool
	queues    []Queue[qent]

	views []SynthView
}

// NewSyntheticBatch builds one workload instance per spec over a w×h fabric.
func NewSyntheticBatch(w, h int, specs []SynthSpec) *SyntheticBatch {
	n := w * h
	b := len(specs)
	s := &SyntheticBatch{
		w: w, h: h, n: n,
		insts:     make([]synthInst, b),
		rngs:      make([]xrand.Rand, b*n),
		nextCycle: make([]int64, b*n),
		nextDst:   make([]noc.Coord, b*n),
		generated: make([]int32, b*n),
		injected:  make([]int32, b*n),
		silent:    make([]bool, b*n),
		queues:    make([]Queue[qent], b*n),
		views:     make([]SynthView, b),
	}
	for bi, spec := range specs {
		in := &s.insts[bi]
		in.pattern, in.rate, in.quota = spec.Pattern, spec.Rate, spec.Quota
		in.minNext = noNext
		in.listed = active.NewList(n)
		root := xrand.New(spec.Seed)
		base := bi * n
		for pe := 0; pe < n; pe++ {
			idx := base + pe
			s.rngs[idx] = *root.SplitBy(uint64(pe))
			s.silent[idx] = Silent(spec.Pattern, noc.PECoord(pe, w), w, h)
			if s.silent[idx] || in.quota <= 0 {
				in.doneGen++
				s.nextCycle[idx] = noNext
				continue
			}
			s.advance(bi, pe, -1)
			if nc := s.nextCycle[idx]; nc < in.minNext {
				in.minNext = nc
			}
		}
		s.views[bi] = SynthView{sb: s, b: bi, base: base}
	}
	return s
}

// advance replays PE (b, pe)'s RNG stream from cycle after+1 until the next
// committed generation event, mirroring Synthetic.tickShard's per-cycle
// draws: one Bool(rate) per cycle (which consumes nothing at rate ≥ 1 or
// ≤ 0), then a Dest probe on success, with a !ok probe consuming its draws
// and skipping the cycle. The caller must have ruled out silent PEs and
// exhausted quotas.
func (s *SyntheticBatch) advance(b, pe int, after int64) {
	idx := b*s.n + pe
	in := &s.insts[b]
	if int(s.generated[idx]) >= in.quota || in.rate <= 0 {
		s.nextCycle[idx] = noNext
		return
	}
	rng := &s.rngs[idx]
	src := noc.PECoord(pe, s.w)
	for cyc := after + 1; ; cyc++ {
		if !rng.Bool(in.rate) {
			continue
		}
		dst, ok := in.pattern.Dest(src, s.w, s.h, rng)
		if !ok {
			continue
		}
		s.nextCycle[idx] = cyc
		s.nextDst[idx] = dst
		return
	}
}

// View returns instance b's sim.Workload facade.
func (s *SyntheticBatch) View(b int) *SynthView { return &s.views[b] }

// Size returns the instance count.
func (s *SyntheticBatch) Size() int { return len(s.insts) }

// SynthView adapts one SyntheticBatch instance to sim.Workload +
// sim.ActiveSet. Obtain with SyntheticBatch.View.
type SynthView struct {
	sb   *SyntheticBatch
	b    int
	base int
}

// Tick implements sim.Workload: enqueue every PE whose precomputed event
// fires this cycle. Cycles before the instance's earliest event return
// without touching per-PE state.
func (v *SynthView) Tick(now int64) {
	s := v.sb
	in := &s.insts[v.b]
	if now < in.minNext {
		return
	}
	min := int64(noNext)
	for pe := 0; pe < s.n; pe++ {
		idx := v.base + pe
		nc := s.nextCycle[idx]
		if nc == now {
			q := &s.queues[idx]
			if q.Empty() {
				in.listed.List(pe)
			}
			q.Push(qent{dst: s.nextDst[idx], gen: now})
			in.pending++
			s.generated[idx]++
			if int(s.generated[idx]) == in.quota {
				in.doneGen++
			}
			s.advance(v.b, pe, now)
			nc = s.nextCycle[idx]
		}
		if nc < min {
			min = nc
		}
	}
	in.minNext = min
}

// Pending implements sim.Workload, reconstructing the head packet exactly as
// Synthetic enqueued it: the ID's sequence half is the number of packets
// this PE has already injected plus one (queues are FIFO, so the head is
// always the oldest undelivered sequence number).
func (v *SynthView) Pending(pe int, _ int64) (noc.Packet, bool) {
	s := v.sb
	idx := v.base + pe
	q := &s.queues[idx]
	if q.Empty() {
		return noc.Packet{}, false
	}
	s.insts[v.b].listed.Unlist(pe)
	e := q.Head()
	return noc.Packet{
		ID:    (int64(pe)+1)<<32 | int64(s.injected[idx]+1),
		Src:   noc.PECoord(pe, s.w),
		Dst:   e.dst,
		Gen:   e.gen,
		Event: -1,
	}, true
}

// Injected implements sim.Workload.
func (v *SynthView) Injected(pe int, _ int64) {
	s := v.sb
	idx := v.base + pe
	q := &s.queues[idx]
	q.Pop()
	s.injected[idx]++
	in := &s.insts[v.b]
	in.pending--
	if !q.Empty() {
		in.listed.List(pe)
	}
}

// Delivered implements sim.Workload (synthetic traffic has no dependencies).
func (v *SynthView) Delivered(noc.Packet, int64) {}

// Done implements sim.Workload.
func (v *SynthView) Done() bool {
	in := &v.sb.insts[v.b]
	return in.doneGen == v.sb.n && in.pending == 0
}

// ActivePEs implements sim.ActiveSet: the PEs whose head packet is new.
func (v *SynthView) ActivePEs(buf []int) []int {
	return v.sb.insts[v.b].listed.AppendTo(buf)
}

// NextEventCycle implements sim.EventWorkload: the earliest cycle at which
// Tick can enqueue new work, or math.MaxInt64 when generation is finished.
func (v *SynthView) NextEventCycle(int64) int64 { return v.sb.insts[v.b].minNext }

// QueueEmpty implements sim.EventWorkload: no PE of this instance holds a
// queued packet.
func (v *SynthView) QueueEmpty() bool { return v.sb.insts[v.b].pending == 0 }
