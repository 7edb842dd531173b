package traffic

import (
	"fasttrack/internal/active"
	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// synthShard is the per-shard slice of the workload state. The sequential
// workload is the single-shard special case, so both paths run the same
// code; when the engine shards the fabric, each worker owns a contiguous PE
// range and all mutable aggregate state (pending counts, quota bookkeeping,
// listings) lives here so shard ticks never touch shared words.
type synthShard struct {
	lo, hi  int // PE range [lo, hi)
	pending int // packets queued across the range
	doneGen int // PEs in range that are silent or at quota

	// listed backs the sim.ActiveSet fast path: a PE is listed when its
	// queue becomes non-empty or Injected exposes a new head, and unlisted
	// when Pending returns the head.
	listed active.List
}

// Synthetic is a sim.Workload that generates pattern traffic with Bernoulli
// arrivals: every cycle each PE creates a packet with probability Rate until
// it has generated PacketsPerPE packets. Created packets wait in an
// unbounded source queue, so measured latency includes source queueing —
// saturated networks show the hockey-stick latency curves of Fig 12.
//
// Synthetic also implements sim.ShardableWorkload: generation state is
// per-PE (seed-split RNG streams, per-PE packet sequence numbers), so
// ticking disjoint PE ranges on different workers produces bit-identical
// packets to a sequential tick.
type Synthetic struct {
	w, h      int
	rate      float64
	quota     int
	pattern   Pattern
	rngs      []*xrand.Rand
	queues    []Queue[qent]
	generated []int
	injected  []int
	silent    []bool // PEs the pattern never sources from

	sh      []synthShard
	peShard []int32 // PE index -> owning shard
}

// NewSynthetic builds a synthetic workload for a w×h network. rate is the
// per-PE injection probability per cycle (the paper's "injection rate"
// axis); quota is packets per PE (the paper uses 1000). seed fixes the
// random streams.
//
// Whether a PE is permanently silent (e.g. the TRANSPOSE diagonal) is the
// pattern's SilenceClassifier verdict, never a sampled Dest probe: a
// stochastic pattern that returns !ok on one draw merely skips that cycle.
func NewSynthetic(w, h int, pattern Pattern, rate float64, quota int, seed uint64) *Synthetic {
	n := w * h
	s := &Synthetic{
		w: w, h: h,
		rate:      rate,
		quota:     quota,
		pattern:   pattern,
		rngs:      make([]*xrand.Rand, n),
		queues:    make([]Queue[qent], n),
		generated: make([]int, n),
		injected:  make([]int, n),
		silent:    make([]bool, n),
	}
	root := xrand.New(seed)
	for pe := 0; pe < n; pe++ {
		s.rngs[pe] = root.SplitBy(uint64(pe))
		s.silent[pe] = Silent(pattern, noc.PECoord(pe, w), w, h)
	}
	s.ConfigureShards([]int{0, n})
	return s
}

// ConfigureShards implements sim.ShardableWorkload: repartition the PE space
// into len(bounds)-1 contiguous shards with shard k owning PEs
// [bounds[k], bounds[k+1]). Aggregate state (pending, quota bookkeeping,
// listings) is redistributed to the new owners; listing order is preserved
// per shard so an active walk stays deterministic. Returns false (leaving
// the workload untouched) if bounds do not partition [0, n).
func (s *Synthetic) ConfigureShards(bounds []int) bool {
	n := len(s.rngs)
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return false
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return false
		}
	}
	var listed []int
	for i := range s.sh {
		listed = s.sh[i].listed.AppendTo(listed)
	}
	ns := make([]synthShard, len(bounds)-1)
	ps := make([]int32, n)
	for k := range ns {
		ns[k].lo, ns[k].hi = bounds[k], bounds[k+1]
		ns[k].listed = active.NewList(n)
		for pe := ns[k].lo; pe < ns[k].hi; pe++ {
			ps[pe] = int32(k)
			if s.silent[pe] || s.generated[pe] >= s.quota {
				ns[k].doneGen++
			}
			ns[k].pending += s.queues[pe].Len()
		}
	}
	for _, pe := range listed {
		ns[ps[pe]].listed.List(pe)
	}
	s.sh, s.peShard = ns, ps
	return true
}

// Tick implements sim.Workload: Bernoulli generation for every PE under
// quota.
func (s *Synthetic) Tick(now int64) {
	for k := range s.sh {
		s.tickShard(&s.sh[k], now)
	}
}

// TickShard implements sim.ShardableWorkload: generation for shard k's PE
// range only. Safe to call concurrently for distinct k.
func (s *Synthetic) TickShard(k int, now int64) {
	s.tickShard(&s.sh[k], now)
}

func (s *Synthetic) tickShard(sh *synthShard, now int64) {
	for pe := sh.lo; pe < sh.hi; pe++ {
		if s.silent[pe] || s.generated[pe] >= s.quota {
			continue
		}
		if !s.rngs[pe].Bool(s.rate) {
			continue
		}
		src := noc.PECoord(pe, s.w)
		dst, ok := s.pattern.Dest(src, s.w, s.h, s.rngs[pe])
		if !ok {
			continue
		}
		q := &s.queues[pe]
		if q.Empty() {
			sh.listed.List(pe)
		}
		q.Push(qent{dst: dst, gen: now})
		sh.pending++
		s.generated[pe]++
		if s.generated[pe] == s.quota {
			sh.doneGen++
		}
	}
}

// Pending implements sim.Workload. The queue holds only each packet's
// destination and generation cycle; the ID is a per-PE (source, sequence)
// pair — the sequence half is the number of packets this PE has already
// injected plus one, since the queue is FIFO — so the ID a packet gets is
// independent of the order PEs are ticked in, and shard-parallel generation
// assigns the same IDs as a sequential pass. Quotas are bounded well below
// 2^32. Safe to call concurrently for PEs in distinct shards.
func (s *Synthetic) Pending(pe int, _ int64) (noc.Packet, bool) {
	q := &s.queues[pe]
	if q.Empty() {
		return noc.Packet{}, false
	}
	s.sh[s.peShard[pe]].listed.Unlist(pe)
	e := q.Head()
	return noc.Packet{
		ID:    (int64(pe)+1)<<32 | int64(s.injected[pe]+1),
		Src:   noc.PECoord(pe, s.w),
		Dst:   e.dst,
		Gen:   e.gen,
		Event: -1,
	}, true
}

// Injected implements sim.Workload. The dequeue touches only per-PE state
// and the owning shard's pending count and listing.
func (s *Synthetic) Injected(pe int, _ int64) {
	q := &s.queues[pe]
	q.Pop()
	s.injected[pe]++
	sh := &s.sh[s.peShard[pe]]
	sh.pending--
	if !q.Empty() {
		sh.listed.List(pe)
	}
}

// Delivered implements sim.Workload (synthetic traffic has no dependencies).
func (s *Synthetic) Delivered(noc.Packet, int64) {}

// Done implements sim.Workload.
func (s *Synthetic) Done() bool {
	for i := range s.sh {
		sh := &s.sh[i]
		if sh.doneGen != sh.hi-sh.lo || sh.pending != 0 {
			return false
		}
	}
	return true
}

// ActivePEs implements sim.ActiveSet: the PEs whose head packet is new.
func (s *Synthetic) ActivePEs(buf []int) []int {
	for k := range s.sh {
		buf = s.sh[k].listed.AppendTo(buf)
	}
	return buf
}

// ActiveShard implements sim.ShardableWorkload: listed PEs of shard k only.
// Safe to call concurrently for distinct k.
func (s *Synthetic) ActiveShard(k int, buf []int) []int {
	return s.sh[k].listed.AppendTo(buf)
}

// Generated returns the total packets created so far.
func (s *Synthetic) Generated() int64 {
	var total int64
	for _, g := range s.generated {
		total += int64(g)
	}
	return total
}
