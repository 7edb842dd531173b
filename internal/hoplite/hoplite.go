// Package hoplite implements the baseline Hoplite NoC (Kapre & Gray, FPL
// 2015 / TRETS 2017): a bufferless, deflection-routed 2-D unidirectional
// torus with dimension-ordered (X-then-Y) routing and the HopliteRT static
// turn prioritization the FastTrack paper builds on.
//
// Each router has two network inputs (W from the west neighbour, N from the
// north neighbour), one client injection port (PE), and two outputs (E, S).
// The NoC exit is shared with the S output driver, so a delivery consumes
// the S port for that cycle. Arbitration is static:
//
//	W input wins always (turning W→S traffic preempts N→S traffic),
//	N input is deflected east when W takes the S port,
//	PE injection happens only into an output left idle by network traffic.
//
// This static scheme is livelock-free: a deflected N packet circles its X
// ring exactly once and returns as a W packet, which is never deflected.
package hoplite

import (
	"fmt"
	"math/bits"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// slot is a link register: a packet plus a valid bit.
type slot struct {
	p  noc.Packet
	ok bool
}

// shardCtx is the per-shard slice of the network's mutable aggregate state.
// The sequential engine is the single-shard special case — sh[0] covers the
// whole fabric — so both paths execute the same routing code. When the
// fabric is sharded (ConfigureShards), each StepShard worker touches only
// its own shardCtx plus link-register elements it is the unique driver of,
// which keeps the parallel step free of shared mutable words.
type shardCtx struct {
	k      int
	lo, hi int // router index range [lo, hi)

	// Masked word range of [lo, hi) for iterating the curBits occupancy set.
	loWord, hiWord int
	loMask, hiMask uint64

	// next collects activity marks for the following cycle. It is full
	// fabric sized: routing in this shard may wake routers across the shard
	// boundary, and those marks land here (the marker's own array) rather
	// than in the target shard's, so no two workers ever share a word.
	// BeginCycle ORs every shard's next into curBits.
	next []uint64

	counters    noc.Counters
	delivered   []noc.Packet
	acceptedPEs []int
	inFlight    int // per-shard delta; can go negative, the sum is real

	// Sharded-pool allocation state: the shard allocates from its arena
	// [cursor, limit) when its free list is empty. freed collects slots
	// recycled this cycle; EndCycle routes each back to the arena owner's
	// free list. The single-shard path uses free directly and grows the
	// pool by append instead of from an arena.
	free   []int32
	freed  []int32
	cursor int32
	limit  int32

	// obs receives this shard's telemetry events during routing; now mirrors
	// the current cycle so forwarding helpers without a now parameter can
	// stamp events. Sequentially this aliases the network observer; sharded
	// stepping installs per-shard buffers via SetShardObservers.
	obs telemetry.Observer
	now int64
}

// mark queues router i for routing on the next Step.
func (sh *shardCtx) mark(i int) { sh.next[i>>6] |= 1 << (uint(i) & 63) }

// Network is a W×H Hoplite torus. Create with New; the zero value is not
// usable.
type Network struct {
	w, h int

	// Link registers indexed by destination-router index (y*w + x): wIn is
	// what arrives on the W input this cycle, nIn on the N input. These
	// full-packet registers belong to the dense reference path; the sparse
	// fast path routes pool indices instead (see wInR below).
	wIn, nIn []slot
	// Output staging for the current Step (dense path).
	eOut, sOut []slot

	// Sparse-path link registers: each register holds an index into pool
	// (-1 when empty) so a hop moves 4 bytes instead of an 80-byte slot.
	// Packets live in pool from injection to delivery and are mutated in
	// place; recycling goes through the per-shard free lists. The registers
	// are double buffered — wInR/nInR are read (and consumed) by the current
	// cycle while wInRN/nInRN collect what latches for the next cycle, so
	// routing writes downstream registers directly with no staging arrays
	// and no separate latch pass. Each link has exactly one driver, so a
	// register element is written at most once per cycle — which is also
	// what makes the sharded step race-free at the boundary rows. Only one
	// representation is ever in use per network instance — SetDense selects
	// before the first Step.
	wInR, nInR   []int32
	wInRN, nInRN []int32
	pool         []noc.Packet

	offers   []slot
	accepted []bool

	// sh holds the per-shard state; len(sh) == 1 until ConfigureShards.
	// shardOf maps a router index to its owning shard, nil when single.
	sh      []shardCtx
	shardOf []int32
	arena   int32 // per-shard arena size when sharded

	// curBits is the occupancy set the current Step iterates: routers that
	// must route — a packet was latched onto one of their inputs, or a
	// client offer is pending. The per-shard next arrays double-buffer it.
	curBits []uint64

	// Merged views for the sharded accessors; unused when single-shard.
	mergedDelivered []noc.Packet
	mergedAccepted  []int
	mergedCounters  noc.Counters

	// dense selects the reference stepping path that clears and routes
	// every router every cycle; see SetDense.
	dense bool

	// obs, when non-nil, receives telemetry events. Every emission site is
	// guarded by a single nil check.
	obs telemetry.Observer

	// exitGate, when non-nil, is consulted before delivering at PE pe; a
	// false return blocks the exit for this cycle and the packet deflects.
	// Multi-channel wrappers use it to share one client port across
	// channels.
	exitGate func(pe int) bool
}

// SetExitGate installs an exit arbiter; see the exitGate field.
func (nw *Network) SetExitGate(gate func(pe int) bool) { nw.exitGate = gate }

// SetObserver attaches a telemetry observer (nil detaches); see the obs
// field. sim.Run attaches Options.Observer through this.
func (nw *Network) SetObserver(o telemetry.Observer) { nw.obs = o }

// SetShardObservers implements telemetry.ShardObservable: obs[k] receives
// the router events StepShard(k) emits. Ignored by sequential stepping.
func (nw *Network) SetShardObservers(obs []telemetry.Observer) {
	for k := range nw.sh {
		if obs == nil || k >= len(obs) {
			nw.sh[k].obs = nil
		} else {
			nw.sh[k].obs = obs[k]
		}
	}
}

func (nw *Network) canExit(pe int) bool { return nw.exitGate == nil || nw.exitGate(pe) }

// New returns an idle W×H Hoplite network. Both dimensions must be at
// least 2 (a 1-wide ring has no distinct neighbour registers).
func New(w, h int) (*Network, error) { return newNet(w, h, nil) }

// newNet is New with an optional batch arena: when ar is non-nil the sparse
// hot-path arrays are carved out of the arena's batch-major slabs instead of
// allocated individually; see batch.go. The dense reference arrays always
// come from plain allocations — batch instances never run the dense path.
func newNet(w, h int, ar *batchArena) (*Network, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("hoplite: dimensions %dx%d too small (need at least 2x2)", w, h)
	}
	n := w * h
	words := (n + 63) / 64
	nw := &Network{
		w: w, h: h,
		wIn: make([]slot, n), nIn: make([]slot, n),
		eOut: make([]slot, n), sOut: make([]slot, n),
		wInR: ar.int32s(n), nInR: ar.int32s(n),
		wInRN: ar.int32s(n), nInRN: ar.int32s(n),
		offers:   ar.slots(n),
		accepted: ar.bools(n),
		curBits:  ar.words(words),
	}
	for i := 0; i < n; i++ {
		nw.wInR[i], nw.nInR[i] = -1, -1
		nw.wInRN[i], nw.nInRN[i] = -1, -1
	}
	nw.pool = ar.packets(poolBound(w, h))
	nw.sh = makeShards(1, w, h, ar)
	return nw, nil
}

// poolBound is the packet-pool occupancy bound for one instance: the
// register population (2n) plus a cycle of fresh injections and
// not-yet-recycled frees — the formula ConfigureShards sizes arenas with.
func poolBound(w, h int) int { return 3*w*h + 64 }

// Reset restores the network to the idle state New leaves it in, keeping
// every backing array (and its capacity) so a recycled instance re-runs a
// job without reallocating. The result of a run on a Reset network is
// bit-identical to a run on a fresh one: the only state that survives is
// slice capacity, which routing never observes.
func (nw *Network) Reset() {
	for i := range nw.wInR {
		nw.wInR[i], nw.nInR[i] = -1, -1
		nw.wInRN[i], nw.nInRN[i] = -1, -1
	}
	clear(nw.wIn)
	clear(nw.nIn)
	clear(nw.eOut)
	clear(nw.sOut)
	clear(nw.offers)
	clear(nw.accepted)
	clear(nw.curBits)
	nw.pool = nw.pool[:0]
	if len(nw.sh) != 1 {
		// A previously sharded instance drops back to the single-shard
		// layout New builds (its pool was arena-partitioned and is gone).
		nw.sh = makeShards(1, nw.w, nw.h, nil)
	} else {
		s0 := &nw.sh[0]
		clear(s0.next)
		s0.counters = noc.Counters{}
		s0.delivered = s0.delivered[:0]
		s0.acceptedPEs = s0.acceptedPEs[:0]
		s0.inFlight = 0
		s0.free = s0.free[:0]
		s0.freed = s0.freed[:0]
		s0.cursor, s0.limit = 0, 0
		s0.obs = nil
		s0.now = 0
	}
	nw.shardOf = nil
	nw.arena = 0
	nw.mergedDelivered = nw.mergedDelivered[:0]
	nw.mergedAccepted = nw.mergedAccepted[:0]
	nw.mergedCounters = noc.Counters{}
	nw.dense = false
	nw.obs = nil
	nw.exitGate = nil
}

// makeShards builds s row-band shard contexts over a w×h fabric: shard k
// owns rows [k*h/s, (k+1)*h/s), i.e. the contiguous router range
// [row*w, endRow*w). Concatenating the shards' outputs in ascending k is
// therefore identical to a row-major scan of the whole fabric. ar is the
// optional batch arena the single-shard bit arrays are carved from.
func makeShards(s, w, h int, ar *batchArena) []shardCtx {
	n := w * h
	words := (n + 63) / 64
	sh := make([]shardCtx, s)
	for k := 0; k < s; k++ {
		lo := (k * h / s) * w
		hi := ((k + 1) * h / s) * w
		c := &sh[k]
		c.k, c.lo, c.hi = k, lo, hi
		c.loWord, c.hiWord = lo>>6, (hi+63)>>6
		c.loMask = ^uint64(0) << (uint(lo) & 63)
		c.hiMask = ^uint64(0)
		if r := uint(hi) & 63; r != 0 {
			c.hiMask = (uint64(1) << r) - 1
		}
		c.next = ar.words(words)
	}
	return sh
}

// ConfigureShards implements noc.ShardedNetwork: partition the fabric into
// s row-band shards. s is clamped to the row count; 1 restores sequential
// stepping. The network must be idle (configure before the first Step); the
// dense reference path and exit-gated (multi-channel) instances cannot
// shard.
func (nw *Network) ConfigureShards(s int) (int, error) {
	if s < 1 {
		return 0, fmt.Errorf("hoplite: shard count %d < 1", s)
	}
	if nw.dense {
		return 0, fmt.Errorf("hoplite: dense reference path cannot shard")
	}
	if nw.exitGate != nil {
		return 0, fmt.Errorf("hoplite: exit-gated (multi-channel) network cannot shard")
	}
	if nw.InFlight() != 0 {
		return 0, fmt.Errorf("hoplite: cannot reconfigure shards with %d packets in flight", nw.InFlight())
	}
	if s > nw.h {
		s = nw.h
	}
	n := nw.w * nw.h
	nw.sh = makeShards(s, nw.w, nw.h, nil)
	if s == 1 {
		nw.shardOf = nil
		nw.arena = 0
		nw.pool = nil
		return 1, nil
	}
	nw.shardOf = make([]int32, n)
	for k := range nw.sh {
		for i := nw.sh[k].lo; i < nw.sh[k].hi; i++ {
			nw.shardOf[i] = int32(k)
		}
	}
	// Arena sizing: at any instant the slots in use by one owner are
	// bounded by the fabric's register population (2n) plus one cycle of
	// fresh injections and not-yet-recycled frees (≤ n), so 3n+64 per shard
	// can never overflow. The arenas are allocated virtually and touched
	// lazily — the free-list-first allocator keeps the hot region compact.
	nw.arena = int32(3*n + 64)
	nw.pool = make([]noc.Packet, int(nw.arena)*s)
	for k := range nw.sh {
		nw.sh[k].cursor = int32(k) * nw.arena
		nw.sh[k].limit = nw.sh[k].cursor + nw.arena
	}
	return s, nil
}

// ShardRange implements noc.ShardedNetwork.
func (nw *Network) ShardRange(k int) (lo, hi int) { return nw.sh[k].lo, nw.sh[k].hi }

// alloc places p in the packet pool and returns its index, recycling a
// freed entry when one is available (LIFO, so the order is deterministic).
// Sharded instances fall back to the shard's private arena; the sequential
// path grows the pool by append.
func (nw *Network) alloc(sh *shardCtx, p noc.Packet) int32 {
	if n := len(sh.free); n > 0 {
		r := sh.free[n-1]
		sh.free = sh.free[:n-1]
		nw.pool[r] = p
		return r
	}
	if nw.shardOf != nil {
		if sh.cursor == sh.limit {
			panic("hoplite: shard arena overflow")
		}
		r := sh.cursor
		sh.cursor++
		nw.pool[r] = p
		return r
	}
	nw.pool = append(nw.pool, p)
	return int32(len(nw.pool) - 1)
}

// SetDense selects the reference stepping path: clear and route all N²
// routers every cycle instead of only occupied ones. The two paths are
// bit-exact (the golden equivalence tests compare them); the dense path
// exists as the straightforward baseline for those tests and for
// benchmarking the sparse path's speedup. Select before the first Step.
func (nw *Network) SetDense(d bool) { nw.dense = d }

// Width returns the number of router columns.
func (nw *Network) Width() int { return nw.w }

// Height returns the number of router rows.
func (nw *Network) Height() int { return nw.h }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.w * nw.h }

// Offer latches p for injection at PE pe until a Step accepts it (see
// noc.Network). Concurrent offers are allowed for PEs owned by different
// shards: the activity mark lands in the owning shard's next array and the
// offer slot itself is per-PE.
func (nw *Network) Offer(pe int, p noc.Packet) {
	nw.offers[pe] = slot{p: p, ok: true}
	sh := &nw.sh[0]
	if nw.shardOf != nil {
		sh = &nw.sh[nw.shardOf[pe]]
	}
	sh.mark(pe)
}

// Withdraw cancels the offer held at pe. A router left marked by the offer
// routes as if it had none.
func (nw *Network) Withdraw(pe int) { nw.offers[pe].ok = false }

// Accepted reports whether the offer at pe was injected in the last Step.
func (nw *Network) Accepted(pe int) bool { return nw.accepted[pe] }

// AcceptedPEs returns the PEs whose offers were injected in the last Step,
// ascending; the slice is reused.
func (nw *Network) AcceptedPEs() []int {
	if nw.shardOf == nil {
		return nw.sh[0].acceptedPEs
	}
	return nw.mergedAccepted
}

// Delivered returns packets delivered in the last Step; the slice is reused.
func (nw *Network) Delivered() []noc.Packet {
	if nw.shardOf == nil {
		return nw.sh[0].delivered
	}
	return nw.mergedDelivered
}

// InFlight returns the number of packets inside the network.
func (nw *Network) InFlight() int {
	if nw.shardOf == nil {
		return nw.sh[0].inFlight
	}
	t := 0
	for k := range nw.sh {
		t += nw.sh[k].inFlight
	}
	return t
}

// Counters returns the network-wide event counters. Sharded instances
// merge the per-shard counters on each call; the merge is pure integer
// addition, so the totals are identical to sequential stepping.
func (nw *Network) Counters() *noc.Counters {
	if nw.shardOf == nil {
		return &nw.sh[0].counters
	}
	nw.mergedCounters = noc.Counters{}
	for k := range nw.sh {
		nw.mergedCounters.Add(&nw.sh[k].counters)
	}
	return &nw.mergedCounters
}

// Step advances the network one cycle: every occupied router routes its
// inputs, then the links latch. Only routers holding an in-flight input or
// a pending offer are visited; idle routers cost nothing. The visit order
// is ascending router index — identical to the dense path's row-major scan
// — so delivery order, and with it every downstream floating-point
// accumulation, is bit-exact with SetDense(true).
func (nw *Network) Step(now int64) {
	if nw.dense {
		nw.stepDense(now)
		return
	}
	if nw.shardOf != nil {
		// A sharded instance driven through the sequential entry point runs
		// the same three-phase protocol on one goroutine.
		nw.BeginCycle(now)
		for k := range nw.sh {
			nw.StepShard(k, now)
		}
		nw.EndCycle(now)
		return
	}
	s0 := &nw.sh[0]
	s0.now = now
	s0.obs = nw.obs
	s0.delivered = s0.delivered[:0]
	for _, pe := range s0.acceptedPEs {
		nw.accepted[pe] = false
	}
	s0.acceptedPEs = s0.acceptedPEs[:0]

	// Swap the active set: latching below (and Offer calls before the next
	// Step) accumulate the next cycle's set in s0.next.
	nw.curBits, s0.next = s0.next, nw.curBits
	for w := range s0.next {
		s0.next[w] = 0
	}

	for wd, b := range nw.curBits {
		for b != 0 {
			i := wd<<6 + bits.TrailingZeros64(b)
			b &= b - 1
			nw.routeSparse(s0, i, i%nw.w, i/nw.w, now)
		}
	}

	// Latch: the next-cycle registers routeSparse just filled become the
	// current registers. The consumed buffer is all -1 again (inputs are
	// cleared as they are read), so it can serve as next cycle's write side.
	nw.wInR, nw.wInRN = nw.wInRN, nw.wInR
	nw.nInR, nw.nInRN = nw.nInRN, nw.nInR
}

// BeginCycle implements noc.ShardedNetwork: publish every shard's pending
// activity marks into the cycle's working set. Coordinator only.
func (nw *Network) BeginCycle(now int64) {
	for w := range nw.curBits {
		nw.curBits[w] = 0
	}
	for k := range nw.sh {
		next := nw.sh[k].next
		for w, b := range next {
			if b != 0 {
				nw.curBits[w] |= b
				next[w] = 0
			}
		}
	}
}

// StepShard implements noc.ShardedNetwork: route the occupied routers in
// shard k's range. Calls for distinct k may run concurrently — all writes
// go to shard-private state or to link-register elements this shard is the
// unique driver of.
func (nw *Network) StepShard(k int, now int64) {
	sh := &nw.sh[k]
	sh.now = now
	sh.delivered = sh.delivered[:0]
	for _, pe := range sh.acceptedPEs {
		nw.accepted[pe] = false
	}
	sh.acceptedPEs = sh.acceptedPEs[:0]

	for wd := sh.loWord; wd < sh.hiWord; wd++ {
		b := nw.curBits[wd]
		if wd == sh.loWord {
			b &= sh.loMask
		}
		if wd == sh.hiWord-1 {
			b &= sh.hiMask
		}
		for b != 0 {
			i := wd<<6 + bits.TrailingZeros64(b)
			b &= b - 1
			nw.routeSparse(sh, i, i%nw.w, i/nw.w, now)
		}
	}
}

// EndCycle implements noc.ShardedNetwork: latch the link registers, merge
// per-shard deliveries in ascending shard order (= row-major = the
// sequential delivery order), and route recycled pool slots back to their
// owning arenas. Coordinator only.
func (nw *Network) EndCycle(now int64) {
	nw.wInR, nw.wInRN = nw.wInRN, nw.wInR
	nw.nInR, nw.nInRN = nw.nInRN, nw.nInR

	merged := nw.mergedDelivered[:0]
	acc := nw.mergedAccepted[:0]
	for k := range nw.sh {
		merged = append(merged, nw.sh[k].delivered...)
		acc = append(acc, nw.sh[k].acceptedPEs...)
	}
	nw.mergedDelivered = merged
	nw.mergedAccepted = acc

	for k := range nw.sh {
		sh := &nw.sh[k]
		for _, r := range sh.freed {
			owner := &nw.sh[r/nw.arena]
			owner.free = append(owner.free, r)
		}
		sh.freed = sh.freed[:0]
	}
}

// fwdE and fwdS latch pool index r onto the downstream router's next-cycle
// input register. The hop accounting the dense path does in its latch pass
// happens here, at forward time — the totals and per-packet values at
// delivery are identical.
func (nw *Network) fwdE(sh *shardCtx, r int32, x, y int) {
	nw.pool[r].ShortHops++
	sh.counters.ShortTraversals++
	j := y*nw.w + (x+1)%nw.w
	nw.wInRN[j] = r
	sh.mark(j)
}

func (nw *Network) fwdS(sh *shardCtx, r int32, x, y int) {
	nw.pool[r].ShortHops++
	sh.counters.ShortTraversals++
	j := ((y+1)%nw.h)*nw.w + x
	nw.nInRN[j] = r
	sh.mark(j)
}

// obsHop reports the short-hop grant for pool slot r at router i. It is a
// separate method, invoked behind the caller's nil check, so fwdE/fwdS stay
// small enough to inline — the forwarders are the hottest functions in the
// sparse path and must not pay for telemetry when it is off.
func (nw *Network) obsHop(sh *shardCtx, i int, out noc.Port, r int32) {
	sh.obs.OnHop(sh.now, i, out, &nw.pool[r])
}

// routeSparse is the fast-path arbiter: identical decisions to route, but
// over pool indices — staying on the ring costs an int32 move instead of an
// 80-byte slot copy — and with the latch fused in: granting an output
// writes the downstream next-cycle register directly.
func (nw *Network) routeSparse(sh *shardCtx, i, x, y int, now int64) {
	var eTaken, sTaken bool

	// Inputs are consumed (and cleared, so a router that goes idle does not
	// replay stale packets when it reactivates) as they are read.
	if r := nw.wInR[i]; r >= 0 {
		nw.wInR[i] = -1
		p := &nw.pool[r]
		switch {
		case p.Dst.X == x && p.Dst.Y == y:
			if nw.canExit(i) {
				sTaken = true
				nw.deliverIdx(sh, r)
			} else {
				p.Deflections++
				sh.counters.MisroutesByInput[noc.PortWSh]++
				if sh.obs != nil {
					sh.obs.OnDeflect(sh.now, i, noc.PortWSh, p)
				}
				nw.fwdE(sh, r, x, y)
				if sh.obs != nil {
					nw.obsHop(sh, i, noc.PortESh, r)
				}
				eTaken = true
			}
		case p.Dst.X != x:
			nw.fwdE(sh, r, x, y)
			if sh.obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
			eTaken = true
		default:
			nw.fwdS(sh, r, x, y)
			if sh.obs != nil {
				nw.obsHop(sh, i, noc.PortSSh, r)
			}
			sTaken = true
		}
	}

	if r := nw.nInR[i]; r >= 0 {
		nw.nInR[i] = -1
		p := &nw.pool[r]
		atDst := p.Dst.X == x && p.Dst.Y == y
		if atDst && !nw.canExit(i) {
			p.Deflections++
			sh.counters.MisroutesByInput[noc.PortNSh]++
			if sh.obs != nil {
				sh.obs.OnDeflect(sh.now, i, noc.PortNSh, p)
			}
			if !eTaken {
				nw.fwdE(sh, r, x, y)
				if sh.obs != nil {
					nw.obsHop(sh, i, noc.PortESh, r)
				}
				eTaken = true
			} else {
				nw.fwdS(sh, r, x, y)
				if sh.obs != nil {
					nw.obsHop(sh, i, noc.PortSSh, r)
				}
				sTaken = true
			}
		} else if !sTaken {
			sTaken = true
			if atDst {
				nw.deliverIdx(sh, r)
			} else {
				nw.fwdS(sh, r, x, y)
				if sh.obs != nil {
					nw.obsHop(sh, i, noc.PortSSh, r)
				}
			}
		} else {
			p.Deflections++
			sh.counters.MisroutesByInput[noc.PortNSh]++
			if sh.obs != nil {
				sh.obs.OnDeflect(sh.now, i, noc.PortNSh, p)
			}
			nw.fwdE(sh, r, x, y)
			if sh.obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
			eTaken = true
		}
	}

	// accepted[i] is already false here: the shard cleared every flag it
	// set last cycle via acceptedPEs before routing started. A refused offer
	// stays latched and marks the router to arbitrate it again next cycle.
	if off := &nw.offers[i]; off.ok {
		switch {
		case off.p.Dst.X != x && !eTaken:
			r := nw.alloc(sh, off.p)
			nw.pool[r].Inject = now
			nw.fwdE(sh, r, x, y)
			if sh.obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
			sh.inFlight++
			nw.accepted[i] = true
		case off.p.Dst.X == x && off.p.Dst.Y == y:
			if !sTaken && nw.canExit(i) {
				p := off.p
				p.Inject = now
				sh.inFlight++
				nw.deliver(sh, p)
				nw.accepted[i] = true
			} else {
				sh.counters.InjectionStalls++
				sh.mark(i)
			}
		case off.p.Dst.X == x && !sTaken:
			r := nw.alloc(sh, off.p)
			nw.pool[r].Inject = now
			nw.fwdS(sh, r, x, y)
			if sh.obs != nil {
				nw.obsHop(sh, i, noc.PortSSh, r)
			}
			sh.inFlight++
			nw.accepted[i] = true
		default:
			sh.counters.InjectionStalls++
			sh.mark(i)
		}
		if nw.accepted[i] {
			off.ok = false
			sh.acceptedPEs = append(sh.acceptedPEs, i)
		}
	}
}

// deliverIdx hands the pooled packet at r to the client and recycles r:
// directly onto the free list when sequential, via the freed staging list
// (EndCycle routes it to the owning arena) when sharded.
func (nw *Network) deliverIdx(sh *shardCtx, r int32) {
	nw.deliver(sh, nw.pool[r])
	if nw.shardOf != nil {
		sh.freed = append(sh.freed, r)
	} else {
		sh.free = append(sh.free, r)
	}
}

// stepDense is the reference path: clear all staging, route all routers,
// latch all links.
func (nw *Network) stepDense(now int64) {
	s0 := &nw.sh[0]
	s0.now = now
	s0.obs = nw.obs
	s0.delivered = s0.delivered[:0]
	s0.acceptedPEs = s0.acceptedPEs[:0]
	for w := range s0.next {
		s0.next[w] = 0
	}
	for i := range nw.eOut {
		nw.eOut[i] = slot{}
		nw.sOut[i] = slot{}
	}

	for y := 0; y < nw.h; y++ {
		for x := 0; x < nw.w; x++ {
			nw.route(x, y, now)
		}
	}

	// Latch: outputs become the neighbours' inputs.
	for y := 0; y < nw.h; y++ {
		for x := 0; x < nw.w; x++ {
			i := y*nw.w + x
			e := nw.eOut[i]
			if e.ok {
				e.p.ShortHops++
				s0.counters.ShortTraversals++
				if nw.obs != nil {
					nw.obs.OnHop(now, i, noc.PortESh, &e.p)
				}
			}
			nw.wIn[y*nw.w+(x+1)%nw.w] = e
			s := nw.sOut[i]
			if s.ok {
				s.p.ShortHops++
				s0.counters.ShortTraversals++
				if nw.obs != nil {
					nw.obs.OnHop(now, i, noc.PortSSh, &s.p)
				}
			}
			nw.nIn[((y+1)%nw.h)*nw.w+x] = s
		}
	}
}

// route arbitrates one router for the current cycle on the dense reference
// path, moving whole packets between the full-slot link registers. The
// sparse path's routeSparse makes the same decisions over pool indices.
func (nw *Network) route(x, y int, now int64) {
	s0 := &nw.sh[0]
	i := y*nw.w + x
	var eTaken, sTaken bool

	// W input: highest priority, always granted its desired port.
	if in := &nw.wIn[i]; in.ok {
		p := in.p
		switch {
		case p.Dst.X == x && p.Dst.Y == y:
			if nw.canExit(i) {
				// Exit shares the S driver.
				sTaken = true
				nw.deliver(s0, p)
			} else {
				// Client port busy (multi-channel sharing): loop the ring.
				p.Deflections++
				s0.counters.MisroutesByInput[noc.PortWSh]++
				if nw.obs != nil {
					nw.obs.OnDeflect(now, i, noc.PortWSh, &p)
				}
				nw.eOut[i] = slot{p: p, ok: true}
				eTaken = true
			}
		case p.Dst.X != x:
			nw.eOut[i] = slot{p: p, ok: true}
			eTaken = true
		default:
			nw.sOut[i] = slot{p: p, ok: true}
			sTaken = true
		}
	}

	// N input: wants S (continue down or exit); deflected east if W holds S.
	if in := &nw.nIn[i]; in.ok {
		p := in.p
		atDst := p.Dst.X == x && p.Dst.Y == y
		if atDst && !nw.canExit(i) {
			// Exit blocked by the shared client port: take either free
			// ring and come back around.
			p.Deflections++
			s0.counters.MisroutesByInput[noc.PortNSh]++
			if nw.obs != nil {
				nw.obs.OnDeflect(now, i, noc.PortNSh, &p)
			}
			if !eTaken {
				nw.eOut[i] = slot{p: p, ok: true}
				eTaken = true
			} else {
				nw.sOut[i] = slot{p: p, ok: true}
				sTaken = true
			}
		} else if !sTaken {
			sTaken = true
			if atDst {
				nw.deliver(s0, p)
			} else {
				nw.sOut[i] = slot{p: p, ok: true}
			}
		} else {
			// Deflect east. E must be free: W consumed exactly one port and
			// it was S. The packet will circle the X ring and return as a W
			// input, which always wins.
			p.Deflections++
			s0.counters.MisroutesByInput[noc.PortNSh]++
			if nw.obs != nil {
				nw.obs.OnDeflect(now, i, noc.PortNSh, &p)
			}
			nw.eOut[i] = slot{p: p, ok: true}
			eTaken = true
		}
	}

	// PE injection: lowest priority, only into the packet's DOR-desired
	// port, otherwise the offer stays latched for the next cycle.
	nw.accepted[i] = false
	if off := &nw.offers[i]; off.ok {
		p := off.p
		switch {
		case p.Dst.X != x && !eTaken:
			p.Inject = now
			nw.eOut[i] = slot{p: p, ok: true}
			s0.inFlight++
			nw.accepted[i] = true
		case p.Dst.X == x && p.Dst.Y == y:
			if !sTaken && nw.canExit(i) {
				// Self-addressed packet: delivered through the exit port.
				p.Inject = now
				s0.inFlight++
				nw.deliver(s0, p)
				nw.accepted[i] = true
			} else {
				s0.counters.InjectionStalls++
			}
		case p.Dst.X == x && !sTaken:
			p.Inject = now
			nw.sOut[i] = slot{p: p, ok: true}
			s0.inFlight++
			nw.accepted[i] = true
		default:
			s0.counters.InjectionStalls++
		}
		if nw.accepted[i] {
			off.ok = false
			s0.acceptedPEs = append(s0.acceptedPEs, i)
		}
	}
}

func (nw *Network) deliver(sh *shardCtx, p noc.Packet) {
	sh.inFlight--
	sh.counters.Delivered++
	sh.delivered = append(sh.delivered, p)
}
