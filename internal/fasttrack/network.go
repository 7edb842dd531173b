package fasttrack

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

// offer is a PE's injection register: the latched packet, its injection
// preference list (looked up once, when the packet is offered), and a valid
// bit.
type offer struct {
	p  noc.Packet
	pr *prefs
	ok bool
}

// output indices into the per-router staging arrays.
const (
	oESh = iota
	oEEx
	oSSh
	oSEx
	numOuts
)

// shardCtx is the per-shard slice of the network's mutable aggregate state;
// see the hoplite package for the full sharding rationale. sh[0] covers the
// whole fabric until ConfigureShards splits it, so the sequential path is
// the single-shard special case of the same routing code.
type shardCtx struct {
	k      int
	lo, hi int // router index range [lo, hi)

	// Masked word range of [lo, hi) for iterating the curBits occupancy set.
	loWord, hiWord int
	loMask, hiMask uint64

	// next collects next-cycle activity marks, full fabric sized: routing
	// and pipe shifts in this shard may wake routers across the boundary,
	// and those marks land in the marker's own array. BeginCycle ORs every
	// shard's next into curBits.
	next []uint64

	// pipeBits marks routers in this shard whose express pipelines hold
	// in-flight stages — they must keep shifting even when nothing routes
	// there. Per shard so boundary words are never shared between workers.
	pipeBits []uint64

	counters    noc.Counters
	delivered   []noc.Packet
	acceptedPEs []int
	inFlight    int // per-shard delta; can go negative, the sum is real

	// Sharded-pool allocation state (see alloc).
	free   []int32
	freed  []int32
	cursor int32
	limit  int32

	// obs receives this shard's telemetry events during routing; now mirrors
	// the current cycle for helpers without a now parameter (emitR).
	obs telemetry.Observer
	now int64
}

// mark queues router i for routing on the next Step.
func (sh *shardCtx) mark(i int) { sh.next[i>>6] |= 1 << (uint(i) & 63) }

// Network is an N×N FastTrack torus. Create with New.
type Network struct {
	cfg Config
	n   int

	// Link registers, indexed by router index (y*n + x). Express registers
	// exist for every router but are only ever populated at routers whose
	// class carries the corresponding ports. These full-packet registers
	// belong to the dense reference path; the sparse fast path routes pool
	// indices instead (see wShR below).
	wShIn, wExIn []slot
	nShIn, nExIn []slot

	// Hyperflex-style express pipelines (Config.ExpressPipeline > 0):
	// xPipe[i][k] are the extra register stages of the X express link
	// leaving router i, oldest first; likewise yPipe for Y links.
	xPipe, yPipe [][]slot

	// Output staging for the current Step, one slot per router per output
	// (dense path).
	outs [numOuts][]slot

	// Sparse-path link registers: each holds an index into pool (-1 when
	// empty), so a hop moves 4 bytes instead of an 80-byte slot. Packets
	// live in pool from injection to delivery and are mutated in place;
	// recycling goes through the per-shard free lists. Registers are double
	// buffered — the R side is read (and consumed) by the current cycle
	// while RN collects what latches for the next — so granting an output
	// writes the downstream register directly, with no staging and no latch
	// pass. Each link has one driver, so a register element is written at
	// most once per cycle — which also makes the sharded step race-free at
	// the boundary rows.
	wShR, wExR, nShR, nExR     []int32
	wShRN, wExRN, nShRN, nExRN []int32
	pool                       []noc.Packet

	// Sparse express pipelines (index form of xPipe/yPipe). A pipelined
	// express grant cannot latch downstream immediately, so it parks in
	// exPend/syPend and a per-cycle pipe pass shifts it through the stages.
	xPipeR, yPipeR [][]int32
	exPend, syPend []int32

	offers   []offer
	accepted []bool

	// sh holds the per-shard state; len(sh) == 1 until ConfigureShards.
	// shardOf maps a router index to its owning shard, nil when single.
	sh      []shardCtx
	shardOf []int32
	arena   int32 // per-shard arena size when sharded

	// curBits is the occupancy set the current Step iterates: routers that
	// must route this cycle. The per-shard next arrays double-buffer it.
	curBits []uint64

	// Merged views for the sharded accessors; unused when single-shard.
	mergedDelivered []noc.Packet
	mergedAccepted  []int
	mergedCounters  noc.Counters

	// dense selects the reference stepping path; see SetDense.
	dense bool

	// tabs holds the memoized routing-decision tables shared by every
	// instance with the same (topology, variant); see tables.go. The sparse
	// path routes from them; the dense reference path never reads them.
	tabs *routeTables

	// obs, when non-nil, receives telemetry events. Every emission site is
	// guarded by a single nil check.
	obs telemetry.Observer
}

// New builds an idle FastTrack network for the given configuration.
func New(cfg Config) (*Network, error) { return newNet(cfg, nil) }

// newNet is New with an optional batch arena: when ar is non-nil the sparse
// hot-path arrays (link registers, offers, occupancy words, packet pool) are
// carved out of the arena's batch-major slabs instead of allocated
// individually; see batch.go. The dense reference arrays always come from
// plain allocations — batch instances never run the dense path.
func newNet(cfg Config, ar *batchArena) (*Network, error) {
	if _, err := NewTopology(cfg.Topology.N, cfg.Topology.D, cfg.Topology.R); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Topology.N
	sz := n * n
	nw := &Network{
		cfg:   cfg,
		n:     n,
		wShIn: make([]slot, sz), wExIn: make([]slot, sz),
		nShIn: make([]slot, sz), nExIn: make([]slot, sz),
		offers:   ar.offers(sz),
		accepted: ar.bools(sz),
	}
	nw.enableTables()
	words := (sz + 63) / 64
	nw.curBits = ar.words(words)
	nw.sh = nw.makeShards(1, ar)
	for i := range nw.outs {
		nw.outs[i] = make([]slot, sz)
	}
	emptyRegs := func() []int32 {
		r := ar.int32s(sz)
		for i := range r {
			r[i] = -1
		}
		return r
	}
	nw.wShR, nw.wExR = emptyRegs(), emptyRegs()
	nw.nShR, nw.nExR = emptyRegs(), emptyRegs()
	nw.wShRN, nw.wExRN = emptyRegs(), emptyRegs()
	nw.nShRN, nw.nExRN = emptyRegs(), emptyRegs()
	nw.pool = ar.packets(poolBound(cfg))
	if cfg.ExpressPipeline > 0 {
		nw.xPipe = make([][]slot, sz)
		nw.yPipe = make([][]slot, sz)
		nw.xPipeR = make([][]int32, sz)
		nw.yPipeR = make([][]int32, sz)
		nw.exPend, nw.syPend = emptyRegs(), emptyRegs()
		for i := range nw.xPipe {
			nw.xPipe[i] = make([]slot, cfg.ExpressPipeline)
			nw.yPipe[i] = make([]slot, cfg.ExpressPipeline)
			nw.xPipeR[i] = ar.int32s(cfg.ExpressPipeline)
			nw.yPipeR[i] = ar.int32s(cfg.ExpressPipeline)
			for k := 0; k < cfg.ExpressPipeline; k++ {
				nw.xPipeR[i][k], nw.yPipeR[i][k] = -1, -1
			}
		}
	}
	return nw, nil
}

// poolBound is the packet-pool occupancy bound for one instance: the
// register population ((8 + 2*pipeline stages) per router) plus a cycle of
// fresh injections and not-yet-recycled frees — the same formula
// ConfigureShards sizes per-shard arenas with.
func poolBound(cfg Config) int {
	sz := cfg.Topology.N * cfg.Topology.N
	return (8+2*cfg.ExpressPipeline)*sz + 64
}

// Reset restores the network to the idle state New leaves it in, keeping
// every backing array (and its capacity) so a recycled instance re-runs a
// job without reallocating. The result of a run on a Reset network is
// bit-identical to a run on a fresh one: the only state that survives is
// slice capacity, which routing never observes.
func (nw *Network) Reset() {
	for i := range nw.wShR {
		nw.wShR[i], nw.wExR[i], nw.nShR[i], nw.nExR[i] = -1, -1, -1, -1
		nw.wShRN[i], nw.wExRN[i], nw.nShRN[i], nw.nExRN[i] = -1, -1, -1, -1
	}
	clear(nw.wShIn)
	clear(nw.wExIn)
	clear(nw.nShIn)
	clear(nw.nExIn)
	for o := range nw.outs {
		clear(nw.outs[o])
	}
	clear(nw.offers)
	clear(nw.accepted)
	clear(nw.curBits)
	if nw.xPipeR != nil {
		for i := range nw.xPipeR {
			clear(nw.xPipe[i])
			clear(nw.yPipe[i])
			for k := range nw.xPipeR[i] {
				nw.xPipeR[i][k], nw.yPipeR[i][k] = -1, -1
			}
			nw.exPend[i], nw.syPend[i] = -1, -1
		}
	}
	nw.pool = nw.pool[:0]
	if len(nw.sh) != 1 {
		// A previously sharded instance drops back to the single-shard
		// layout New builds (its pool was arena-partitioned and is gone).
		nw.sh = nw.makeShards(1, nil)
	} else {
		s0 := &nw.sh[0]
		clear(s0.next)
		clear(s0.pipeBits)
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
}

// makeShards builds s row-band shard contexts: shard k owns rows
// [k*n/s, (k+1)*n/s). Concatenating per-shard outputs in ascending k equals
// a row-major scan of the whole fabric. ar is the optional batch arena the
// single-shard bit arrays are carved from (nil outside NewBatch).
func (nw *Network) makeShards(s int, ar *batchArena) []shardCtx {
	sz := nw.n * nw.n
	words := (sz + 63) / 64
	sh := make([]shardCtx, s)
	for k := 0; k < s; k++ {
		lo := (k * nw.n / s) * nw.n
		hi := ((k + 1) * nw.n / s) * nw.n
		c := &sh[k]
		c.k, c.lo, c.hi = k, lo, hi
		c.loWord, c.hiWord = lo>>6, (hi+63)>>6
		c.loMask = ^uint64(0) << (uint(lo) & 63)
		c.hiMask = ^uint64(0)
		if r := uint(hi) & 63; r != 0 {
			c.hiMask = (uint64(1) << r) - 1
		}
		c.next = ar.words(words)
		c.pipeBits = ar.words(words)
	}
	return sh
}

// ConfigureShards implements noc.ShardedNetwork: partition the fabric into
// s row-band shards. s is clamped to the row count; 1 restores sequential
// stepping. The network must be idle and on the sparse path.
func (nw *Network) ConfigureShards(s int) (int, error) {
	if s < 1 {
		return 0, fmt.Errorf("fasttrack: shard count %d < 1", s)
	}
	if nw.dense {
		return 0, fmt.Errorf("fasttrack: dense reference path cannot shard")
	}
	if nw.InFlight() != 0 {
		return 0, fmt.Errorf("fasttrack: cannot reconfigure shards with %d packets in flight", nw.InFlight())
	}
	if s > nw.n {
		s = nw.n
	}
	sz := nw.n * nw.n
	nw.sh = nw.makeShards(s, nil)
	if s == 1 {
		nw.shardOf = nil
		nw.arena = 0
		nw.pool = nil
		return 1, nil
	}
	nw.shardOf = make([]int32, sz)
	for k := range nw.sh {
		for i := nw.sh[k].lo; i < nw.sh[k].hi; i++ {
			nw.shardOf[i] = int32(k)
		}
	}
	// Arena sizing: slots in use by one owner are bounded by the register
	// population ((4 + 2*pipeline stages) per router) plus one cycle of
	// fresh injections and not-yet-recycled frees, so (8+2*stages)*sz + 64
	// per shard can never overflow. Arenas are virtual and touched lazily;
	// the free-list-first allocator keeps the hot region compact.
	nw.arena = int32((8+2*nw.cfg.ExpressPipeline)*sz + 64)
	nw.pool = make([]noc.Packet, int(nw.arena)*s)
	for k := range nw.sh {
		nw.sh[k].cursor = int32(k) * nw.arena
		nw.sh[k].limit = nw.sh[k].cursor + nw.arena
	}
	return s, nil
}

// ShardRange implements noc.ShardedNetwork.
func (nw *Network) ShardRange(k int) (lo, hi int) { return nw.sh[k].lo, nw.sh[k].hi }

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
			panic("fasttrack: shard arena overflow")
		}
		r := sh.cursor
		sh.cursor++
		nw.pool[r] = p
		return r
	}
	nw.pool = append(nw.pool, p)
	return int32(len(nw.pool) - 1)
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

// shiftPipe advances one express-link pipeline: in enters the youngest
// stage and the oldest stage pops out.
func shiftPipe(pipe []slot, in slot) (out slot) {
	out = pipe[0]
	copy(pipe, pipe[1:])
	pipe[len(pipe)-1] = in
	return out
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Width returns the torus width in routers.
func (nw *Network) Width() int { return nw.n }

// Height returns the torus height in routers.
func (nw *Network) Height() int { return nw.n }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.n * nw.n }

// SetDense selects the reference stepping path: clear and route all N²
// routers every cycle instead of only occupied ones. The two paths are
// bit-exact (the golden equivalence tests compare them); the dense path
// exists as the straightforward baseline for those tests and for
// benchmarking the sparse path's speedup. Select before the first Step.
func (nw *Network) SetDense(d bool) { nw.dense = d }

// SetObserver attaches a telemetry observer (nil detaches); sim.Run
// attaches Options.Observer through this.
func (nw *Network) SetObserver(o telemetry.Observer) { nw.obs = o }

// Offer latches p for injection at PE pe until a Step accepts it (see
// noc.Network), together with its injection preference list, so a refused
// offer is re-arbitrated without recomputing its ring offsets. Concurrent
// offers are allowed for PEs owned by different shards.
func (nw *Network) Offer(pe int, p noc.Packet) {
	tb := nw.tabs
	x, y := pe%nw.n, pe/nw.n
	pr := &tb.inj[tb.class[pe]][delta(y, p.Dst.Y, nw.n)*nw.n+delta(x, p.Dst.X, nw.n)]
	nw.offers[pe] = offer{p: p, pr: pr, ok: true}
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

// Counters returns the network-wide event counters; sharded instances
// merge the per-shard counters on each call.
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

// Step advances the network one clock cycle. Only routers holding an
// in-flight input, a pending offer, or an occupied express-pipeline stage
// are visited; idle routers cost nothing. The visit order is ascending
// router index — identical to the dense path's row-major scan — so
// delivery order, and with it every downstream floating-point
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

	// Swap the active set: the fused latch below (and Offer calls before
	// the next Step) accumulate the next cycle's set in s0.next.
	nw.curBits, s0.next = s0.next, nw.curBits
	for w := range s0.next {
		s0.next[w] = 0
	}

	for wd, b := range nw.curBits {
		for b != 0 {
			i := wd<<6 + bits.TrailingZeros64(b)
			b &= b - 1
			nw.routeSparse(s0, i, i%nw.n, i/nw.n, now)
		}
	}

	// Pipelined express links need a separate shift pass: a granted express
	// packet parked in exPend/syPend this cycle, and routers with occupied
	// stages must keep shifting even when nothing routed there.
	if nw.xPipeR != nil {
		for wd := range nw.curBits {
			b := nw.curBits[wd] | s0.pipeBits[wd]
			for b != 0 {
				i := wd<<6 + bits.TrailingZeros64(b)
				b &= b - 1
				nw.pipeStep(s0, i)
			}
		}
	}

	// Latch: the next-cycle registers become the current registers. The
	// consumed buffers are all -1 again (inputs are cleared as they are
	// read), so they can serve as next cycle's write side.
	nw.swapRegs()
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
// shard k's range, then shift that range's express pipelines. Calls for
// distinct k may run concurrently — all writes go to shard-private state or
// to link-register elements this shard is the unique driver of.
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
			nw.routeSparse(sh, i, i%nw.n, i/nw.n, now)
		}
	}

	if nw.xPipeR != nil {
		for wd := sh.loWord; wd < sh.hiWord; wd++ {
			b := nw.curBits[wd] | sh.pipeBits[wd]
			if wd == sh.loWord {
				b &= sh.loMask
			}
			if wd == sh.hiWord-1 {
				b &= sh.hiMask
			}
			for b != 0 {
				i := wd<<6 + bits.TrailingZeros64(b)
				b &= b - 1
				nw.pipeStep(sh, i)
			}
		}
	}
}

// EndCycle implements noc.ShardedNetwork: latch the link registers, merge
// per-shard deliveries in ascending shard order (= the sequential delivery
// order), and route recycled pool slots back to their owning arenas.
// Coordinator only.
func (nw *Network) EndCycle(now int64) {
	nw.swapRegs()

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

func (nw *Network) swapRegs() {
	nw.wShR, nw.wShRN = nw.wShRN, nw.wShR
	nw.wExR, nw.wExRN = nw.wExRN, nw.wExR
	nw.nShR, nw.nShRN = nw.nShRN, nw.nShR
	nw.nExR, nw.nExRN = nw.nExRN, nw.nExR
}

// shiftPipeR advances one sparse express-link pipeline: in enters the
// youngest stage and the oldest stage pops out.
func shiftPipeR(pipe []int32, in int32) (out int32) {
	out = pipe[0]
	copy(pipe, pipe[1:])
	pipe[len(pipe)-1] = in
	return out
}

// pipeStep shifts router i's express pipelines one stage and latches any
// popped packet onto the downstream express input. Router i always belongs
// to sh, so the pipe occupancy bit lands in the shard's own array; the
// downstream latch may cross the boundary, which is race-free because this
// router is the express link's only driver.
func (nw *Network) pipeStep(sh *shardCtx, i int) {
	n, d := nw.n, nw.cfg.Topology.D
	x, y := i%n, i/n
	ex := shiftPipeR(nw.xPipeR[i], nw.exPend[i])
	nw.exPend[i] = -1
	sy := shiftPipeR(nw.yPipeR[i], nw.syPend[i])
	nw.syPend[i] = -1
	occupied := false
	for _, r := range nw.xPipeR[i] {
		if r >= 0 {
			occupied = true
			break
		}
	}
	if !occupied {
		for _, r := range nw.yPipeR[i] {
			if r >= 0 {
				occupied = true
				break
			}
		}
	}
	if occupied {
		sh.pipeBits[i>>6] |= 1 << (uint(i) & 63)
	} else {
		sh.pipeBits[i>>6] &^= 1 << (uint(i) & 63)
	}
	if ex >= 0 {
		j := y*n + (x+d)%n
		nw.wExRN[j] = ex
		sh.mark(j)
	}
	if sy >= 0 {
		j := ((y+d)%n)*n + x
		nw.nExRN[j] = sy
		sh.mark(j)
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
	for o := range nw.outs {
		outs := nw.outs[o]
		for i := range outs {
			outs[i] = slot{}
		}
	}

	for y := 0; y < nw.n; y++ {
		for x := 0; x < nw.n; x++ {
			nw.route(x, y, now)
		}
	}

	nw.latch(now)
}

// latch moves output staging onto the downstream input registers. Short
// links connect adjacent routers; express links connect routers D apart and
// are traversed in a single cycle — the FastTrack premise.
func (nw *Network) latch(now int64) {
	s0 := &nw.sh[0]
	n, d := nw.n, nw.cfg.Topology.D
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			if s := nw.outs[oESh][i]; s.ok {
				s.p.ShortHops++
				s0.counters.ShortTraversals++
				if nw.obs != nil {
					nw.obs.OnHop(now, i, noc.PortESh, &s.p)
				}
				nw.wShIn[y*n+(x+1)%n] = s
			} else {
				nw.wShIn[y*n+(x+1)%n] = slot{}
			}
			if s := nw.outs[oSSh][i]; s.ok {
				s.p.ShortHops++
				s0.counters.ShortTraversals++
				if nw.obs != nil {
					nw.obs.OnHop(now, i, noc.PortSSh, &s.p)
				}
				nw.nShIn[((y+1)%n)*n+x] = s
			} else {
				nw.nShIn[((y+1)%n)*n+x] = slot{}
			}
			ex := nw.outs[oEEx][i]
			if ex.ok {
				ex.p.ExpressHops++
				s0.counters.ExpressTraversals++
				if nw.obs != nil {
					nw.obs.OnExpressHop(now, i, noc.PortEEx, &ex.p)
				}
			}
			if nw.xPipe != nil {
				ex = shiftPipe(nw.xPipe[i], ex)
			}
			nw.wExIn[y*n+(x+d)%n] = ex

			sy := nw.outs[oSEx][i]
			if sy.ok {
				sy.p.ExpressHops++
				s0.counters.ExpressTraversals++
				if nw.obs != nil {
					nw.obs.OnExpressHop(now, i, noc.PortSEx, &sy.p)
				}
			}
			if nw.yPipe != nil {
				sy = shiftPipe(nw.yPipe[i], sy)
			}
			nw.nExIn[((y+d)%n)*n+x] = sy
		}
	}
}

func (nw *Network) deliver(sh *shardCtx, p noc.Packet) {
	sh.inFlight--
	sh.counters.Delivered++
	sh.delivered = append(sh.delivered, p)
}
