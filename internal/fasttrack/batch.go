package fasttrack

import (
	"fmt"

	"fasttrack/internal/noc"
)

// batchArena carves per-instance arrays out of shared batch-major slabs: one
// backing allocation per element type, with instance i's arrays occupying
// the i-th contiguous region. A nil arena (the per-job path) degrades every
// method to a plain allocation, and an exhausted slab does too — layout is
// an optimization, never a correctness dependency.
type batchArena struct {
	i32 []int32
	pk  []noc.Packet
	u64 []uint64
	of  []offer
	b   []bool
}

func (a *batchArena) int32s(n int) []int32 {
	if a == nil || len(a.i32) < n {
		return make([]int32, n)
	}
	r := a.i32[:n:n]
	a.i32 = a.i32[n:]
	return r
}

func (a *batchArena) words(n int) []uint64 {
	if a == nil || len(a.u64) < n {
		return make([]uint64, n)
	}
	r := a.u64[:n:n]
	a.u64 = a.u64[n:]
	return r
}

func (a *batchArena) offers(n int) []offer {
	if a == nil || len(a.of) < n {
		return make([]offer, n)
	}
	r := a.of[:n:n]
	a.of = a.of[n:]
	return r
}

func (a *batchArena) bools(n int) []bool {
	if a == nil || len(a.b) < n {
		return make([]bool, n)
	}
	r := a.b[:n:n]
	a.b = a.b[n:]
	return r
}

// packets returns an empty slice with capacity n carved from the packet
// slab; growing past n falls back to append's reallocation.
func (a *batchArena) packets(n int) []noc.Packet {
	if a == nil || len(a.pk) < n {
		return make([]noc.Packet, 0, n)
	}
	r := a.pk[:0:n]
	a.pk = a.pk[n:]
	return r
}

// Batch is B independent FastTrack instances of one configuration, with the
// sparse hot-path state (register files, packet pools, occupancy bitsets,
// offer and accepted arrays) laid out batch-major in shared slabs. Each
// instance is an ordinary *Network: the lockstep driver steps them with the
// same Step code the per-job path runs, which is what makes batched results
// bit-identical.
type Batch struct {
	cfg   Config
	insts []*Network
}

// NewBatch builds b idle instances of cfg sharing slab-backed state.
func NewBatch(cfg Config, b int) (*Batch, error) {
	if b < 1 {
		return nil, fmt.Errorf("fasttrack: batch size %d < 1", b)
	}
	if _, err := NewTopology(cfg.Topology.N, cfg.Topology.D, cfg.Topology.R); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Topology.N
	sz := n * n
	words := (sz + 63) / 64
	i32PerInst := 8 * sz
	u64PerInst := 3 * words // curBits + sh[0].next + sh[0].pipeBits
	if cfg.ExpressPipeline > 0 {
		i32PerInst += 2*cfg.ExpressPipeline*sz + 2*sz // pipe stages + exPend/syPend
	}
	ar := &batchArena{
		i32: make([]int32, b*i32PerInst),
		u64: make([]uint64, b*u64PerInst),
		of:  make([]offer, b*sz),
		b:   make([]bool, b*sz),
		pk:  make([]noc.Packet, b*poolBound(cfg)),
	}
	bt := &Batch{cfg: cfg, insts: make([]*Network, b)}
	for i := range bt.insts {
		nw, err := newNet(cfg, ar)
		if err != nil {
			return nil, err
		}
		bt.insts[i] = nw
	}
	return bt, nil
}

// Size returns the instance count.
func (bt *Batch) Size() int { return len(bt.insts) }

// Config returns the shared configuration.
func (bt *Batch) Config() Config { return bt.cfg }

// Instance returns the i-th network.
func (bt *Batch) Instance(i int) *Network { return bt.insts[i] }

// Reset idles every instance for the next job, keeping all slabs.
func (bt *Batch) Reset() {
	for _, nw := range bt.insts {
		nw.Reset()
	}
}
