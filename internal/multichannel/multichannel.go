// Package multichannel implements the replicated-Hoplite comparator from the
// paper's iso-resource evaluations (Hoplite-2x, Hoplite-3x in Figs 13/14/19):
// K independent Hoplite channels sharing one client interface per PE.
//
// To keep the comparison fair the client interface is unchanged (§IV-A):
// each PE may inject at most one packet per cycle — into exactly one channel
// — and accepts at most one delivery per cycle. A channel that completes a
// packet while the shared client port is busy must deflect it (bufferless
// channels cannot hold packets), implemented with the channels' exit gates.
// Channel service order rotates every cycle so no channel starves.
package multichannel

import (
	"fmt"
	"math/bits"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// Network is K parallel Hoplite planes behind single-ported clients.
type Network struct {
	w, h, k  int
	channels []*hoplite.Network

	// nextChan[pe] is the channel the PE will offer to next; it rotates when
	// an offer stalls so a congested plane cannot starve the client.
	nextChan []int
	// held[pe] is the channel latching pe's offer (-1 if none) and pkt[pe]
	// the offered packet, kept so a refused offer can move to the next
	// channel; heldBits mirrors held[pe] >= 0 for an ascending walk.
	held     []int
	pkt      []noc.Packet
	heldBits []uint64
	accepted []bool

	// exitBusy[pe] marks client ports already used this cycle.
	exitBusy  []bool
	delivered []noc.Packet
	startChan int // rotating channel service order

	// acceptedPEs and busyPEs track which entries of the corresponding
	// per-PE arrays are set, so the per-cycle bookkeeping touches only live
	// PEs instead of all N².
	acceptedPEs, busyPEs []int

	counters noc.Counters
}

// New builds a W×H torus with k independent Hoplite channels (k >= 1).
func New(w, h, k int) (*Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("multichannel: need at least 1 channel, got %d", k)
	}
	nw := &Network{w: w, h: h, k: k}
	for c := 0; c < k; c++ {
		ch, err := hoplite.New(w, h)
		if err != nil {
			return nil, err
		}
		ch.SetExitGate(func(pe int) bool { return !nw.exitBusy[pe] })
		nw.channels = append(nw.channels, ch)
	}
	n := w * h
	nw.nextChan = make([]int, n)
	nw.held = make([]int, n)
	nw.pkt = make([]noc.Packet, n)
	nw.heldBits = make([]uint64, (n+63)/64)
	nw.accepted = make([]bool, n)
	nw.exitBusy = make([]bool, n)
	for i := range nw.held {
		nw.held[i] = -1
	}
	return nw, nil
}

// Width returns the torus width in routers.
func (nw *Network) Width() int { return nw.w }

// Height returns the torus height in routers.
func (nw *Network) Height() int { return nw.h }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.w * nw.h }

// Channels returns the channel count K.
func (nw *Network) Channels() int { return nw.k }

// SetDense selects the reference stepping path in every channel; see
// hoplite.Network.SetDense.
func (nw *Network) SetDense(d bool) {
	for _, ch := range nw.channels {
		ch.SetDense(d)
	}
}

// SetObserver attaches a telemetry observer to every channel. All K channels
// share one w×h geometry, so per-link counts aggregate per geometric link
// across channels; the engine (not the channels) emits OnCycleEnd, so a
// K-channel step still counts as one cycle.
func (nw *Network) SetObserver(o telemetry.Observer) {
	for _, ch := range nw.channels {
		ch.SetObserver(o)
	}
}

// Offer latches p for injection at PE pe (see noc.Network). The packet goes
// to a single channel chosen by per-PE rotation; a replacing offer stays in
// the channel that holds the current one.
func (nw *Network) Offer(pe int, p noc.Packet) {
	c := nw.held[pe]
	if c < 0 {
		c = nw.nextChan[pe]
		nw.held[pe] = c
		nw.heldBits[pe>>6] |= 1 << (uint(pe) & 63)
	}
	nw.pkt[pe] = p
	nw.channels[c].Offer(pe, p)
}

// Withdraw cancels the offer held at pe.
func (nw *Network) Withdraw(pe int) {
	if c := nw.held[pe]; c >= 0 {
		nw.channels[c].Withdraw(pe)
		nw.release(pe)
	}
}

func (nw *Network) release(pe int) {
	nw.held[pe] = -1
	nw.heldBits[pe>>6] &^= 1 << (uint(pe) & 63)
}

// Step advances all channels one cycle. Channels are serviced in rotating
// order; once a channel delivers to a client, the port is busy for the
// rest of the cycle and later channels deflect their completions there.
func (nw *Network) Step(now int64) {
	for _, pe := range nw.busyPEs {
		nw.exitBusy[pe] = false
	}
	nw.busyPEs = nw.busyPEs[:0]
	nw.delivered = nw.delivered[:0]
	for j := 0; j < nw.k; j++ {
		ch := nw.channels[(nw.startChan+j)%nw.k]
		ch.Step(now)
		for _, p := range ch.Delivered() {
			pe := noc.PEIndex(p.Dst, nw.w)
			if !nw.exitBusy[pe] {
				nw.exitBusy[pe] = true
				nw.busyPEs = append(nw.busyPEs, pe)
			}
			nw.delivered = append(nw.delivered, p)
		}
	}
	nw.startChan = (nw.startChan + 1) % nw.k

	// Record offer outcomes and move refused offers to the next channel,
	// where they stay latched.
	for _, pe := range nw.acceptedPEs {
		nw.accepted[pe] = false
	}
	nw.acceptedPEs = nw.acceptedPEs[:0]
	for wd, b := range nw.heldBits {
		for b != 0 {
			pe := wd<<6 + bits.TrailingZeros64(b)
			b &= b - 1
			c := nw.held[pe]
			if nw.channels[c].Accepted(pe) {
				nw.accepted[pe] = true
				nw.acceptedPEs = append(nw.acceptedPEs, pe)
				nw.release(pe)
				continue
			}
			next := (c + 1) % nw.k
			nw.nextChan[pe] = next
			if next != c {
				nw.channels[c].Withdraw(pe)
				nw.channels[next].Offer(pe, nw.pkt[pe])
				nw.held[pe] = next
			}
		}
	}
}

// Accepted reports whether the offer at pe was injected in the last Step.
func (nw *Network) Accepted(pe int) bool { return nw.accepted[pe] }

// AcceptedPEs returns the PEs whose offers were injected in the last Step,
// ascending; the slice is reused.
func (nw *Network) AcceptedPEs() []int { return nw.acceptedPEs }

// Delivered returns packets handed to clients in the last Step; the slice
// is reused between cycles.
func (nw *Network) Delivered() []noc.Packet { return nw.delivered }

// InFlight counts packets in any channel.
func (nw *Network) InFlight() int {
	t := 0
	for _, ch := range nw.channels {
		t += ch.InFlight()
	}
	return t
}

// Counters returns aggregated event counters across all channels.
func (nw *Network) Counters() *noc.Counters {
	agg := noc.Counters{}
	for _, ch := range nw.channels {
		c := ch.Counters()
		agg.ShortTraversals += c.ShortTraversals
		agg.ExpressTraversals += c.ExpressTraversals
		agg.InjectionStalls += c.InjectionStalls
		agg.Delivered += c.Delivered
		for p := range c.MisroutesByInput {
			agg.MisroutesByInput[p] += c.MisroutesByInput[p]
			agg.ExpressDeniedByInput[p] += c.ExpressDeniedByInput[p]
		}
	}
	nw.counters = agg
	return &nw.counters
}
