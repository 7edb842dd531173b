package noctest_test

import (
	"reflect"
	"testing"

	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/faults"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestOfferConformance runs the offer-latch contract against every network
// and stepping mode.
func TestOfferConformance(t *testing.T) {
	must := func(nw noc.Network, err error) noc.Network {
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	build := func(c core.Config) func() noc.Network {
		return func() noc.Network { return must(c.Build()) }
	}
	hop := func() *hoplite.Network {
		nw, err := hoplite.New(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	sharded := func(mk func() noc.Network) func() noc.Network {
		return func() noc.Network {
			nw := mk()
			if _, err := nw.(noc.ShardedNetwork).ConfigureShards(3); err != nil {
				t.Fatal(err)
			}
			return nw
		}
	}
	cases := []struct {
		name string
		mk   func() noc.Network
	}{
		{"hoplite", func() noc.Network { return hop() }},
		{"hoplite-dense", func() noc.Network { nw := hop(); nw.SetDense(true); return nw }},
		{"hoplite-sharded", sharded(func() noc.Network { return hop() })},
		{"ft-full", build(core.FastTrack(8, 2, 1))},
		{"ft-full-dense", func() noc.Network {
			nw := must(core.FastTrack(8, 2, 1).Build())
			nw.(interface{ SetDense(bool) }).SetDense(true)
			return nw
		}},
		{"ft-full-sharded", sharded(build(core.FastTrack(8, 2, 1)))},
		{"ft-inject", build(core.FastTrack(8, 2, 1).WithVariant(core.VariantInject))},
		{"ft-pipelined", build(core.FastTrack(8, 2, 1).WithPipeline(1))},
		{"multichannel-2x", build(core.MultiChannel(8, 2))},
		{"buffered", func() noc.Network { return must(buffered.New(8, 8, buffered.Config{Depth: 2})) }},
		{"faults", func() noc.Network {
			return must(faults.Wrap(hop(), faults.Config{
				Seed: 7, DropRate: 0.02, MisrouteRate: 0.02,
				Stuck:  []faults.Window{{PE: 3, From: 50, Until: 200}},
				Freeze: []faults.Window{{PE: 10, From: 100, Until: 300}},
			}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			offerConformance(t, tc.mk, 0xC0FFEE)
		})
	}
}

// offerClient is one side of the offer-protocol comparison: per-PE packet
// queues driven by a shared event schedule. A latching client offers each
// head once and relies on the network to hold it; a re-offering client
// offers its head every open cycle and withdraws every closed one — the
// behaviour the latch must reproduce exactly.
type offerClient struct {
	nw    noc.Network
	latch bool
	qpos  []int
	ver   []int  // head version; a replacement bumps it
	held  []bool // latching client: the network holds this PE's offer
	sent  []int  // latching client: version last offered
}

func (c *offerClient) head(pe, w int, dsts [][]noc.Coord) noc.Packet {
	return noc.Packet{
		ID:  int64(pe)<<32 | int64(c.qpos[pe])<<8 | int64(c.ver[pe]),
		Src: noc.PECoord(pe, w),
		Dst: dsts[pe][(c.qpos[pe]+c.ver[pe])%len(dsts[pe])],
	}
}

// offerConformance holds mk's network to the noc.Network offer contract.
// Two instances run the same seeded schedule — per-PE packet queues, gates
// that close for stretches of cycles, and head replacements — one driven by
// a client that offers each head once, one by a client that re-offers every
// cycle. Every cycle the two must accept the same PEs (in ascending order,
// agreeing with Accepted) and deliver the same packets, and at the end their
// counters, InjectionStalls included, must be equal. The latching side must
// also have seen a refused offer accepted on a later cycle with no new
// Offer, a held offer replaced, and a held offer withdrawn; a replaced
// packet must never be injected, and no PE may inject while its gate is
// closed.
func offerConformance(t *testing.T, mk func() noc.Network, seed uint64) {
	t.Helper()
	a, b := mk(), mk()
	w, h, n := a.Width(), a.Height(), a.NumPEs()

	rng := xrand.New(seed)
	const perPE, cycles = 40, 600
	dsts := make([][]noc.Coord, n)
	for pe := range dsts {
		for k := 0; k < perPE; k++ {
			dsts[pe] = append(dsts[pe], noc.Coord{X: rng.Intn(w), Y: rng.Intn(h)})
		}
	}
	// Gates stay open for runs of cycles and close for shorter ones.
	open := make([]bool, cycles*n)
	for pe := 0; pe < n; pe++ {
		on := true
		for c := 0; c < cycles; c++ {
			if rng.Bool(0.08) {
				on = !on
			}
			open[c*n+pe] = on
		}
	}
	replace := make([]bool, cycles*n)
	for i := range replace {
		replace[i] = rng.Bool(0.03)
	}

	clients := [2]*offerClient{{nw: a, latch: true}, {nw: b}}
	for _, cl := range clients {
		cl.qpos, cl.ver = make([]int, n), make([]int, n)
		cl.held, cl.sent = make([]bool, n), make([]int, n)
	}
	replaced := map[int64]bool{}
	var heldAccepts, heldReplaces, heldWithdraws int

	for c := 0; ; c++ {
		if c >= cycles && a.InFlight() == 0 && b.InFlight() == 0 {
			break
		}
		if c > cycles+50*n {
			t.Fatalf("networks did not drain (in flight %d / %d)", a.InFlight(), b.InFlight())
		}
		offered := make([]bool, n)
		for _, cl := range clients {
			for pe := 0; pe < n; pe++ {
				live := c < cycles && open[c*n+pe] && cl.qpos[pe] < perPE
				if live && replace[c*n+pe] {
					if cl.latch && cl.held[pe] {
						heldReplaces++
						replaced[cl.head(pe, w, dsts).ID] = true
					}
					cl.ver[pe]++
				}
				switch {
				case !cl.latch && live:
					cl.nw.Offer(pe, cl.head(pe, w, dsts))
				case !cl.latch:
					cl.nw.Withdraw(pe)
				case live && (!cl.held[pe] || cl.sent[pe] != cl.ver[pe]):
					cl.nw.Offer(pe, cl.head(pe, w, dsts))
					cl.held[pe], cl.sent[pe] = true, cl.ver[pe]
					offered[pe] = true
				case !live && cl.held[pe]:
					cl.nw.Withdraw(pe)
					cl.held[pe] = false
					heldWithdraws++
				}
			}
		}
		now := int64(c)
		a.Step(now)
		b.Step(now)

		accA, accB := a.AcceptedPEs(), b.AcceptedPEs()
		if !reflect.DeepEqual(append([]int{}, accA...), append([]int{}, accB...)) {
			t.Fatalf("cycle %d: latched offers accepted %v, re-offered %v", c, accA, accB)
		}
		for i, pe := range accA {
			if i > 0 && accA[i-1] >= pe {
				t.Fatalf("cycle %d: AcceptedPEs not ascending: %v", c, accA)
			}
			if !a.Accepted(pe) {
				t.Fatalf("cycle %d: PE %d listed accepted but Accepted is false", c, pe)
			}
			if c >= cycles || !open[c*n+pe] {
				t.Fatalf("cycle %d: PE %d injected while its gate was closed", c, pe)
			}
			if !offered[pe] {
				heldAccepts++
			}
		}
		for _, cl := range clients {
			for _, pe := range accA {
				if replaced[cl.head(pe, w, dsts).ID] {
					t.Fatalf("cycle %d: PE %d injected replaced packet", c, pe)
				}
				cl.qpos[pe]++
				cl.ver[pe] = 0
				cl.held[pe] = false
			}
		}
		if !reflect.DeepEqual(a.Delivered(), b.Delivered()) {
			t.Fatalf("cycle %d: deliveries diverged:\nlatched:    %v\nre-offered: %v", c, a.Delivered(), b.Delivered())
		}
	}
	if *a.Counters() != *b.Counters() {
		t.Fatalf("counters diverged:\nlatched:    %+v\nre-offered: %+v", *a.Counters(), *b.Counters())
	}
	if a.Counters().InjectionStalls == 0 || heldAccepts == 0 || heldReplaces == 0 || heldWithdraws == 0 {
		t.Fatalf("schedule too gentle: %d stalls, %d latched accepts, %d replacements, %d withdrawals",
			a.Counters().InjectionStalls, heldAccepts, heldReplaces, heldWithdraws)
	}
}
