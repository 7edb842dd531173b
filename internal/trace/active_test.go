package trace

import (
	"slices"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
)

// listedWorkload is what the ActiveSet test drives: Workload and Stream.
type listedWorkload interface {
	sim.Workload
	sim.ActiveSet
}

// TestActiveSetRelistsReplacedHead pins the ActiveSet contract for the root
// replacement case. PE 0's event 2 becomes ready at cycle 5 and Pending
// returns it, which unlists PE 0. In the same cycle the delivery of event 0
// releases event 1 — also from PE 0, delay 0, so ready at cycle 5, and with
// a lower index, so it sorts before the head already returned. PE 0's head
// is new again: it must be listed, and Pending must return event 1.
func TestActiveSetRelistsReplacedHead(t *testing.T) {
	tr := &Trace{
		Name: "relist",
		PEs:  4,
		Events: []Event{
			{Src: 1, Dst: 2},
			{Src: 0, Dst: 3, Deps: []int32{0}},
			{Src: 0, Dst: 3, Delay: 5},
		},
	}
	mem, err := NewWorkload(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewStream(tr, 2, 2, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, wl := range map[string]listedWorkload{"workload": mem, "stream": str} {
		t.Run(name, func(t *testing.T) {
			listed := func(pe int) bool { return slices.Contains(wl.ActivePEs(nil), pe) }
			wl.Tick(0)
			p0, ok := wl.Pending(1, 0)
			if !ok || p0.Event != 0 {
				t.Fatalf("cycle 0: PE 1 pending %+v %v, want event 0", p0, ok)
			}
			wl.Injected(1, 0)
			if !listed(0) {
				t.Fatal("PE 0 with a queued event must stay listed until Pending returns it")
			}
			if _, ok := wl.Pending(0, 4); ok {
				t.Fatal("event 2 returned before its delay elapsed")
			}
			if !listed(0) {
				t.Fatal("a not-ready head must keep PE 0 listed")
			}

			wl.Tick(5)
			head, ok := wl.Pending(0, 5)
			if !ok || head.Event != 2 {
				t.Fatalf("cycle 5: PE 0 pending %+v %v, want event 2", head, ok)
			}
			if listed(0) {
				t.Fatal("PE 0 still listed after Pending returned its head")
			}
			wl.Delivered(noc.Packet{ID: 0, Event: 0, Src: noc.PECoord(1, 2), Dst: noc.PECoord(2, 2)}, 5)
			if !listed(0) {
				t.Fatal("event 1 replaced PE 0's returned head, but PE 0 was not listed again")
			}
			if head, ok := wl.Pending(0, 6); !ok || head.Event != 1 {
				t.Fatalf("cycle 6: PE 0 pending %+v %v, want event 1", head, ok)
			}
		})
	}
}
