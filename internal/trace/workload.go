package trace

import (
	"fmt"

	"fasttrack/internal/active"
	"fasttrack/internal/noc"
)

// Workload replays a Trace against a network as a sim.Workload. Injection
// is dependency-driven: event i becomes ready Delay cycles after its last
// dependency is delivered (root events become ready at Delay). Each PE
// injects its ready events in readiness order.
//
// Self-addressed events (src == dst) model local compute handoffs: they
// complete without network traffic, after their Delay, and release their
// dependents — important for the LU dataflow traces where much of the DAG
// is local.
type Workload struct {
	tr        *Trace
	width     int
	remaining []int32 // unmet dependency count per event
	deps      [][]int32
	readyQ    []eventHeap // per PE, keyed by ready time
	// selfQ holds ready self-addressed events, completed during Tick.
	selfQ     eventHeap
	completed int

	// listed backs the sim.ActiveSet fast path: a PE is listed when an
	// event becomes its readyQ root (its queue was empty, or the event sorts
	// before the root Pending already returned) or Injected exposes a new
	// root, and stays listed — even while the root is not ready yet — until
	// Pending returns the root.
	listed active.List
}

// item pairs an event index with the cycle it becomes injectable.
type item struct {
	ev      int32
	readyAt int64
}

type eventHeap []item

func (h eventHeap) Len() int      { return len(h) }
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eventHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].ev < h[j].ev
}
func (h *eventHeap) Push(x any) { *h = append(*h, x.(item)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pushItem and popItem are typed equivalents of container/heap's Push and
// Pop, avoiding an interface allocation per event on the replay hot path.
// Less is a strict total order (ev tiebreak), so pop order is identical.
// pushItem reports whether it became the root.
func (h *eventHeap) pushItem(it item) bool {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.Less(i, parent) {
			break
		}
		q.Swap(i, parent)
		i = parent
	}
	return i == 0
}

func (h *eventHeap) popItem() item {
	q := *h
	n := len(q) - 1
	q.Swap(0, n)
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.Less(r, l) {
			j = r
		}
		if !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}

// NewWorkload prepares tr for replay on a width×height network. The trace's
// PE count must equal width*height.
func NewWorkload(tr *Trace, width, height int) (*Workload, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.PEs != width*height {
		return nil, fmt.Errorf("trace %q targets %d PEs, network has %d", tr.Name, tr.PEs, width*height)
	}
	w := &Workload{
		tr:        tr,
		width:     width,
		remaining: make([]int32, len(tr.Events)),
		deps:      make([][]int32, len(tr.Events)),
		readyQ:    make([]eventHeap, tr.PEs),
		listed:    active.NewList(tr.PEs),
	}
	for i, e := range tr.Events {
		w.remaining[i] = int32(len(e.Deps))
		for _, d := range e.Deps {
			w.deps[d] = append(w.deps[d], int32(i))
		}
	}
	// Seed root events.
	for i, e := range tr.Events {
		if w.remaining[i] == 0 {
			w.schedule(int32(i), int64(e.Delay))
		}
	}
	return w, nil
}

func (w *Workload) schedule(ev int32, readyAt int64) {
	e := &w.tr.Events[ev]
	if e.Src == e.Dst {
		w.selfQ.pushItem(item{ev: ev, readyAt: readyAt})
		return
	}
	if w.readyQ[e.Src].pushItem(item{ev: ev, readyAt: readyAt}) {
		w.listed.List(e.Src)
	}
}

// complete marks ev finished at cycle now and releases its dependents.
func (w *Workload) complete(ev int32, now int64) {
	w.completed++
	for _, dep := range w.deps[ev] {
		w.remaining[dep]--
		if w.remaining[dep] == 0 {
			w.schedule(dep, now+int64(w.tr.Events[dep].Delay))
		}
	}
}

// Tick implements sim.Workload: retire self-addressed events whose compute
// delay has elapsed.
func (w *Workload) Tick(now int64) {
	for len(w.selfQ) > 0 && w.selfQ[0].readyAt <= now {
		it := w.selfQ.popItem()
		w.complete(it.ev, now)
	}
}

// Pending implements sim.Workload.
func (w *Workload) Pending(pe int, now int64) (noc.Packet, bool) {
	q := w.readyQ[pe]
	if len(q) == 0 || q[0].readyAt > now {
		return noc.Packet{}, false
	}
	w.listed.Unlist(pe)
	ev := q[0].ev
	e := &w.tr.Events[ev]
	return noc.Packet{
		ID:    int64(ev),
		Src:   noc.PECoord(e.Src, w.width),
		Dst:   noc.PECoord(e.Dst, w.width),
		Gen:   q[0].readyAt,
		Event: ev,
	}, true
}

// Injected implements sim.Workload.
func (w *Workload) Injected(pe int, _ int64) {
	w.readyQ[pe].popItem()
	if len(w.readyQ[pe]) > 0 {
		w.listed.List(pe)
	}
}

// Delivered implements sim.Workload: a delivered packet completes its event
// and may release dependents.
func (w *Workload) Delivered(p noc.Packet, now int64) {
	w.complete(p.Event, now)
}

// ActivePEs implements sim.ActiveSet: the PEs whose readyQ root is new.
// PEs whose root is not ready yet are included (a permitted superset).
func (w *Workload) ActivePEs(buf []int) []int { return w.listed.AppendTo(buf) }

// Done implements sim.Workload.
func (w *Workload) Done() bool { return w.completed == len(w.tr.Events) }

// Completed returns the number of finished events.
func (w *Workload) Completed() int { return w.completed }
