package trace

import (
	"fmt"
	"math"

	"fasttrack/internal/active"
	"fasttrack/internal/noc"
)

// DefaultStreamWindow is the default cap on resident events for a streaming
// replay (see StreamOptions.Window).
const DefaultStreamWindow = 1 << 18

// StreamOptions tunes a streaming replay.
type StreamOptions struct {
	// Window caps the number of resident events: read from the source but
	// not yet retired. Replay heap usage is O(Window) — independent of the
	// trace's event count — which is what lets a 100M-event trace replay in
	// a few tens of megabytes. 0 means DefaultStreamWindow.
	//
	// When the window never binds (Window ≥ the trace's live-event high
	// water mark, always true when Window ≥ total events), the replay is
	// cycle-exact to the in-memory Workload: every event is registered
	// before its dependencies complete, so readiness times are computed
	// identically (golden-tested in core). When it binds, reading stalls
	// until completions retire resident events — modeling a bounded
	// trace-injection FIFO, as in FPGA trace-injection harnesses — and an
	// event whose dependency already retired is scheduled relative to its
	// (late) read cycle instead, which can only delay injection, never
	// reorder a dependency.
	Window int
}

// Stream replays a Source as a sim.Workload in O(window) memory. It is the
// streaming counterpart of Workload: same dependency-driven injection
// semantics, same per-PE readiness heaps, but events are decoded from the
// cursor on demand and their state lives in a fixed-size ring.
type Stream struct {
	cur    Cursor
	hdr    Header
	width  int
	window int

	// Resident events occupy ring slots [low, head) modulo len(ring). A
	// slot is retired (low advances past it) once its event completed and
	// every earlier event completed too; its completion time is forgotten
	// at that point, which is what bounds memory.
	ring      []evSlot
	low, head int64
	eof       bool
	err       error
	completed int64

	readyQ []eventHeap
	selfQ  eventHeap
	listed active.List // see Workload.listed
	now    int64       // current cycle, for conservative late-read scheduling

	// scratch is the decode target reused across fill calls; a local would
	// escape through the Cursor interface and allocate once per event.
	scratch Event
}

// evSlot is the resident state of one in-flight event.
type evSlot struct {
	src, dst   int32
	delay      int32
	remaining  int32 // unmet dependency count
	done       bool
	doneAt     int64
	dependents []int32 // later resident events waiting on this one
}

// NewStream prepares a streaming replay of src on a width×height network.
func NewStream(src Source, width, height int, opts StreamOptions) (*Stream, error) {
	hdr := src.Header()
	if err := headerGeometry(hdr, width, height); err != nil {
		return nil, err
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	// The ring never needs more slots than the trace has events.
	if int64(window) > hdr.Events {
		window = int(hdr.Events)
	}
	if window < 1 {
		window = 1
	}
	cur, err := src.Open()
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cur:    cur,
		hdr:    hdr,
		width:  width,
		window: window,
		ring:   make([]evSlot, window),
		readyQ: make([]eventHeap, hdr.PEs),
		listed: active.NewList(hdr.PEs),
	}
	s.fill()
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

func headerGeometry(hdr Header, width, height int) error {
	if hdr.PEs <= 0 {
		return fmt.Errorf("trace %q: no PEs", hdr.Name)
	}
	if hdr.PEs != width*height {
		return fmt.Errorf("trace %q targets %d PEs, network has %d", hdr.Name, hdr.PEs, width*height)
	}
	if hdr.Events > math.MaxInt32 {
		return fmt.Errorf("trace %q: %d events overflow the int32 event-id space", hdr.Name, hdr.Events)
	}
	return nil
}

// fill reads events until the window is full or the source is exhausted.
// Dependencies always point at earlier events, so everything a new event
// needs is either resident or already retired — reading never deadlocks.
func (s *Stream) fill() {
	for s.err == nil && !s.eof && s.head-s.low < int64(s.window) {
		ok, err := s.cur.Next(&s.scratch)
		if err != nil {
			s.fail(err)
			return
		}
		if !ok {
			s.eof = true
			if s.head != s.hdr.Events {
				s.fail(fmt.Errorf("trace %q: source ended at event %d of %d", s.hdr.Name, s.head, s.hdr.Events))
			}
			s.cur.Close()
			return
		}
		s.admit(&s.scratch)
	}
}

// admit registers the next event (index s.head) in the ring and schedules it
// if all its dependencies already completed.
func (s *Stream) admit(e *Event) {
	idx := s.head
	slot := &s.ring[idx%int64(s.window)]
	slot.src = int32(e.Src)
	slot.dst = int32(e.Dst)
	slot.delay = e.Delay
	slot.done = false
	slot.doneAt = 0
	slot.dependents = slot.dependents[:0]
	var remaining int32
	var base int64 // completion time of the latest already-done dependency
	for _, d := range e.Deps {
		if int64(d) < s.low {
			// The dependency completed and was retired before this event was
			// read — only possible when the window binds. Its completion
			// time is forgotten, so schedule relative to the read cycle (a
			// delay, never a reorder; see StreamOptions.Window).
			if s.now > base {
				base = s.now
			}
			continue
		}
		dep := &s.ring[int64(d)%int64(s.window)]
		if dep.done {
			if dep.doneAt > base {
				base = dep.doneAt
			}
		} else {
			dep.dependents = append(dep.dependents, int32(idx))
			remaining++
		}
	}
	slot.remaining = remaining
	s.head++
	if remaining == 0 {
		s.schedule(int32(idx), base+int64(slot.delay))
	}
}

func (s *Stream) schedule(ev int32, readyAt int64) {
	slot := &s.ring[int64(ev)%int64(s.window)]
	if slot.src == slot.dst {
		s.selfQ.pushItem(item{ev: ev, readyAt: readyAt})
		return
	}
	if s.readyQ[slot.src].pushItem(item{ev: ev, readyAt: readyAt}) {
		s.listed.List(int(slot.src))
	}
}

// complete marks ev finished at cycle now, releases its dependents, retires
// the contiguous completed prefix, and refills the window.
func (s *Stream) complete(ev int32, now int64) {
	s.completed++
	slot := &s.ring[int64(ev)%int64(s.window)]
	slot.done = true
	slot.doneAt = now
	for _, dep := range slot.dependents {
		d := &s.ring[int64(dep)%int64(s.window)]
		d.remaining--
		if d.remaining == 0 {
			s.schedule(dep, now+int64(d.delay))
		}
	}
	for s.low < s.head && s.ring[s.low%int64(s.window)].done {
		s.low++
	}
	s.fill()
}

func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first source or consistency error. A failed Stream reports
// Done to stop the engine promptly; callers must check Err afterwards
// (core.RunTrace does).
func (s *Stream) Err() error { return s.err }

// Tick implements sim.Workload (see Workload.Tick).
func (s *Stream) Tick(now int64) {
	s.now = now
	for len(s.selfQ) > 0 && s.selfQ[0].readyAt <= now {
		it := s.selfQ.popItem()
		s.complete(it.ev, now)
	}
}

// Pending implements sim.Workload.
func (s *Stream) Pending(pe int, now int64) (noc.Packet, bool) {
	q := s.readyQ[pe]
	if len(q) == 0 || q[0].readyAt > now {
		return noc.Packet{}, false
	}
	s.listed.Unlist(pe)
	ev := q[0].ev
	slot := &s.ring[int64(ev)%int64(s.window)]
	return noc.Packet{
		ID:    int64(ev),
		Src:   noc.PECoord(int(slot.src), s.width),
		Dst:   noc.PECoord(int(slot.dst), s.width),
		Gen:   q[0].readyAt,
		Event: ev,
	}, true
}

// Injected implements sim.Workload.
func (s *Stream) Injected(pe int, _ int64) {
	s.readyQ[pe].popItem()
	if len(s.readyQ[pe]) > 0 {
		s.listed.List(pe)
	}
}

// Delivered implements sim.Workload.
func (s *Stream) Delivered(p noc.Packet, now int64) {
	s.complete(p.Event, now)
}

// ActivePEs implements sim.ActiveSet (see Workload.ActivePEs).
func (s *Stream) ActivePEs(buf []int) []int { return s.listed.AppendTo(buf) }

// Done implements sim.Workload.
func (s *Stream) Done() bool {
	return s.err != nil || s.completed == s.hdr.Events
}

// Completed returns the number of finished events.
func (s *Stream) Completed() int { return int(s.completed) }
