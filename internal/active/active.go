// Package active keeps the listing behind the engine's sim.ActiveSet fast
// path, shared by the synthetic and trace workloads.
package active

// List holds the PEs whose head packet is new, in the order they were
// listed. Entries are compacted lazily by AppendTo, and a PE listed again
// before the compaction reached it keeps its place — so the order is the
// one a live list of non-empty queues had when the engine re-offered every
// cycle. The zero value is unusable; build
// with NewList.
type List struct {
	pes   []int
	state []uint8
}

const (
	peListed  uint8 = 1 << iota // wants a Pending poll
	peEntered                   // has an entry in pes
)

// NewList returns an empty list over PEs [0, n).
func NewList(n int) List { return List{state: make([]uint8, n)} }

// List marks pe's head packet as new.
func (l *List) List(pe int) {
	st := l.state[pe]
	if st&peListed != 0 {
		return
	}
	if st&peEntered == 0 {
		l.pes = append(l.pes, pe)
	}
	l.state[pe] = peListed | peEntered
}

// Unlist records that Pending returned pe's head.
func (l *List) Unlist(pe int) { l.state[pe] &^= peListed }

// AppendTo appends the listed PEs to buf in list order and drops the
// entries of PEs no longer listed.
func (l *List) AppendTo(buf []int) []int {
	kept := l.pes[:0]
	for _, pe := range l.pes {
		if l.state[pe]&peListed == 0 {
			l.state[pe] = 0
			continue
		}
		kept = append(kept, pe)
		buf = append(buf, pe)
	}
	l.pes = kept
	return buf
}
