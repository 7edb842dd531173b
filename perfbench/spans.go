package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one job share Job; Parent links a span to the span that
// caused it. Per-cycle calls (router Step, workload methods) are never one
// span per call: a decorated run contributes one aggregate child per cost
// center, laid end to end from the parent's start, so child coverage (and
// therefore self time) still adds up.
type span struct {
	ID, Parent int64
	Job        string
	Name       string
	Layer      string
	Lane       int
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps every span in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op, so the measured code paths are
// the same with tracing on and off apart from the recording itself.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records s, assigning it an ID (returned) when it has none.
func (l *spanLog) add(s span) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID == 0 {
		l.next++
		s.ID = l.next
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// newID reserves an ID for a parent span recorded after its children.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// addRun records a decorated sim.Run as a span with its aggregate Step,
// workload and clock-read children, returning the run span's ID.
func (l *spanLog) addRun(parent int64, job, layer string, lane int, start time.Time, lt layerTimes) int64 {
	if l == nil {
		return 0
	}
	id := l.add(span{Parent: parent, Job: job, Name: "sim.Run", Layer: "sim", Lane: lane,
		Start: start, End: start.Add(lt.Run)})
	stepEnd := start.Add(lt.Step)
	wlEnd := stepEnd.Add(lt.Workload)
	l.add(span{Parent: id, Job: job, Name: "noc.Step", Layer: layer, Lane: lane,
		Start: start, End: stepEnd})
	l.add(span{Parent: id, Job: job, Name: "workload", Layer: "workload", Lane: lane,
		Start: stepEnd, End: wlEnd})
	l.add(span{Parent: id, Job: job, Name: "clock reads", Layer: "perfbench", Lane: lane,
		Start: wlEnd, End: wlEnd.Add(lt.Clock)})
	return id
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (clipped to the span), keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, k int) bool { return kids[i].Start.Before(kids[k].Start) })
		var covered time.Duration
		var cur time.Time // end of the union so far
		for _, c := range kids {
			lo, hi := c.Start, c.End
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name.
func (l *spanLog) selfByName() map[string]time.Duration {
	self := selfTimes(l.spans)
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the log as Chrome trace-event JSON (Perfetto-loadable),
// with each span's ID, parent, job and self time in its args.
func (l *spanLog) writeChrome(path string) error {
	self := selfTimes(l.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: s.Lane,
			TS:  float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "job": s.Job,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		}); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
