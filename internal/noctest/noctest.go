// Package noctest holds the shard-equivalence harness shared by the
// network packages' tests. It drives a sequential instance and a sharded
// instance of the same network through an identical precomputed offer
// schedule and asserts that the delivered packet stream, event counters,
// telemetry event log, and residual in-flight population are bit-identical.
//
// The sharded run steps its shards on real goroutines behind a WaitGroup,
// so running these tests under -race doubles as the data-race gate for the
// shard protocol.
package noctest

import (
	"reflect"
	"sync"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/xrand"
)

// Event is one recorded router-level telemetry event.
type Event struct {
	Kind   string
	Now    int64
	Router int
	Port   noc.Port
	P      noc.Packet
}

// Recorder captures the four router-level events for order comparison.
type Recorder struct {
	telemetry.Base
	Events []Event
}

func (r *Recorder) add(kind string, now int64, router int, port noc.Port, p *noc.Packet) {
	r.Events = append(r.Events, Event{Kind: kind, Now: now, Router: router, Port: port, P: *p})
}

// OnHop implements telemetry.Observer.
func (r *Recorder) OnHop(now int64, router int, out noc.Port, p *noc.Packet) {
	r.add("hop", now, router, out, p)
}

// OnExpressHop implements telemetry.Observer.
func (r *Recorder) OnExpressHop(now int64, router int, out noc.Port, p *noc.Packet) {
	r.add("exhop", now, router, out, p)
}

// OnDeflect implements telemetry.Observer.
func (r *Recorder) OnDeflect(now int64, router int, in noc.Port, p *noc.Packet) {
	r.add("deflect", now, router, in, p)
}

// OnExpressDenied implements telemetry.Observer.
func (r *Recorder) OnExpressDenied(now int64, router int, in noc.Port, p *noc.Packet) {
	r.add("denied", now, router, in, p)
}

type runResult struct {
	delivered []noc.Packet
	counters  noc.Counters
	events    []Event
	inFlight  int
}

// ShardEquivalence builds one network per shard count via mk, replays the
// same Bernoulli(rate) offer schedule through each, and requires every
// sharded run to match the sequential (shards=1) run exactly. cycles is the
// offered-traffic window; after it the fabric drains with no new offers.
func ShardEquivalence(t *testing.T, mk func() noc.ShardedNetwork, shardCounts []int, seed uint64, cycles int, rate float64) {
	t.Helper()

	probe := mk()
	w, h, n := probe.Width(), probe.Height(), probe.NumPEs()

	// Precomputed schedule: per-PE destination queues plus a per-(cycle,PE)
	// offer gate. Identical for every run; a PE re-offers the head of its
	// queue until the network accepts it, and withdraws it on gated-off
	// cycles.
	rng := xrand.New(seed)
	const perPE = 24
	queues := make([][]noc.Coord, n)
	for pe := 0; pe < n; pe++ {
		src := noc.PECoord(pe, w)
		for q := 0; q < perPE; q++ {
			for {
				dst := noc.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
				if dst != src {
					queues[pe] = append(queues[pe], dst)
					break
				}
			}
		}
	}
	gates := make([]bool, cycles*n)
	for i := range gates {
		gates[i] = rng.Bool(rate)
	}

	run := func(shards int) runResult {
		nw := mk()
		rec := &Recorder{}
		var fan *telemetry.ShardFanIn
		if shards == 1 {
			nw.(interface{ SetObserver(telemetry.Observer) }).SetObserver(rec)
		} else {
			got, err := nw.ConfigureShards(shards)
			if err != nil {
				t.Fatalf("ConfigureShards(%d): %v", shards, err)
			}
			shards = got
			fan = telemetry.NewShardFanIn(rec, shards)
			nw.(telemetry.ShardObservable).SetShardObservers(fan.Observers())
		}

		step := func(now int64) {
			if shards == 1 {
				nw.Step(now)
				return
			}
			nw.BeginCycle(now)
			var wg sync.WaitGroup
			for k := 0; k < shards; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					nw.StepShard(k, now)
				}(k)
			}
			wg.Wait()
			nw.EndCycle(now)
			fan.Flush()
		}

		qpos := make([]int, n)
		var delivered []noc.Packet
		var offered []int
		maxCycles := cycles + 20*n // offered window + generous drain
		for c := 0; c < maxCycles; c++ {
			now := int64(c)
			offered = offered[:0]
			for pe := 0; pe < n; pe++ {
				if c < cycles && qpos[pe] < len(queues[pe]) && gates[c*n+pe] {
					nw.Offer(pe, noc.Packet{
						ID:  int64(pe)<<32 | int64(qpos[pe]),
						Src: noc.PECoord(pe, w),
						Dst: queues[pe][qpos[pe]],
						Gen: now,
					})
					offered = append(offered, pe)
				} else {
					nw.Withdraw(pe)
				}
			}
			step(now)
			for _, pe := range offered {
				if nw.Accepted(pe) {
					qpos[pe]++
				}
			}
			delivered = append(delivered, nw.Delivered()...)
			if c >= cycles && nw.InFlight() == 0 {
				break
			}
		}
		return runResult{
			delivered: delivered,
			counters:  *nw.Counters(),
			events:    rec.Events,
			inFlight:  nw.InFlight(),
		}
	}

	seq := run(1)
	if seq.inFlight != 0 {
		t.Fatalf("sequential run did not drain: %d in flight", seq.inFlight)
	}
	if len(seq.delivered) == 0 {
		t.Fatal("sequential run delivered nothing; schedule too sparse")
	}
	for _, s := range shardCounts {
		if s == 1 {
			continue
		}
		got := run(s)
		if got.inFlight != 0 {
			t.Fatalf("shards=%d: did not drain, %d in flight", s, got.inFlight)
		}
		if !reflect.DeepEqual(seq.delivered, got.delivered) {
			t.Fatalf("shards=%d: delivered stream diverged (%d vs %d packets)", s, len(seq.delivered), len(got.delivered))
		}
		if seq.counters != got.counters {
			t.Fatalf("shards=%d: counters diverged\nseq: %+v\nshd: %+v", s, seq.counters, got.counters)
		}
		if !reflect.DeepEqual(seq.events, got.events) {
			t.Fatalf("shards=%d: telemetry event log diverged (%d vs %d events)", s, len(seq.events), len(got.events))
		}
	}
}
