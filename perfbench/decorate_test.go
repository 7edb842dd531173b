package main

import (
	"bytes"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
	"fasttrack/internal/workloads/overlay"
)

// TestDecoratedRunsMatch holds the timing decorators to the engine's
// contract: a decorated run returns a Result DeepEqual to the undecorated
// one, on both router families and on a streamed trace replay, and the
// decorated workload still offers through the sparse ActiveSet path.
func TestDecoratedRunsMatch(t *testing.T) {
	rec := &seekBuffer{}
	if _, err := overlay.WriteTo(overlay.Benchmarks()[1], 4, 4, 8, 3, rec); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  core.Config
		wl   func(net noc.Network) (sim.Workload, error)
	}{
		{"hoplite", core.Hoplite(4), synthetic("RANDOM", 0.3)},
		{"fasttrack", core.FastTrack(4, 2, 1), synthetic("TRANSPOSE", 1.0)},
		{"multichannel", core.MultiChannel(4, 2), synthetic("LOCAL", 0.2)},
		{"stream", core.FastTrack(4, 2, 1), func(net noc.Network) (sim.Workload, error) {
			rd, err := trace.NewReader(bytes.NewReader(rec.buf))
			if err != nil {
				return nil, err
			}
			return trace.NewStream(rd, net.Width(), net.Height(), trace.StreamOptions{})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(decorated bool) (sim.Result, layerTimes) {
				net, err := c.cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				wl, err := c.wl(net)
				if err != nil {
					t.Fatal(err)
				}
				if !decorated {
					res, err := sim.Run(net, wl, sim.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return res, layerTimes{}
				}
				res, lt, err := runTimed(net, wl, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res, lt
			}
			want, _ := run(false)
			got, lt := run(true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decorated result differs:\n got %+v\nwant %+v", got, want)
			}
			if lt.Steps == 0 || lt.Run <= 0 || lt.Cycles != want.Cycles {
				t.Fatalf("decorator recorded nothing: %+v", lt)
			}
		})
	}
}

// TestDecoratorKeepsActiveSet checks the decorator advertises ActiveSet
// exactly when the wrapped workload does.
func TestDecoratorKeepsActiveSet(t *testing.T) {
	syn := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.1, 10, 1)
	tw := &timedWorkload{wl: syn, s: newSampler(1)}
	var dwl sim.Workload = timedActiveWorkload{timedWorkload: tw, as: syn}
	if _, ok := dwl.(sim.ActiveSet); !ok {
		t.Fatal("decorated synthetic workload lost ActiveSet")
	}
	if _, ok := sim.Workload(tw).(sim.ActiveSet); ok {
		t.Fatal("bare decorator must not claim ActiveSet")
	}
}

func synthetic(pattern string, rate float64) func(net noc.Network) (sim.Workload, error) {
	return func(net noc.Network) (sim.Workload, error) {
		pat, err := traffic.ByName(pattern)
		if err != nil {
			return nil, err
		}
		return traffic.NewSynthetic(net.Width(), net.Height(), pat, rate, 40, 7), nil
	}
}

// seekBuffer is an in-memory io.WriteSeeker for FTT1 recording.
type seekBuffer struct {
	buf []byte
	off int
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	if need := b.off + len(p); need > len(b.buf) {
		b.buf = append(b.buf, make([]byte, need-len(b.buf))...)
	}
	copy(b.buf[b.off:], p)
	b.off += len(p)
	return len(p), nil
}

func (b *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case 0:
		b.off = int(offset)
	case 1:
		b.off += int(offset)
	case 2:
		b.off = len(b.buf) + int(offset)
	}
	return int64(b.off), nil
}
