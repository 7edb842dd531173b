package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

// The trace-replay workload records the four Fig 15 suites at their paper
// PE counts (SpMV, graph analytics and LU dataflow on 256 PEs, the overlay
// on an 8×8 NoC with 32 active threads) to FTT1 files, then replays each file
// streaming (*trace.Reader → core.RunTrace) on Hoplite and on the Fig 15
// FastTrack configurations, with no result cache. The SpMV, graph and LU
// inputs are the repository's fixed synthetic stand-ins; the seed drives the
// overlay suite's generator.

// replayMinReps is the fewest replay passes a run measures.
const replayMinReps = 3

// recording is one Fig 15 trace: how to generate it and where it was
// recorded.
type recording struct {
	suite string
	n     int // torus width
	write func(io.WriteSeeker) (trace.Header, error)
	gen   func() (*trace.Trace, error)

	path string
	hdr  trace.Header
}

// configs are the NoCs the trace is replayed on: Hoplite and the FastTrack
// candidates Fig 15 picks its best from.
func (r recording) configs() []core.Config {
	return []core.Config{core.Hoplite(r.n), core.FastTrack(r.n, 2, 1), core.FastTrack(r.n, 2, 2)}
}

func fig15Recordings(seed uint64) []recording {
	var out []recording
	for _, m := range spmv.Benchmarks() {
		m := m
		out = append(out, recording{suite: "spmv", n: 16,
			write: func(w io.WriteSeeker) (trace.Header, error) { return spmv.WriteTo(m, 16, 16, spmv.Options{}, w) },
			gen:   func() (*trace.Trace, error) { return spmv.Trace(m, 16, 16, spmv.Options{}) }})
	}
	for _, g := range graphwl.Benchmarks() {
		g := g
		out = append(out, recording{suite: "graph", n: 16,
			write: func(w io.WriteSeeker) (trace.Header, error) {
				return graphwl.WriteTo(g.Graph, g.PartitionFor(256), 16, 16, graphwl.Options{}, w)
			},
			gen: func() (*trace.Trace, error) {
				return graphwl.Trace(g.Graph, g.PartitionFor(256), 16, 16, graphwl.Options{})
			}})
	}
	for _, m := range dataflow.Benchmarks() {
		m := m
		out = append(out, recording{suite: "lu", n: 16,
			write: func(w io.WriteSeeker) (trace.Header, error) {
				return dataflow.WriteTo(m, 16, 16, dataflow.Options{}, w)
			},
			gen: func() (*trace.Trace, error) { return dataflow.Trace(m, 16, 16, dataflow.Options{}) }})
	}
	for _, bm := range overlay.Benchmarks() {
		bm := bm
		out = append(out, recording{suite: "overlay", n: 8,
			write: func(w io.WriteSeeker) (trace.Header, error) { return overlay.WriteTo(bm, 8, 8, 32, seed, w) },
			gen:   func() (*trace.Trace, error) { return overlay.Trace(bm, 8, 8, 32, seed) }})
	}
	return out
}

// record writes every recording into dir, returning the recordings with
// their paths and headers and the time spent in the FTT1 writers.
func record(dir string, seed uint64) ([]recording, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	recs := fig15Recordings(seed)
	var spent time.Duration
	for i := range recs {
		r := &recs[i]
		r.path = filepath.Join(dir, fmt.Sprintf("%02d.ftt", i))
		f, err := os.Create(r.path)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		r.hdr, err = r.write(f)
		spent += time.Since(t0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, fmt.Errorf("recording %s: %w", r.path, err)
		}
	}
	return recs, spent, nil
}

// replayName names one (trace, config) replay for digests and spans.
func replayName(r recording, cfg core.Config) string {
	return fmt.Sprintf("%s %dx%d %s", r.hdr.Name, r.n, r.n, cfg)
}

// replayPass replays every recording on its configurations through the
// public streaming path, returning results in recording × config order and
// each replay's wall time.
func replayPass(recs []recording) ([]sim.Result, []time.Duration, error) {
	var out []sim.Result
	var times []time.Duration
	for _, r := range recs {
		rd, err := trace.Open(r.path)
		if err != nil {
			return nil, nil, err
		}
		for _, cfg := range r.configs() {
			t0 := time.Now()
			res, err := core.RunTrace(context.Background(), cfg, rd, core.TraceOptions{})
			times = append(times, time.Since(t0))
			if err != nil {
				rd.Close()
				return nil, nil, fmt.Errorf("%s: %w", replayName(r, cfg), err)
			}
			out = append(out, res)
		}
		rd.Close()
	}
	return out, times, nil
}

// fig15PaperErr compares per-suite speedups of the best FastTrack config over
// Hoplite with the paper's: the best benchmark for the "up to" claims (SpMV,
// graph), the geometric mean for the "about" claims (LU, overlay).
func fig15PaperErr(recs []recording, results []sim.Result) (float64, error) {
	claims, err := loadPaper("fig15")
	if err != nil {
		return 0, err
	}
	best := map[string]float64{}
	logSum := map[string]float64{}
	count := map[string]int{}
	k := 0
	for _, r := range recs {
		cfgs := r.configs()
		hop := results[k].Cycles
		var ft int64
		for i := 1; i < len(cfgs); i++ {
			if c := results[k+i].Cycles; ft == 0 || c < ft {
				ft = c
			}
		}
		k += len(cfgs)
		sp := ratio(float64(hop), float64(ft))
		best[r.suite] = math.Max(best[r.suite], sp)
		logSum[r.suite] += math.Log(sp)
		count[r.suite]++
	}
	ours := map[string]float64{
		"spmv": best["spmv"], "graph": best["graph"],
		"lu":      math.Exp(logSum["lu"] / float64(count["lu"])),
		"overlay": math.Exp(logSum["overlay"] / float64(count["overlay"])),
	}
	return paperErr(claims, ours)
}

func runTraceReplay(b *bench) error {
	var recordTimes []float64
	recs, err := timeSetup(b, 3, func(i int) ([]recording, error) {
		recs, spent, err := record(filepath.Join(b.work, fmt.Sprintf("ftt-%d", i)), b.seed)
		recordTimes = append(recordTimes, spent.Seconds())
		return recs, err
	}, nil)
	if err != nil {
		return err
	}
	digests, err := newDigestChecker(b, "trace-replay")
	if err != nil {
		return err
	}
	if b.traced {
		b.set("trace.record_s", median(recordTimes), "s")
		return tracedReplay(b, recs, digests)
	}

	var first []sim.Result
	var walls []float64
	var jobs [][]float64
	err = repeat(b.seconds, replayMinReps, func(i int) error {
		t0 := time.Now()
		results, times, err := replayPass(recs)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		var pass []float64
		for _, d := range times {
			pass = append(pass, ms(d))
		}
		jobs = append(jobs, pass)
		if i == 0 {
			first = results
			return nil
		}
		for k := range results {
			b.check(reflect.DeepEqual(results[k], first[k]), "replay %d changed between passes", k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace-replay: %d passes, wall %.3v s\n", len(walls), walls)
	b.set("max_rss_mb", maxRSSMB(), "MB")
	wall := assembled(jobs) / 1e3
	b.set("wall_s", wall, "s")
	b.set("job_p50_ms", windowed(jobs, 0.50), "ms")
	b.set("job_p99_ms", windowed(jobs, 0.99), "ms")
	b.set("max_jobs_per_s", float64(len(first))/wall, "1/s")

	if _, err := checkReplays(b, recs, first, digests); err != nil {
		return err
	}
	pe, err := fig15PaperErr(recs, first)
	if err != nil {
		return err
	}
	b.set("paper_err", pe, "ratio")
	b.set("ok_frac", 1-ratio(float64(b.failed), float64(b.attempted)), "frac")
	return nil
}

// checkReplays holds the streamed results to the in-memory replay of the
// freshly generated trace (same header, DeepEqual results), to their own
// sanity conditions and, at the default seed, to the pinned digests. It
// returns the time spent generating the traces in memory.
func checkReplays(b *bench, recs []recording, streamed []sim.Result, digests *digestChecker) (time.Duration, error) {
	var gen time.Duration
	k := 0
	for _, r := range recs {
		t0 := time.Now()
		tr, err := r.gen()
		gen += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("generating %s: %w", r.hdr.Name, err)
		}
		b.check(tr.Header() == r.hdr, "%s: recorded header %+v, generated %+v", r.hdr.Name, r.hdr, tr.Header())
		for _, cfg := range r.configs() {
			name := replayName(r, cfg)
			want, err := core.RunTrace(context.Background(), cfg, tr, core.TraceOptions{})
			got := streamed[k]
			k++
			b.check(err == nil && reflect.DeepEqual(got, want),
				"%s: streamed replay differs from in-memory replay (err %v)", name, err)
			b.check(!got.TimedOut && got.Delivered > 0 && got.Delivered == got.Injected,
				"%s: replay did not drain (%d injected, %d delivered)", name, got.Injected, got.Delivered)
			digests.check(b, name, got)
		}
	}
	return gen, digests.finish(b, "trace-replay", k)
}

// tracedReplay measures one untraced and one decorated pass
// (trace_overhead, sim/noc layers, trace.ns_per_event), a bare decode pass,
// and the recordings' size.
func tracedReplay(b *bench, recs []recording, digests *digestChecker) error {
	before := sampleRuntime()
	t0 := time.Now()
	plain, _, err := replayPass(recs)
	if err != nil {
		return err
	}
	plainWall := time.Since(t0)
	b.setRuntime(before, sampleRuntime())

	var agg simAgg
	var events, bytes int64
	start := time.Now()
	k := 0
	for _, r := range recs {
		sz, err := fileSize(r.path)
		if err != nil {
			return err
		}
		bytes += sz
		rd, err := trace.Open(r.path)
		if err != nil {
			return err
		}
		file, fileStart := b.spans.newID(), time.Now()
		for _, cfg := range r.configs() {
			name := replayName(r, cfg)
			net, err := cfg.Build()
			if err != nil {
				return err
			}
			t1 := time.Now()
			st, err := trace.NewStream(rd, net.Width(), net.Height(), trace.StreamOptions{})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res, lt, err := runTimed(net, st, sim.Options{})
			if err == nil {
				err = st.Err()
			}
			b.check(err == nil && reflect.DeepEqual(res, plain[k]),
				"%s: decorated replay differs from core.RunTrace (err %v)", name, err)
			k++
			agg.add(cfg, res, lt)
			events += r.hdr.Events
			b.spans.addRun(file, name, family(cfg), 0, t1, lt)
		}
		rd.Close()
		b.spans.add(span{ID: file, Job: r.hdr.Name, Name: "replay " + r.suite, Layer: "trace",
			Start: fileStart, End: time.Now()})
	}
	tracedWall := time.Since(start)
	b.set("trace_overhead", tracedWall.Seconds()/plainWall.Seconds(), "ratio")
	agg.report(b, events)

	var recorded int64
	decode := time.Now()
	for _, r := range recs {
		n, err := decodeAll(r.path)
		if err != nil {
			return err
		}
		b.check(n == r.hdr.Events, "%s: decoded %d events, header says %d", r.hdr.Name, n, r.hdr.Events)
		recorded += n
	}
	b.set("trace.decode_ns_per_event", ratio(float64(time.Since(decode).Nanoseconds()), float64(recorded)), "ns")
	b.set("trace.bytes_per_event", ratio(float64(bytes), float64(recorded)), "B")

	gen, err := checkReplays(b, recs, plain, digests)
	if err != nil {
		return err
	}
	b.set("workloads.gen_s", gen.Seconds(), "s")
	b.notMeasured("trace-replay does not run the daemon", "serve.", "loadgen.")
	b.notMeasured("trace-replay replays through core, with no runner or result cache", "runner.")
	return nil
}

// decodeAll runs a bare cursor over a recording and returns the event count.
func decodeAll(path string) (int64, error) {
	rd, err := trace.Open(path)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	cur, err := rd.Open()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	var e trace.Event
	var n int64
	for {
		ok, err := cur.Next(&e)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			return n, nil
		}
		n++
	}
}
