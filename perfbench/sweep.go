package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/experiments"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// The sweep-synth workload regenerates the data behind Figs 11, 12 and 13
// in one process through the experiments data functions, with a
// benchmark-owned orchestrator and a fresh empty result cache per sweep:
// 210 simulations on the default batched path plus 150 cache hits (Fig 12
// re-reads Fig 11's entries, Fig 13's 64-PE Hoplite/FT curves re-read
// Fig 11's RANDOM ones).

// sweepQuota is the per-PE packet budget. The paper uses 1000; 300 keeps one
// sweep near 4-5 s on two cores, so a 30 s window holds six and the medians
// are taken over sweeps rather than resting on one.
const sweepQuota = 300

// sweepMinReps is the fewest sweeps a run measures.
const sweepMinReps = 3

// crossChecks is how many simulations an untraced run re-runs on the
// per-job path to compare against the batched results.
const crossChecks = 8

// sweepJob is one simulation of the figure grids.
type sweepJob struct {
	name string // digest key, e.g. "fig11 8x8 FT(64,2,1) RANDOM 0.5"
	cfg  core.Config
	opts core.SyntheticOptions
}

func (j sweepJob) key() string { return runner.SyntheticKey(j.cfg, j.opts) }

// point is the RatePoint the figure function must return for the job.
func (j sweepJob) point(pattern string) experiments.RatePoint {
	return experiments.RatePoint{Config: j.cfg.String(), Pattern: pattern, InjectionRate: j.opts.Rate}
}

// sweepGrid mirrors the figure grids job for job, in the order the figure
// data functions return their points: Fig 11 is patterns × {FT(64,2,1),
// FT(64,2,2), Hoplite} × rates on 8×8; Fig 13 is RANDOM on 4×4, 8×8 and
// 16×16 × {Hoplite-3x, Hoplite, FT(N,2,2), FT(N,2,1)} × rates.
func sweepGrid(sc experiments.Scale) (fig11, fig13 []sweepJob) {
	add := func(list []sweepJob, fig string, n int, cfg core.Config, pat string) []sweepJob {
		for _, rate := range sc.Rates {
			list = append(list, sweepJob{
				name: fmt.Sprintf("%s %dx%d %s %s %g", fig, n, n, cfg, pat, rate),
				cfg:  cfg,
				opts: core.SyntheticOptions{Pattern: pat, Rate: rate, PacketsPerPE: sc.Quota, Seed: sc.Seed},
			})
		}
		return list
	}
	for _, pat := range []string{"BITCOMPL", "LOCAL", "RANDOM", "TRANSPOSE"} {
		for _, cfg := range []core.Config{core.FastTrack(8, 2, 1), core.FastTrack(8, 2, 2), core.Hoplite(8)} {
			fig11 = add(fig11, "fig11", 8, cfg, pat)
		}
	}
	for _, n := range []int{4, 8, 16} {
		for _, cfg := range []core.Config{core.MultiChannel(n, 3), core.Hoplite(n), core.FastTrack(n, 2, 2), core.FastTrack(n, 2, 1)} {
			fig13 = add(fig13, "fig13", n, cfg, "RANDOM")
		}
	}
	return fig11, fig13
}

// sweepSetup is what a sweep needs before its first timed call.
type sweepSetup struct {
	sc           experiments.Scale
	fig11, fig13 []sweepJob
	unique       []sweepJob // simulated jobs, first-request order
	hits         int64      // requests answered from the cache
}

func newSweepSetup(seed uint64) sweepSetup {
	sc := experiments.FullScale()
	sc.Quota = sweepQuota
	sc.Seed = seed
	s := sweepSetup{sc: sc}
	s.fig11, s.fig13 = sweepGrid(sc)
	seen := map[string]bool{}
	// Request order: Fig 11, Fig 11 again for Fig 12, then Fig 13.
	for _, list := range [][]sweepJob{s.fig11, s.fig11, s.fig13} {
		for _, j := range list {
			if seen[j.key()] {
				s.hits++
				continue
			}
			seen[j.key()] = true
			s.unique = append(s.unique, j)
		}
	}
	return s
}

// sweepRun is one timed Fig 11 → 12 → 13 sweep.
type sweepRun struct {
	orch          *runner.Orchestrator
	p11, p12, p13 []experiments.RatePoint
	figs          [3]time.Duration
	wall          time.Duration
}

// sweepOnce runs the three figures against a fresh cache in dir, recording
// figure spans (and the runner's job spans) when spans is non-nil.
func sweepOnce(s sweepSetup, dir string, spans *spanLog) (sweepRun, error) {
	cache, err := runner.NewCache(dir)
	if err != nil {
		return sweepRun{}, err
	}
	r := sweepRun{orch: &runner.Orchestrator{Cache: cache, Workers: procs()}}
	if spans != nil {
		r.orch.Spans = runner.NewSpanLog()
	}
	sc := s.sc
	sc.Orch = r.orch
	calls := []struct {
		name string
		out  *[]experiments.RatePoint
		data func(experiments.Scale) ([]experiments.RatePoint, error)
	}{
		{"fig11", &r.p11, experiments.Fig11Data},
		{"fig12", &r.p12, experiments.Fig11Data},
		{"fig13", &r.p13, experiments.Fig13Data},
	}
	root := spans.newID()
	start := time.Now()
	var figSpans []span
	for i, c := range calls {
		t0 := time.Now()
		pts, err := c.data(sc)
		if err != nil {
			return r, fmt.Errorf("%s: %w", c.name, err)
		}
		*c.out = pts
		r.figs[i] = time.Since(t0)
		figSpans = append(figSpans, span{ID: spans.newID(), Parent: root, Job: c.name, Name: c.name,
			Layer: "experiments", Start: t0, End: t0.Add(r.figs[i])})
	}
	r.wall = time.Since(start)
	if spans != nil {
		spans.add(span{ID: root, Job: "sweep", Name: "sweep", Layer: "experiments", Start: start, End: start.Add(r.wall)})
		for _, f := range figSpans {
			spans.add(f)
		}
		// Each runner job belongs to the figure call whose interval holds it.
		for _, rs := range r.orch.Spans.Spans() {
			parent := root
			for _, f := range figSpans {
				if !rs.Start.Before(f.Start) && !rs.End.After(f.End) {
					parent = f.ID
				}
			}
			spans.add(span{Parent: parent, Job: rs.Key, Name: "runner.job", Layer: "runner",
				Lane: rs.Worker + 1, Start: rs.Start, End: rs.End})
		}
	}
	return r, nil
}

// checkSweep verifies one sweep's points against the grid, Fig 12 against
// Fig 11, the first sweep (determinism) and the orchestrator's accounting.
func checkSweep(b *bench, s sweepSetup, r, first sweepRun) {
	checkPoints := func(fig string, pts []experiments.RatePoint, jobs []sweepJob, pattern func(sweepJob) string) {
		if !b.check(len(pts) == len(jobs), "%s: %d points, grid has %d", fig, len(pts), len(jobs)) {
			return
		}
		for i, j := range jobs {
			p, want := pts[i], j.point(pattern(j))
			b.check(p.Config == want.Config && p.Pattern == want.Pattern && p.InjectionRate == want.InjectionRate,
				"%s point %d is %s/%s@%g, grid says %s", fig, i, p.Config, p.Pattern, p.InjectionRate, j.name)
		}
	}
	plain := func(j sweepJob) string { return j.opts.Pattern }
	checkPoints("fig11", r.p11, s.fig11, plain)
	checkPoints("fig13", r.p13, s.fig13, func(j sweepJob) string {
		return fmt.Sprintf("RANDOM/%dPE", j.cfg.N*j.cfg.N)
	})
	b.check(reflect.DeepEqual(r.p12, r.p11), "fig12 points differ from fig11's")
	if first.orch != nil {
		b.check(reflect.DeepEqual(r.p11, first.p11) && reflect.DeepEqual(r.p13, first.p13),
			"sweep results changed between sweeps of one run")
	}
	executed, hits := r.orch.Stats()
	b.check(executed == int64(len(s.unique)) && hits == s.hits,
		"orchestrator counted %d simulated + %d cached, the grid needs %d + %d",
		executed, hits, len(s.unique), s.hits)
}

// sweepResults reads every simulated job's full Result back from the sweep's
// cache and checks it against the points the figures returned. The entries
// are in s.unique order.
func sweepResults(b *bench, s sweepSetup, r sweepRun, digests *digestChecker) []cacheEntry {
	pts := map[string]experiments.RatePoint{}
	for i, j := range s.fig11 {
		if i < len(r.p11) {
			pts[j.key()] = r.p11[i]
		}
	}
	for i, j := range s.fig13 {
		if i < len(r.p13) {
			pts[j.key()] = r.p13[i]
		}
	}
	out := make([]cacheEntry, len(s.unique))
	for k, j := range s.unique {
		var res sim.Result
		out[k].key = j.key()
		if !b.check(r.orch.Cache.Get(j.key(), &res), "%s: no cache entry after the sweep", j.name) {
			continue
		}
		p := pts[j.key()]
		b.check(res.Delivered == res.Injected && res.Delivered > 0 && !res.TimedOut &&
			p.SustainedRate == res.SustainedRate && p.AvgLatency == res.AvgLatency && p.WorstLatency == res.WorstLatency,
			"%s: cached result disagrees with its figure point or did not drain", j.name)
		digests.check(b, j.name, res)
		out[k].res = res
	}
	return out
}

// sweepPaperErr compares the Fig 11 FT(64,2,1)/Hoplite saturation ratios
// (sustained rate at 100% injection) with the paper's.
func sweepPaperErr(fig11 []sweepJob, p11 []experiments.RatePoint) (float64, error) {
	claims, err := loadPaper("fig11")
	if err != nil {
		return 0, err
	}
	sat := map[string]float64{}
	for i, j := range fig11 {
		if j.opts.Rate == 1.0 && i < len(p11) {
			sat[j.cfg.String()+" "+j.opts.Pattern] = p11[i].SustainedRate
		}
	}
	ours := map[string]float64{}
	for _, c := range claims {
		ours[c.Case] = ratio(sat["FT(64,2,1) "+c.Case], sat["Hoplite "+c.Case])
	}
	return paperErr(claims, ours)
}

func runSweepSynth(b *bench) error {
	s, err := timeSetup(b, 31, func(int) (sweepSetup, error) { return newSweepSetup(b.seed), nil }, nil)
	if err != nil {
		return err
	}
	digests, err := newDigestChecker(b, "sweep-synth")
	if err != nil {
		return err
	}
	cacheDir := func(i int) string { return filepath.Join(b.work, fmt.Sprintf("cache-%d", i)) }
	if b.traced {
		return tracedSweep(b, s, digests, cacheDir)
	}

	var first sweepRun
	var walls []float64
	var figs [][]float64
	var entries []cacheEntry
	err = repeat(b.seconds, sweepMinReps, func(i int) error {
		r, err := sweepOnce(s, cacheDir(i), nil)
		if err != nil {
			return err
		}
		walls = append(walls, r.wall.Seconds())
		figs = append(figs, []float64{ms(r.figs[0]), ms(r.figs[1]), ms(r.figs[2])})
		checkSweep(b, s, r, first)
		if i == 0 {
			first = r
			entries = sweepResults(b, s, r, digests)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep-synth: %d sweeps, wall %.3v s\n", len(walls), walls)
	b.set("max_rss_mb", maxRSSMB(), "MB")
	wall := assembled(figs) / 1e3
	b.set("wall_s", wall, "s")
	b.set("job_p50_ms", windowed(figs, 0.50), "ms")
	b.set("job_p99_ms", windowed(figs, 0.99), "ms")
	b.set("max_jobs_per_s", float64(len(s.fig11)*2+len(s.fig13))/wall, "1/s")

	// Cross-path check on a seeded sample: the per-job engine must reproduce
	// the batched results bit for bit.
	rng := rand.New(rand.NewSource(int64(b.seed)))
	for _, k := range rng.Perm(len(entries))[:min(crossChecks, len(entries))] {
		j := s.unique[k]
		res, err := core.RunSynthetic(context.Background(), j.cfg, j.opts)
		b.check(err == nil && reflect.DeepEqual(res, entries[k].res),
			"%s: per-job RunSynthetic differs from the batched result (err %v)", j.name, err)
	}
	if err := digests.finish(b, "sweep-synth", len(entries)); err != nil {
		return err
	}
	pe, err := sweepPaperErr(s.fig11, first.p11)
	if err != nil {
		return err
	}
	b.set("paper_err", pe, "ratio")
	b.set("ok_frac", 1-ratio(float64(b.failed), float64(b.attempted)), "frac")
	return nil
}

// tracedSweep measures one untraced and one traced sweep (trace_overhead and
// the runner layer), then re-runs every simulated job through sim.Run with
// the timing decorators (sim, noc and traffic layers), checking each against
// the batched result.
func tracedSweep(b *bench, s sweepSetup, digests *digestChecker, cacheDir func(int) string) error {
	before := sampleRuntime()
	plain, err := sweepOnce(s, cacheDir(0), nil)
	if err != nil {
		return err
	}
	b.setRuntime(before, sampleRuntime())
	checkSweep(b, s, plain, sweepRun{})
	entries := sweepResults(b, s, plain, digests)

	traced, err := sweepOnce(s, cacheDir(1), b.spans)
	if err != nil {
		return err
	}
	checkSweep(b, s, traced, plain)
	b.set("trace_overhead", traced.wall.Seconds()/plain.wall.Seconds(), "ratio")

	executed, hits := traced.orch.Stats()
	b.set("runner.executed", float64(executed), "count")
	b.set("runner.cache_hits", float64(hits), "count")
	b.set("runner.hit_ratio", ratio(float64(hits), float64(executed+hits)), "frac")
	var jobs []float64
	for _, sp := range traced.orch.Spans.Spans() {
		jobs = append(jobs, ms(sp.End.Sub(sp.Start)))
	}
	b.set("runner.job_n", float64(len(jobs)), "count")
	b.set("runner.job_p50_ms", median(jobs), "ms")
	b.set("runner.job_p99_ms", quantile(jobs, 0.99), "ms")
	busy, slowest, _ := traced.orch.Timing()
	b.set("runner.worker_util", busy.Seconds()/(float64(procs())*traced.wall.Seconds()), "frac")
	b.set("runner.slowest_job_s", slowest.Seconds(), "s")
	if err := measureCache(b, cacheDir(2), entries); err != nil {
		return err
	}

	var agg simAgg
	root := b.spans.newID()
	start := time.Now()
	for k, j := range s.unique {
		t0 := time.Now()
		res, lt, err := runSyntheticTimed(j.cfg, j.opts)
		b.check(err == nil && reflect.DeepEqual(res, entries[k].res),
			"%s: decorated sim.Run differs from the batched result (err %v)", j.name, err)
		agg.add(j.cfg, res, lt)
		b.spans.addRun(root, j.name, family(j.cfg), 0, t0, lt)
	}
	b.spans.add(span{ID: root, Job: "rerun", Name: "per-job rerun", Layer: "perfbench", Start: start, End: time.Now()})
	agg.report(b, 0)
	if err := digests.finish(b, "sweep-synth", len(entries)); err != nil {
		return err
	}
	b.notMeasured("sweep-synth does not run the daemon", "serve.", "loadgen.")
	b.notMeasured("sweep-synth generates no trace files", "trace.", "workloads.")
	return nil
}
