package main

import (
	"os"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// runSyntheticTimed is core.RunSynthetic's plain path run through the timing
// decorators. The benchmark's jobs set none of the fault, retry,
// regulation, cycle-bound or early-exit options, so the result must be
// DeepEqual to core.RunSynthetic's.
func runSyntheticTimed(cfg core.Config, opts core.SyntheticOptions) (sim.Result, layerTimes, error) {
	pat, err := traffic.ByName(opts.Pattern)
	if err != nil {
		return sim.Result{}, layerTimes{}, err
	}
	net, err := cfg.Build()
	if err != nil {
		return sim.Result{}, layerTimes{}, err
	}
	wl := traffic.NewSynthetic(net.Width(), net.Height(), pat, opts.Rate, opts.PacketsPerPE, opts.Seed)
	return runTimed(net, wl, sim.Options{})
}

// families are the router families the noc.* per-family metrics split by.
var families = []string{"hoplite", "fasttrack", "multichannel"}

func family(cfg core.Config) string {
	switch cfg.Kind {
	case core.KindFastTrack:
		return "fasttrack"
	case core.KindMultiChannel:
		return "multichannel"
	}
	return "hoplite"
}

// routers is the number of routers Step advances per cycle.
func routers(cfg core.Config) int64 {
	r := int64(cfg.N * cfg.N)
	if cfg.Kind == core.KindMultiChannel && cfg.Channels > 1 {
		r *= int64(cfg.Channels)
	}
	return r
}

// famAgg is one router family's share of the decorated runs.
type famAgg struct {
	step                   time.Duration
	routerCycles           int64
	deflections, delivered int64
}

// simAgg sums decorated sim.Run breakdowns across a workload's jobs.
type simAgg struct {
	run, step, wl, self         time.Duration
	cycles, idle, steps         int64
	routerCycles                int64
	injected, delivered         int64
	deflections, short, express int64
	fam                         map[string]*famAgg
}

func (a *simAgg) add(cfg core.Config, res sim.Result, lt layerTimes) {
	if a.fam == nil {
		a.fam = map[string]*famAgg{}
	}
	f := a.fam[family(cfg)]
	if f == nil {
		f = &famAgg{}
		a.fam[family(cfg)] = f
	}
	rc := lt.Steps * routers(cfg)
	a.run += lt.Run
	a.step += lt.Step
	a.wl += lt.Workload
	a.self += lt.Self()
	a.cycles += res.Cycles
	a.idle += lt.Idle
	a.steps += lt.Steps
	a.routerCycles += rc
	a.injected += res.Injected
	a.delivered += res.Delivered
	defl := res.Counters.TotalDeflections()
	a.deflections += defl
	a.short += res.Counters.ShortTraversals
	a.express += res.Counters.ExpressTraversals
	f.step += lt.Step
	f.routerCycles += rc
	f.deflections += defl
	f.delivered += res.Delivered
}

// report sets the sim.* and noc.* metrics. The workload share goes to the
// traffic.* metrics for synthetic traffic, to trace.ns_per_event for replay.
func (a *simAgg) report(b *bench, traceEvents int64) {
	b.set("sim.router_cycles_per_s", ratio(float64(a.routerCycles), a.run.Seconds()), "1/s")
	b.set("sim.self_ns_per_cycle", ratio(float64(a.self), float64(a.cycles)), "ns")
	b.set("sim.idle_cycle_frac", ratio(float64(a.idle), float64(a.steps)), "frac")
	b.set("sim.cycles", float64(a.cycles), "count")
	b.set("noc.step_ns_per_router_cycle", ratio(float64(a.step), float64(a.routerCycles)), "ns")
	b.set("noc.step_share", ratio(float64(a.step), float64(a.run)), "frac")
	b.set("noc.deflections_per_packet", ratio(float64(a.deflections), float64(a.delivered)), "count")
	b.set("noc.express_hop_frac", ratio(float64(a.express), float64(a.short+a.express)), "frac")
	for _, name := range families {
		f := a.fam[name]
		if f == nil {
			b.notMeasured("no "+name+" network in this workload",
				"noc.step_ns_per_router_cycle."+name, "noc.deflections_per_packet."+name)
			continue
		}
		b.set("noc.step_ns_per_router_cycle."+name, ratio(float64(f.step), float64(f.routerCycles)), "ns")
		b.set("noc.deflections_per_packet."+name, ratio(float64(f.deflections), float64(f.delivered)), "count")
	}
	if traceEvents > 0 {
		b.set("trace.ns_per_event", ratio(float64(a.wl), float64(traceEvents)), "ns")
		b.notMeasured("no synthetic traffic generator in this workload", "traffic.")
		return
	}
	b.set("traffic.ns_per_packet", ratio(float64(a.wl), float64(a.injected)), "ns")
	b.set("traffic.share", ratio(float64(a.wl), float64(a.run)), "frac")
}

// cacheEntry is one (key, result) pair the run produced.
type cacheEntry struct {
	key string
	res sim.Result
}

// measureCache replays runner.Cache.Put and Get on the run's own keys and
// results in a fresh directory and records the per-call medians and the
// on-disk size per entry.
func measureCache(b *bench, dir string, entries []cacheEntry) error {
	c, err := runner.NewCache(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for _, e := range entries {
		t0 := time.Now()
		if err := c.Put(e.key, e.res); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var bytes int64
	for _, e := range entries {
		var got sim.Result
		t0 := time.Now()
		ok := c.Get(e.key, &got)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		b.check(ok, "cache replay: Get(%q) missed after Put", e.key)
		if st, err := fileSize(c.Path(e.key)); err == nil {
			bytes += st
		}
	}
	b.set("runner.cache_put_us", median(puts), "us")
	b.set("runner.cache_get_us", median(gets), "us")
	b.set("runner.cache_kb_per_entry", ratio(float64(bytes)/1e3, float64(len(entries))), "kB")
	return nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
