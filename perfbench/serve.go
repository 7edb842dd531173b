package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/serve"
	"fasttrack/internal/sim"
)

// The serve-mixed workload drives the in-process ftserve daemon over
// loopback HTTP with an open-loop, seeded Poisson schedule of small jobs on
// procs() keep-alive connections: mostly fresh sim specs (cache miss →
// simulate → Put), about a third repeats of earlier specs (in-flight dedup
// join or cache hit) and a few small sweeps. Requests are sent at their due
// times whatever the daemon answers, every latency is measured from the due
// time, and completion is read from the public Job.Done channel, so no
// connection is held per job. A nominal-rate phase gives the latency
// metrics; a short ladder of fixed rates finds the highest rate the daemon
// sustains.

const (
	// nominalRate is the serving load the latency metrics are taken at, in
	// jobs per second: a fifth of the daemon's two-core capacity.
	nominalRate = 150.0
	// serveWindows is how many equal windows a phase's latencies are split
	// into; a run reports the median of the per-window percentiles, so one
	// host hiccup moves one window rather than the run's value.
	serveWindows = 5
	// serveLimit is the p99 latency a ladder rate must stay under.
	serveLimit = 100 * time.Millisecond
	// doneTimeout bounds the wait for a phase's jobs to finish.
	doneTimeout = 60 * time.Second
)

// ladderRates are the fixed ladder rates in jobs per second; each has a
// loadgen.job_p99_ms.r<rate> metric in BENCHMARK.json.
var ladderRates = []float64{100, 200, 400, 3200}

// specDef is one generated job spec.
type specDef struct {
	body []byte
	spec *cliflags.JobSpec // as the daemon decodes it
}

// points are the (config, options) simulations the spec asks for.
func (d specDef) points() ([]core.Config, []core.SyntheticOptions, error) {
	rates := d.spec.Rates
	if d.spec.Kind == "sim" {
		rates = []float64{d.spec.Workload.Rate}
	}
	var cfgs []core.Config
	var opts []core.SyntheticOptions
	for _, r := range rates {
		c, o, err := d.spec.SimConfig(r)
		if err != nil {
			return nil, nil, err
		}
		cfgs, opts = append(cfgs, c), append(opts, o)
	}
	return cfgs, opts, nil
}

// mixGen draws the job mix from the workload seed.
type mixGen struct {
	rng     *rand.Rand
	history []specDef
}

var (
	mixTopologies = []cliflags.Topology{
		{Kind: "hoplite", N: 4},
		{Kind: "ft", N: 4, D: 2, R: 1},
		{Kind: "multi", N: 4, Channels: 2},
	}
	mixPatterns = []string{"RANDOM", "LOCAL", "TRANSPOSE", "BITCOMPL", "TORNADO"}
)

// next returns the next request's spec: 5% fresh sweeps, 30% repeats (four
// in ten of the immediately preceding spec, which is often still in flight),
// the rest fresh sims. Fresh specs draw a 40-bit workload seed, so they never
// collide with earlier ones.
func (g *mixGen) next() (specDef, error) {
	u := g.rng.Float64()
	var spec cliflags.JobSpec
	switch {
	case u < 0.35 && u >= 0.05 && len(g.history) > 0:
		if g.rng.Float64() < 0.4 {
			return g.history[len(g.history)-1], nil
		}
		return g.history[g.rng.Intn(len(g.history))], nil
	case u < 0.05:
		topo := mixTopologies[g.rng.Intn(2)]
		spec = cliflags.JobSpec{Kind: "sweep", Topology: &topo,
			Workload: &cliflags.Workload{Pattern: "RANDOM", Rate: 0.1, PacketsPerPE: 20, Seed: g.seed()},
			Rates:    []float64{0.1, 0.2, 0.4, 0.8}}
	default:
		topo := mixTopologies[g.rng.Intn(len(mixTopologies))]
		spec = cliflags.JobSpec{Kind: "sim", Topology: &topo, Workload: &cliflags.Workload{
			Pattern:      mixPatterns[g.rng.Intn(len(mixPatterns))],
			Rate:         float64(5+g.rng.Intn(56)) / 100,
			PacketsPerPE: 20 + g.rng.Intn(61),
			Seed:         g.seed(),
		}}
	}
	return g.add(spec)
}

func (g *mixGen) seed() uint64 { return 1 + g.rng.Uint64()>>24 }

// add encodes spec, decodes it back the way the daemon will, and records it
// for repeats.
func (g *mixGen) add(spec cliflags.JobSpec) (specDef, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return specDef{}, err
	}
	dec, err := cliflags.DecodeJobSpec(bytes.NewReader(body))
	if err != nil {
		return specDef{}, fmt.Errorf("generated spec %s: %w", body, err)
	}
	d := specDef{body: body, spec: dec}
	g.history = append(g.history, d)
	return d, nil
}

// loadJob is one scheduled request.
type loadJob struct {
	at  time.Duration // due time, from the phase start
	def specDef
}

// schedule draws a Poisson arrival process of exactly rate×d requests and
// rescales it to span d, so every phase offers its nominal rate exactly and
// only the arrival pattern varies with the seed.
func (g *mixGen) schedule(rate float64, d time.Duration) ([]loadJob, error) {
	n := int(math.Round(rate * d.Seconds()))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = g.rng.ExpFloat64()
		total += gaps[i]
	}
	jobs := make([]loadJob, n)
	var t float64
	for i := range jobs {
		t += gaps[i]
		def, err := g.next()
		if err != nil {
			return nil, err
		}
		jobs[i] = loadJob{at: time.Duration(t / total * float64(d)), def: def}
	}
	return jobs, nil
}

// outcome is what the client saw of one request.
type outcome struct {
	def                 specDef
	status              int
	job                 *serve.Job
	due, sent, answered time.Time
	finished            time.Time
	err                 error
	parentSpan          int64
}

// phaseResult summarizes one phase.
type phaseResult struct {
	rate float64
	out  []outcome
	wall time.Duration // first due → last terminal
	// Per-job latencies from the due time, split into serveWindows equal
	// consecutive windows of the schedule.
	jobMS, admitMS, lateMS [serveWindows][]float64
	backlog                int
	growing                bool // backlog kept growing through the phase
	rejected               int
	failed                 int
}

// passes reports whether the phase met the ladder criteria: p99 under the
// limit, nothing refused or failed (those miss any limit), no growing
// backlog.
func (p phaseResult) passes() bool {
	return p.failed == 0 && p.rejected == 0 && !p.growing && quantile(flat(p.jobMS[:]), 0.99) <= ms(serveLimit)
}

// daemon is the in-process ftserve instance under test.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	addr   string
	url    string
	client *http.Client
	served chan error
}

// startDaemon starts the daemon with an admission queue of queueDepth jobs.
func startDaemon(cacheDir string, queueDepth int) (*daemon, error) {
	srv, err := serve.New(serve.Options{
		QueueDepth: queueDepth, Workers: procs(), SweepWorkers: procs(),
		CacheDir: cacheDir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		addr:   ln.Addr().String(),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, shuts the HTTP server and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), doneTimeout)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.http.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// sender is one keep-alive connection owned by one load-generator
// goroutine. It writes each request and parses the answer on its own
// goroutine (http.ReadResponse), so a request costs two scheduler wake-ups
// instead of the four a pooled http.Client spends handing off to its
// transport goroutines; on two shared cores those hand-offs would dominate
// the latency being measured.
type sender struct {
	d    *daemon
	conn net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
}

func (d *daemon) dial() (*sender, error) {
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	return &sender{d: d, conn: c, br: bufio.NewReader(c)}, nil
}

// post submits one spec and returns the status and the job it names.
func (s *sender) post(body []byte) (int, *serve.Job, error) {
	s.req.Reset()
	fmt.Fprintf(&s.req, "POST /jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		s.d.addr, len(body))
	s.req.Write(body)
	if _, err := s.conn.Write(s.req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var ans struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ans)
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding the submit answer: %w", err)
	}
	j := s.d.srv.Job(ans.ID)
	if j == nil {
		return resp.StatusCode, nil, fmt.Errorf("answered job %q is not registered", ans.ID)
	}
	return resp.StatusCode, j, nil
}

// runPhase sends jobs at their due times from procs() senders, samples the
// daemon's queue depth, waits for every job to finish and summarizes.
func runPhase(d *daemon, rate float64, jobs []loadJob, spans *spanLog, name string) phaseResult {
	res := phaseResult{rate: rate, out: make([]outcome, len(jobs))}
	senders := make([]*sender, procs())
	for w := range senders {
		snd, err := d.dial()
		if err != nil {
			for _, s := range senders[:w] {
				s.conn.Close()
			}
			res.failed = len(jobs)
			return res
		}
		senders[w] = snd
	}

	// Queue depth sampled every 5 ms while requests are being sent.
	stop := make(chan struct{})
	depths := make(chan []int, 1)
	go func() {
		var ds []int
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				depths <- ds
				return
			case <-t.C:
				ds = append(ds, d.srv.QueueDepth())
			}
		}
	}()

	// Each sender takes the next request, polls the clock until it is due
	// (yielding the processor) and sends it. Polling instead of sleeping
	// matters: Go's timers wake with millisecond granularity, and on this
	// class of VM sleeping senders made the latency spread between runs
	// several times wider. A request waiting for a free connection is late,
	// and counted so.
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, snd := range senders {
		snd := snd
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer snd.conn.Close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				o := &res.out[i]
				o.def, o.due = jobs[i].def, start.Add(jobs[i].at)
				for time.Now().Before(o.due) {
					runtime.Gosched()
				}
				o.sent = time.Now()
				o.status, o.job, o.err = snd.post(jobs[i].def.body)
				o.answered = time.Now()
			}
		}()
	}
	wg.Wait()
	close(stop)
	ds := <-depths
	for _, v := range ds {
		if v > res.backlog {
			res.backlog = v
		}
	}
	res.growing = growing(ds)

	sched := time.Nanosecond
	if len(jobs) > 0 {
		sched += jobs[len(jobs)-1].at
	}
	deadline := time.After(doneTimeout)
	var last time.Time
	for i := range res.out {
		o := &res.out[i]
		switch {
		case o.err != nil:
			res.failed++
			continue
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			res.rejected++
			continue
		case o.job == nil:
			res.failed++
			continue
		}
		select {
		case <-o.job.Done():
		case <-deadline:
			res.failed++
			o.err = fmt.Errorf("job %s did not finish within %v", o.job.ID, doneTimeout)
			continue
		}
		st := o.job.Status()
		if st.State != serve.StateDone || st.Finished == nil {
			res.failed++
			o.err = fmt.Errorf("job %s ended %s", o.job.ID, st.State)
			continue
		}
		// The terminal time is the job's own, read from the daemon: the
		// client's wake-up to read an answer is not the daemon's latency.
		// A dedup join can land just after the job it joined finished;
		// that client learns the outcome with its answer.
		o.finished = *st.Finished
		if o.status == http.StatusOK && o.finished.Before(o.answered) {
			o.finished = o.answered
		}
		if o.finished.After(last) {
			last = o.finished
		}
		w := int(int64(jobs[i].at) * serveWindows / int64(sched))
		res.jobMS[w] = append(res.jobMS[w], ms(o.finished.Sub(o.due)))
		res.admitMS[w] = append(res.admitMS[w], ms(o.answered.Sub(o.due)))
		res.lateMS[w] = append(res.lateMS[w], ms(o.sent.Sub(o.due)))
		if spans != nil {
			o.parentSpan = spans.add(span{Job: o.job.ID, Name: "job", Layer: "loadgen", Start: o.due, End: o.finished})
			spans.add(span{Parent: o.parentSpan, Job: o.job.ID, Name: "POST /jobs", Layer: "serve",
				Lane: 1, Start: o.sent, End: o.answered})
		}
	}
	if len(res.out) > 0 && !last.IsZero() {
		res.wall = last.Sub(res.out[0].due)
	}
	fmt.Fprintf(os.Stderr, "serve-mixed %s @%g/s: %d jobs, p50 %.2f ms, p99 %.2f ms, admit p50 %.2f ms, late p50/p99 %.2f/%.2f ms, backlog max %d, rejected %d, failed %d\n",
		name, rate, len(jobs), windowed(res.jobMS[:], 0.5), windowed(res.jobMS[:], 0.99), windowed(res.admitMS[:], 0.5),
		windowed(res.lateMS[:], 0.5), windowed(res.lateMS[:], 0.99),
		res.backlog, res.rejected, res.failed)
	return res
}

// growing reports a backlog that rose through the phase: the mean queue
// depth of the last third exceeds twice the first third's plus four jobs
// per worker. A sustainable rate keeps both near zero.
func growing(depths []int) bool {
	if len(depths) < 6 {
		return false
	}
	third := len(depths) / 3
	mean := func(v []int) float64 {
		var s float64
		for _, x := range v {
			s += float64(x)
		}
		return s / float64(len(v))
	}
	return mean(depths[len(depths)-third:]) > 2*mean(depths[:third])+float64(4*procs())
}

// serveSetup is the daemon plus the generated schedule.
type serveSetup struct {
	d       *daemon
	gen     *mixGen
	nominal []loadJob
	extra   []loadJob // a second nominal-rate phase for the traced comparison
	ladder  [][]loadJob
	paper   []specDef
}

func newServeSetup(b *bench, cacheDir string) (serveSetup, error) {
	var s serveSetup
	s.gen = &mixGen{rng: rand.New(rand.NewSource(int64(b.seed)))}
	// Three fifths of the window at the nominal rate, the rest shared by
	// the ladder rungs.
	phase := b.seconds * 3 / 5
	rung := b.seconds * 2 / 5 / time.Duration(len(ladderRates))
	var err error
	if s.nominal, err = s.gen.schedule(nominalRate, phase); err != nil {
		return s, err
	}
	if s.extra, err = s.gen.schedule(nominalRate, phase); err != nil {
		return s, err
	}
	for _, r := range ladderRates {
		jobs, err := s.gen.schedule(r, rung)
		if err != nil {
			return s, err
		}
		s.ladder = append(s.ladder, jobs)
	}
	// The Fig 11 saturation pairs, regenerated through the daemon for
	// paper_err: FT(64,2,1) and Hoplite at 100% injection, per pattern.
	for _, c := range fig11Claims {
		for _, topo := range []cliflags.Topology{{Kind: "ft", N: 8, D: 2, R: 1}, {Kind: "hoplite", N: 8}} {
			topo := topo
			def, err := s.gen.add(cliflags.JobSpec{Kind: "sim", Topology: &topo, Workload: &cliflags.Workload{
				Pattern: c, Rate: 1.0, PacketsPerPE: sweepQuota, Seed: b.seed}})
			if err != nil {
				return s, err
			}
			s.paper = append(s.paper, def)
		}
	}
	// The admission queue holds a whole phase, so an overloaded ladder rung
	// shows as latency and backlog, never as refusals, however slow the host.
	depth := len(s.nominal)
	for _, jobs := range append([][]loadJob{s.extra}, s.ladder...) {
		if len(jobs) > depth {
			depth = len(jobs)
		}
	}
	s.d, err = startDaemon(cacheDir, depth+len(s.paper))
	return s, err
}

// fig11Claims are the patterns of the Fig 11 saturation claims.
var fig11Claims = []string{"RANDOM", "BITCOMPL", "LOCAL", "TRANSPOSE"}

func runServeMixed(b *bench) error {
	s, err := timeSetup(b, 5, func(i int) (serveSetup, error) {
		return newServeSetup(b, filepath.Join(b.work, fmt.Sprintf("cache-%d", i)))
	}, func(s serveSetup) error { return s.d.stop() })
	if err != nil {
		return err
	}
	d := s.d
	defer d.stop()

	var phases []phaseResult
	var nominal phaseResult
	var busy time.Duration
	if b.traced {
		plain := runPhase(d, nominalRate, s.extra, nil, "nominal (untraced)")
		// Every job of the untraced phase has finished, so no sweep is
		// inside ForEach while the span log is attached.
		d.srv.Orchestrator().Spans = runner.NewSpanLog()
		busy0, _, _ := d.srv.Orchestrator().Timing()
		before := sampleRuntime()
		nominal = runPhase(d, nominalRate, s.nominal, b.spans, "nominal")
		b.setRuntime(before, sampleRuntime())
		busy1, _, _ := d.srv.Orchestrator().Timing()
		busy = busy1 - busy0
		b.set("trace_overhead", ratio(sum(flat(nominal.jobMS[:])), sum(flat(plain.jobMS[:]))), "ratio")
		phases = append(phases, plain)
	} else {
		nominal = runPhase(d, nominalRate, s.nominal, nil, "nominal")
	}
	phases = append(phases, nominal)

	var best phaseResult
	for i, r := range ladderRates {
		p := runPhase(d, r, s.ladder[i], nil, fmt.Sprintf("ladder %d", i))
		phases = append(phases, p)
		if b.traced {
			b.set(fmt.Sprintf("loadgen.job_p99_ms.r%g", r), quantile(flat(p.jobMS[:]), 0.99), "ms")
		}
		if !p.passes() {
			if !b.traced {
				break
			}
			continue
		}
		if best.out == nil || p.rate > best.rate {
			best = p
		}
	}
	if !b.traced {
		b.set("max_rss_mb", maxRSSMB(), "MB")
	}

	// The paper jobs run after the measured phases, one at a time.
	snd, err := d.dial()
	if err != nil {
		return err
	}
	defer snd.conn.Close()
	var paperJobs phaseResult
	sat := make([]float64, len(s.paper))
	for k, def := range s.paper {
		status, j, err := snd.post(def.body)
		if !b.check(err == nil && j != nil && status == http.StatusAccepted, "paper job %s: status %d, err %v", def.body, status, err) {
			continue
		}
		<-j.Done()
		if st := j.Status(); b.check(st.State == serve.StateDone, "paper job %s ended %s", j.ID, st.State) {
			if sum, ok := st.Result.(serve.ResultSummary); ok {
				sat[k] = sum.SustainedRate
			}
		}
		paperJobs.out = append(paperJobs.out, outcome{def: def, status: status, job: j})
	}
	phases = append(phases, paperJobs)
	claims, err := loadPaper("fig11")
	if err != nil {
		return err
	}
	// s.paper holds (FT(64,2,1), Hoplite) pairs in fig11Claims order.
	ours := map[string]float64{}
	for k, c := range fig11Claims {
		ours[c] = ratio(sat[2*k], sat[2*k+1])
	}
	pe, err := paperErr(claims, ours)
	if err != nil {
		return err
	}

	if err := checkServe(b, s, phases); err != nil {
		return err
	}
	if b.traced {
		reportServeLayers(b, nominal, s, busy)
	} else {
		b.set("wall_s", nominal.wall.Seconds(), "s")
		b.set("job_p50_ms", windowed(nominal.jobMS[:], 0.5), "ms")
		b.set("job_p99_ms", windowed(nominal.jobMS[:], 0.99), "ms")
		b.set("max_jobs_per_s", throughput(best), "1/s")
		b.set("paper_err", pe, "ratio")
		b.set("ok_frac", 1-ratio(float64(b.failed), float64(b.attempted)), "frac")
	}
	return nil
}

// throughput is the completion rate a passing phase sustained: its jobs over
// first due → last terminal.
func throughput(p phaseResult) float64 {
	return ratio(float64(len(p.out)), p.wall.Seconds())
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// checkServe counts every request, checks every job's result against
// core.RunSynthetic (or the decorated sim.Run in the traced run) on its spec,
// and reconciles the client's tallies with /metrics and the orchestrator.
func checkServe(b *bench, s serveSetup, phases []phaseResult) error {
	var accepted, deduped, refused int64
	jobs := map[*serve.Job]specDef{}
	for _, p := range phases {
		for _, o := range p.out {
			switch o.status {
			case http.StatusAccepted:
				accepted++
			case http.StatusOK:
				deduped++
			default:
				refused++
			}
			b.check(o.err == nil && (o.status == http.StatusAccepted || o.status == http.StatusOK),
				"request answered %d (err %v)", o.status, o.err)
			if o.job != nil {
				jobs[o.job] = o.def
			}
		}
	}

	// Expected results, one simulation per distinct (config, options).
	var agg simAgg
	expect := map[string]serve.ResultSummary{}
	var executed, cachedJobs int64
	var entries []cacheEntry
	for j := range jobs {
		st := j.Status()
		if !b.check(st.State == serve.StateDone, "job %s ended %s", j.ID, st.State) {
			continue
		}
		if st.Cached {
			cachedJobs++
		}
		def := jobs[j]
		cfgs, opts, err := def.points()
		if err != nil {
			return err
		}
		var got []serve.ResultSummary
		switch r := st.Result.(type) {
		case serve.ResultSummary:
			got = []serve.ResultSummary{r}
		case []serve.ResultSummary:
			got = r
		}
		if !b.check(len(got) == len(cfgs), "job %s returned %d results for %d points", j.ID, len(got), len(cfgs)) {
			continue
		}
		for k := range cfgs {
			key := runner.SyntheticKey(cfgs[k], opts[k])
			want, ok := expect[key]
			if !ok {
				res, err := expectedRun(b, cfgs[k], opts[k], &agg)
				if err != nil {
					return err
				}
				want = serve.ResultSummary{Config: cfgs[k].String(), Rate: opts[k].Rate,
					Cycles: res.Cycles, Injected: res.Injected, Delivered: res.Delivered,
					SustainedRate: res.SustainedRate, AvgLatency: res.AvgLatency,
					WorstLatency: res.WorstLatency, P50: res.P50, P99: res.P99,
					TimedOut: res.TimedOut, Converged: res.Converged}
				expect[key] = want
				entries = append(entries, cacheEntry{key: key, res: res})
			}
			if !got[k].Cached {
				executed++
			}
			want.Cached = got[k].Cached
			b.check(got[k] == want, "job %s point %d: daemon answered %+v, core.RunSynthetic gives %+v", j.ID, k, got[k], want)
		}
	}

	m, err := scrape(s.d)
	if err != nil {
		return err
	}
	orchExec, orchHits := s.d.srv.Orchestrator().Stats()
	reconcile := []struct {
		what      string
		got, want float64
	}{
		{"ftserve_jobs_admitted_total", m["ftserve_jobs_admitted_total"], float64(accepted)},
		{"ftserve_jobs_deduped_total", m["ftserve_jobs_deduped_total"], float64(deduped)},
		{"ftserve_rejected_total", m.sum("ftserve_rejected_total{"), float64(refused)},
		{"ftserve_jobs_finished_total", m.sum("ftserve_jobs_finished_total{"), float64(len(jobs))},
		{`ftserve_jobs_finished_total{state="done"}`, m[`ftserve_jobs_finished_total{state="done"}`], float64(len(jobs))},
		{"distinct jobs", float64(len(jobs)), float64(accepted)},
		{"ftserve_cache_hits_total", m["ftserve_cache_hits_total"], float64(cachedJobs)},
		{"Orchestrator.Stats executed", float64(orchExec), float64(executed)},
		{"Orchestrator.Stats cache hits", float64(orchHits), 0},
		{"fasttrack_runner_jobs_executed_total", m["fasttrack_runner_jobs_executed_total"], float64(orchExec)},
		{"fasttrack_runner_jobs_cached_total", m["fasttrack_runner_jobs_cached_total"], float64(orchHits)},
	}
	for _, r := range reconcile {
		b.check(r.got == r.want, "reconciliation: %s is %g, the client counted %g", r.what, r.got, r.want)
	}

	if b.traced {
		agg.report(b, 0)
		b.set("serve.rejected", m.sum("ftserve_rejected_total{"), "count")
		b.set("serve.dedup_joins", m["ftserve_jobs_deduped_total"], "count")
		b.set("serve.cache_peek_hits", m["ftserve_cache_hits_total"], "count")
		b.set("serve.no_sim_frac", ratio(m["ftserve_jobs_deduped_total"]+m["ftserve_cache_hits_total"],
			m["ftserve_jobs_admitted_total"]+m["ftserve_jobs_deduped_total"]), "frac")
		b.set("runner.executed", float64(orchExec), "count")
		b.set("runner.cache_hits", float64(orchHits), "count")
		b.set("runner.hit_ratio", ratio(float64(orchHits), float64(orchExec+orchHits)), "frac")
		if err := measureCache(b, filepath.Join(b.work, "cache-replay"), entries); err != nil {
			return err
		}
	}
	return nil
}

// expectedRun computes one point's reference result: core.RunSynthetic in
// untraced runs, the decorated sim.Run (feeding the sim/noc/traffic layer
// metrics) in the traced run.
func expectedRun(b *bench, cfg core.Config, opts core.SyntheticOptions, agg *simAgg) (sim.Result, error) {
	if !b.traced {
		return core.RunSynthetic(context.Background(), cfg, opts)
	}
	t0 := time.Now()
	res, lt, err := runSyntheticTimed(cfg, opts)
	agg.add(cfg, res, lt)
	b.spans.addRun(0, "expected "+cfg.String(), family(cfg), 2, t0, lt)
	return res, err
}

// reportServeLayers sets the serve, runner and loadgen metrics from the
// traced nominal phase and imports the daemon's own spans under each job.
func reportServeLayers(b *bench, p phaseResult, s serveSetup, busy time.Duration) {
	var queue, run []float64
	for _, o := range p.out {
		if o.job == nil || o.parentSpan == 0 {
			continue
		}
		for _, sp := range o.job.Trace().Spans() {
			switch sp.Name {
			case "queue_wait":
				queue = append(queue, ms(sp.Dur()))
			case "run":
				run = append(run, ms(sp.Dur()))
			case "job":
				continue // the daemon's root span duplicates the client's job span
			}
			b.spans.add(span{Parent: o.parentSpan, Job: o.job.ID, Name: "ftserve." + sp.Name, Layer: "serve",
				Lane: 2, Start: sp.Start, End: sp.End})
		}
	}
	b.set("serve.admit_p50_ms", windowed(p.admitMS[:], 0.5), "ms")
	b.set("serve.admit_p99_ms", windowed(p.admitMS[:], 0.99), "ms")
	b.set("serve.queue_wait_p50_ms", median(queue), "ms")
	b.set("serve.queue_wait_p99_ms", quantile(queue, 0.99), "ms")
	b.set("serve.run_p50_ms", median(run), "ms")
	b.set("serve.run_p99_ms", quantile(run, 0.99), "ms")
	b.set("serve.backlog_max", float64(p.backlog), "count")
	b.set("loadgen.late_p99_ms", windowed(p.lateMS[:], 0.99), "ms")
	b.set("loadgen.jobs", float64(len(flat(p.jobMS[:]))), "count")

	var jobs []float64
	var slowest time.Duration
	phaseEnd := p.out[0].due.Add(p.wall)
	for _, sp := range s.d.srv.Orchestrator().Spans.Spans() {
		if sp.Start.After(phaseEnd) {
			continue // a ladder phase's sweep
		}
		jobs = append(jobs, ms(sp.End.Sub(sp.Start)))
		if d := sp.End.Sub(sp.Start); d > slowest {
			slowest = d
		}
		b.spans.add(span{Job: sp.JobID, Name: "runner.job", Layer: "runner", Lane: 3 + sp.Worker, Start: sp.Start, End: sp.End})
	}
	b.set("runner.job_n", float64(len(jobs)), "count")
	b.set("runner.job_p50_ms", median(jobs), "ms")
	b.set("runner.job_p99_ms", quantile(jobs, 0.99), "ms")
	b.set("runner.worker_util", busy.Seconds()/(float64(procs())*p.wall.Seconds()), "frac")
	b.set("runner.slowest_job_s", slowest.Seconds(), "s")
	b.notMeasured("serve-mixed records and replays no traces", "trace.", "workloads.")
}

// promSamples is a /metrics scrape: "name{labels}" → value.
type promSamples map[string]float64

func (m promSamples) sum(prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func scrape(d *daemon) (promSamples, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := promSamples{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
