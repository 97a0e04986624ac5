// Command joinoptbench is the repository's end-to-end benchmark. In one
// process it boots joinoptd replicas (internal/service) on loopback
// listeners, drives them with a closed loop of clients over HTTP, checks
// every result against a direct run of the same request, and reports
// end-to-end metrics; with --trace 1 it also reports per-layer metrics,
// read from /metrics and job timestamps and from a traced pass that calls
// each layer directly. See README.md for the workloads and metrics.
//
//	joinoptbench --workload warm-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"joinopt/internal/service"
)

// metricDef is one reported metric. The end-to-end ones are printed with
// --trace 0, the per-layer ones with --trace 1; BENCHMARK.json lists the
// same names and units.
type metricDef struct {
	name, unit string
	e2e        bool
}

var catalog = []metricDef{
	{"jobs_per_s", "1/s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p90_ms", "ms", true},
	{"cpu_ms_per_job", "ms", true},
	{"heap_live_mb", "MB", true},
	{"setup_s", "s", true},

	{"failed_frac", "ratio", false},
	{"verify.adaptive_plan_divergence_frac", "ratio", false},
	{"service.jobs_completed", "count", false},
	{"service.p90_tail_samples", "count", false},
	{"service.queue_wait_ms_p50", "ms", false},
	{"service.exec_ms_p50", "ms", false},
	{"service.client_overhead_ms_p50", "ms", false},
	{"service.events_per_job", "count", false},
	{"service.workload_builds", "count", false},
	{"service.workload_reuses", "count", false},
	{"obs.heap_kb_per_retained_job", "KB", false},
	{"optimizer.pilot_wall_ms_per_job", "ms", false},
	{"optimizer.execute_wall_ms_per_job", "ms", false},
	{"optimizer.finish_wall_ms_per_job", "ms", false},
	{"optimizer.plan_switches_per_job", "count", false},
	{"join.steps_per_job", "count", false},
	{"pipeline.cache_hit_ratio", "ratio", false},
	{"pipeline.cache_evictions", "count", false},
	{"cluster.forwards_per_job", "count", false},
	{"cluster.forward_overhead_ms_p50", "ms", false},
	{"durable.errors", "count", false},

	{"workload.build_ms", "ms", false},
	{"classifier.train_ms", "ms", false},
	{"index.build_ms", "ms", false},
	{"qxtract.learn_ms", "ms", false},
	{"extract.cold_us_per_doc", "us", false},
	{"extract.warm_us_per_doc", "us", false},
	{"classifier.classify_us_per_doc", "us", false},
	{"estimate.estimate_us", "us", false},
	{"optimizer.pilot_ms", "ms", false},
	{"optimizer.choose_ms", "ms", false},
	{"optimizer.choose_nary_us", "us", false},
	{"querygraph.enumerate_us", "us", false},
	{"join.exec_ms.idjn", "ms", false},
	{"join.exec_ms.oijn", "ms", false},
	{"join.exec_ms.zgjn", "ms", false},
	{"join.exec_ms.nary", "ms", false},
	{"retrieval.useful_doc_ratio", "ratio", false},
	{"durable.append_us", "us", false},
	{"durable.checkpoint_save_us", "us", false},
	{"durable.tier_store_us", "us", false},
	{"durable.tier_load_us", "us", false},
	{"cluster.standby_post_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
}

var workloads = []string{"warm-mix", "cold-build", "fleet-durable"}

// config sizes a run. main uses defaultConfig; the tests shrink it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	clients      int     // closed-loop clients (nproc)
	residentDocs int     // documents per resident workload
	coldDocs     int     // documents per cold-build workload
	minJobs      int     // the measured phase runs on until this many jobs
	capFactor    float64 // ... but never past capFactor × seconds
	setups       int     // set-ups per run; setup_s is their median
	maxJobs      int     // finished jobs each replica retains
	coldChecks   int     // cold-build jobs checked against a reference
	traceJobs    int     // jobs the traced pass replays (at least)
	stateDir     string
	log          io.Writer
}

func defaultConfig() config {
	return config{
		clients:      runtime.NumCPU(),
		residentDocs: 4000,
		coldDocs:     2000,
		minJobs:      100,
		capFactor:    3,
		setups:       3,
		maxJobs:      256,
		coldChecks:   6,
		traceJobs:    30,
		stateDir:     ".bench_build/state",
		log:          os.Stderr,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	attempted, failed int
	values            map[string]float64 // every catalog metric
	provenance        map[string]any
}

// output selects the end-to-end or the per-layer metrics.
func (r *report) output(trace bool) output {
	o := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog {
		if m.e2e != trace {
			o.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
		}
	}
	return o
}

func main() {
	cfg := defaultConfig()
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "warm-mix", "workload: warm-mix | cold-build | fleet-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same job sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "joinoptbench: --trace takes 0 or 1, and --seconds a positive length")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinoptbench:", err)
		os.Exit(1)
	}
	out := rep.output(cfg.trace)
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "joinoptbench: %s has no samples\n", name)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"provenance": rep.provenance}); err == nil {
		err = enc.Encode(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinoptbench:", err)
		os.Exit(1)
	}
}

// run performs one benchmark run: set-up (several times), the measured
// phase, the check of every result, and with cfg.trace the traced pass.
// Every replica, listener, cluster and state directory it starts is gone
// when it returns, on error too.
func run(cfg config) (rep *report, err error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	b := &bench{cfg: cfg}
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, "joinoptbench: "+format+"\n", args...) }

	var f *fleet
	defer func() {
		if cerr := f.close(); cerr != nil && err == nil {
			err = cerr
		}
		os.Remove(cfg.stateDir) // only if empty: it may predate the run
	}()
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		if err := f.close(); err != nil {
			return nil, err
		}
		f = nil
		t0 := time.Now()
		if f, err = b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	logf("%s: set-up %.3fs (median of %d), measuring for %gs", cfg.workload, median(setupTimes), len(setupTimes), cfg.seconds)

	ph, err := b.measure(f)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	bad, first, err := b.verify(ph.recs)
	if err != nil {
		return nil, fmt.Errorf("checking results: %w", err)
	}
	if bad > 0 {
		logf("%d results differ from their reference; first: %s", bad, first)
	}
	rep = b.summarize(ph, setupTimes)
	if cfg.trace {
		layers, err := b.tracedPass(f, b.tracePrefix())
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			rep.values[k] = v
		}
		rep.provenance["trace_overhead_pct"] = layers["trace.overhead_pct"]
	}
	for _, r := range ph.recs {
		if r.failed {
			logf("job %d failed: state %q %s", r.idx, r.state, r.err)
			break
		}
	}
	return rep, nil
}

// bench is one run's state.
type bench struct {
	cfg   config
	picks []int // resident candidate per slot (warm workloads)
	warm  int   // jobs run in set-up, retained by the replicas
}

func (b *bench) fleetOpts() fleetOpts {
	o := fleetOpts{replicas: 1, workers: b.cfg.clients, maxJobs: b.cfg.maxJobs, stateDir: b.cfg.stateDir}
	if b.cfg.workload == "fleet-durable" {
		o.replicas, o.workers, o.durable = 2, 1, true
	}
	return o
}

// setup boots the replicas, then builds each resident workload with one
// job on its owner, all at once, and then warms them with the ladder jobs
// run by the clients in a fixed order.
func (b *bench) setup() (f *fleet, err error) {
	if f, err = bootFleet(b.fleetOpts()); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	if b.cfg.workload == "cold-build" {
		b.warm = 1
		return f, runAll(f, []service.JobRequest{coldJob(b.cfg.seed, b.cfg.coldDocs, -1)}, 1)
	}
	b.picks = make([]int, len(residentSlots))
	if len(f.reps) > 1 {
		if b.picks, err = balanceResident(b.cfg.residentDocs, ringOwner(f.reps[0].cl)); err != nil {
			return f, err
		}
	}
	var build, warm []service.JobRequest
	for i, s := range residentSlots {
		build = append(build, slotRequest(s, b.cfg.residentDocs, b.picks[i]))
		warm = append(warm, warmJobs(s, b.cfg.residentDocs, b.picks[i])...)
	}
	b.warm = len(build) + len(warm)
	if err := runAll(f, build, len(build)); err != nil {
		return f, err
	}
	return f, runAll(f, warm, b.cfg.clients)
}

// runAll runs set-up jobs on their owners with `parallel` clients that take
// them in order, and fails on the first job that does not finish done.
func runAll(f *fleet, reqs []service.JobRequest, parallel int) error {
	c := newClient()
	defer closeClient(c)
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for k := 0; k < parallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(reqs) || first != nil {
					mu.Unlock()
					return
				}
				req := reqs[next]
				next++
				mu.Unlock()
				rec, err := runJob(c, f.replicaFor(req), req)
				if err == nil && rec.failed {
					err = fmt.Errorf("set-up job: state %q: %s", rec.state, rec.err)
				}
				if err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// jobAt is the run's job sequence.
func (b *bench) jobAt(i int) service.JobRequest {
	if b.cfg.workload == "cold-build" {
		return coldJob(b.cfg.seed, b.cfg.coldDocs, i)
	}
	return mix{seed: b.cfg.seed, docs: b.cfg.residentDocs, picks: b.picks}.job(i)
}

// tracePrefix is the part of the job sequence the traced pass replays: the
// first traceJobs jobs, extended until it holds adaptive, execute and query
// jobs. For cold-build it is the first two jobs plus a query over a cold
// workload of the same size, so that the n-ary layers have spans too.
func (b *bench) tracePrefix() []service.JobRequest {
	if b.cfg.workload == "cold-build" {
		out := []service.JobRequest{b.jobAt(0), b.jobAt(1)}
		q := slotRequest(residentSlots[2], b.cfg.coldDocs, 0)
		q.Workload.Seed = out[0].Workload.Seed
		return append(out, q)
	}
	var out []service.JobRequest
	modes := map[string]bool{}
	for i := 0; len(out) < b.cfg.traceJobs || len(modes) < 3; i++ {
		req := b.jobAt(i)
		modes[req.Mode] = true
		out = append(out, req)
	}
	return out
}

// phase is the measured phase's raw observations.
type phase struct {
	recs          []*jobRec
	wall          time.Duration
	cpu           time.Duration
	heapSetup     uint64 // live heap after set-up
	heapEnd       uint64 // live heap at the end of the phase
	before, after []map[string]float64
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) measure(f *fleet) (*phase, error) {
	ph := &phase{heapSetup: liveHeap()}
	for _, r := range f.reps {
		m, err := scrape(r)
		if err != nil {
			return nil, err
		}
		ph.before = append(ph.before, m)
	}
	d := time.Duration(b.cfg.seconds * float64(time.Second))
	cpu0 := cpuTime()
	recs, wall, err := closedLoop(f, b.cfg.clients, b.jobAt, d, time.Duration(b.cfg.capFactor*float64(d)), b.cfg.minJobs)
	ph.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	ph.heapEnd = liveHeap()
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	ph.recs, ph.wall = recs, wall
	for _, r := range f.reps {
		m, err := scrape(r)
		if err != nil {
			return nil, err
		}
		ph.after = append(ph.after, m)
	}
	return ph, nil
}

// verify checks the results: every job of the warm workloads, and a
// seeded sample of cold-build's jobs.
func (b *bench) verify(recs []*jobRec) (int, string, error) {
	if b.cfg.workload == "cold-build" {
		rng := rand.New(rand.NewSource(b.cfg.seed))
		perm := rng.Perm(len(recs))
		var sample []*jobRec
		for _, i := range perm {
			if len(sample) == b.cfg.coldChecks {
				break
			}
			sample = append(sample, recs[i])
		}
		recs = sample
	}
	return newVerifier().check(recs)
}

// delta sums a metric family's growth over the measured phase on every
// replica.
func (ph *phase) delta(name string, labels ...string) float64 {
	d := 0.0
	for i := range ph.after {
		d += family(ph.after[i], name, labels...) - family(ph.before[i], name, labels...)
	}
	return d
}

func (b *bench) summarize(ph *phase, setupTimes []float64) *report {
	v := map[string]float64{}
	var lat, queue, exec, client, events, direct, proxied []float64
	done, adaptive, binary, failed := 0, 0, 0, 0
	retained := map[string]int{}
	for _, r := range ph.recs {
		if r.failed {
			failed++
		}
		if r.state != service.StateDone {
			continue
		}
		done++
		retained[r.status.Node]++
		if r.req.Query == nil {
			binary++
			if r.req.Mode == service.ModeAdaptive {
				adaptive++
			}
		}
		st := r.status
		l := ms(r.latency)
		lat = append(lat, l)
		events = append(events, float64(r.events))
		if st.Started != nil && st.Finished != nil {
			queue = append(queue, ms(st.Started.Sub(st.Submitted)))
			exec = append(exec, ms(st.Finished.Sub(*st.Started)))
			client = append(client, l-ms(st.Finished.Sub(st.Submitted)))
		}
		if r.proxied {
			proxied = append(proxied, ms(r.submitRTT))
		} else {
			direct = append(direct, ms(r.submitRTT))
		}
	}
	win := windows(ph.recs)
	attempted := len(ph.recs)
	v["jobs_per_s"] = median(win.rate)
	v["latency_p50_ms"] = median(win.p50)
	v["latency_p90_ms"] = median(win.p90)
	v["cpu_ms_per_job"] = ms(ph.cpu) / float64(max(done, 1))
	v["heap_live_mb"] = float64(ph.heapEnd) / (1 << 20)
	v["setup_s"] = median(setupTimes)

	v["failed_frac"] = float64(failed) / float64(max(attempted, 1))
	v["service.jobs_completed"] = float64(done)
	if len(win.tail) > 0 {
		v["service.p90_tail_samples"] = float64(slices.Min(win.tail))
	}
	v["service.queue_wait_ms_p50"] = percentile(queue, 50)
	v["service.exec_ms_p50"] = percentile(exec, 50)
	v["service.client_overhead_ms_p50"] = percentile(client, 50)
	v["service.events_per_job"] = mean(events)
	v["service.workload_builds"] = ph.delta(service.MetricWorkloadBuilds)
	v["service.workload_reuses"] = ph.delta(service.MetricWorkloadReuses)
	// Each replica retains its set-up jobs and up to maxJobs finished jobs;
	// the heap the phase added is charged to the jobs it added.
	warmPer := b.warm / len(ph.before)
	added := 0
	for _, n := range retained {
		added += min(n+warmPer, b.cfg.maxJobs) - warmPer
	}
	v["obs.heap_kb_per_retained_job"] = (float64(ph.heapEnd) - float64(ph.heapSetup)) / 1024 / float64(max(added, 1))
	perAdaptive := func(x float64) float64 { return x / float64(max(adaptive, 1)) }
	v["optimizer.pilot_wall_ms_per_job"] = perAdaptive(1000 * ph.delta("joinopt_phase_wall_seconds", `phase="pilot"`))
	v["optimizer.execute_wall_ms_per_job"] = perAdaptive(1000 * ph.delta("joinopt_phase_wall_seconds", `phase="execute"`))
	v["optimizer.finish_wall_ms_per_job"] = perAdaptive(1000 * ph.delta("joinopt_phase_wall_seconds", `phase="finish"`))
	v["optimizer.plan_switches_per_job"] = perAdaptive(ph.delta("joinopt_plan_switches_total"))
	v["join.steps_per_job"] = ph.delta("joinopt_steps_total") / float64(max(binary, 1))
	hits, misses := ph.delta("joinopt_extract_cache_hits_total"), ph.delta("joinopt_extract_cache_misses_total")
	if hits+misses > 0 {
		v["pipeline.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["pipeline.cache_evictions"] = ph.delta("joinopt_extract_cache_evictions_total")
	v["cluster.forwards_per_job"] = ph.delta("joinopt_cluster_forwards_total") / float64(max(attempted, 1))
	if len(proxied) > 0 && len(direct) > 0 {
		v["cluster.forward_overhead_ms_p50"] = percentile(proxied, 50) - percentile(direct, 50)
	}
	v["durable.errors"] = ph.delta("joinopt_durable_errors_total")
	v["verify.adaptive_plan_divergence_frac"] = planDivergence(ph.recs)

	return &report{
		attempted: attempted,
		failed:    failed,
		values:    v,
		provenance: map[string]any{
			"workload":            b.cfg.workload,
			"seed":                b.cfg.seed,
			"seconds":             b.cfg.seconds,
			"nproc":               runtime.NumCPU(),
			"gomaxprocs":          runtime.GOMAXPROCS(0),
			"go_version":          runtime.Version(),
			"clients":             b.cfg.clients,
			"jobs":                attempted,
			"jobs_done":           done,
			"latency_samples":     len(lat),
			"windows":             len(win.rate),
			"p90_tail_samples":    win.tail,
			"measured_wall_s":     ph.wall.Seconds(),
			"setups_s":            setupTimes,
			"resident_candidates": b.picks,
		},
	}
}

// phaseWindows are the measured phase cut into consecutive slices of equal
// job counts, in the order the results arrived.
type phaseWindows struct {
	rate, p50, p90 []float64
	tail           []int // jobs beyond each window's p90
}

// windows cuts the done jobs into as many slices of at least 100 jobs as
// there are, up to five; a slice's rate is its jobs over the time from the
// previous slice's last result to its own. The end-to-end throughput and
// latency metrics are medians over the slices, so that a burst of noise
// from outside the benchmark moves one slice, not the figure.
func windows(recs []*jobRec) phaseWindows {
	var done []*jobRec
	for _, r := range recs {
		if r.state == service.StateDone {
			done = append(done, r)
		}
	}
	slices.SortFunc(done, func(a, b *jobRec) int { return cmp.Compare(a.end, b.end) })
	var win phaseWindows
	n := min(max(len(done)/100, 1), 5)
	var from time.Duration
	for w := 0; w < n && len(done) > 0; w++ {
		slice := done[w*len(done)/n : (w+1)*len(done)/n]
		to := slice[len(slice)-1].end
		var lat []float64
		for _, r := range slice {
			lat = append(lat, ms(r.latency))
		}
		p90 := percentile(lat, 90)
		tail := 0
		for _, x := range lat {
			if x > p90 {
				tail++
			}
		}
		win.rate = append(win.rate, float64(len(slice))/(to-from).Seconds())
		win.p50 = append(win.p50, percentile(lat, 50))
		win.p90 = append(win.p90, p90)
		win.tail = append(win.tail, tail)
		from = to
	}
	return win
}

// planDivergence is the share of adaptive jobs whose plan sequence differs
// from the one most jobs with the identical request got in this run.
func planDivergence(recs []*jobRec) float64 {
	seqs := map[string]map[string]int{}
	n := 0
	for _, r := range recs {
		if r.result == nil || r.req.Mode != service.ModeAdaptive {
			continue
		}
		k := refKey(r.req)
		if seqs[k] == nil {
			seqs[k] = map[string]int{}
		}
		seqs[k][strings.Join(r.result.Plans, ";")]++
		n++
	}
	same := 0
	for _, counts := range seqs {
		most := 0
		for _, c := range counts {
			most = max(most, c)
		}
		same += most
	}
	return float64(n-same) / float64(max(n, 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
