package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"joinopt"
	"joinopt/internal/classifier"
	"joinopt/internal/durable"
	"joinopt/internal/estimate"
	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/qxtract"
	"joinopt/internal/retrieval"
	"joinopt/internal/service"
	"joinopt/internal/workload"
)

// spans records, per layer, the wall time of each call the traced pass
// makes into that layer. Off, it only runs the calls.
type spans struct {
	on bool
	d  map[string][]float64
}

func newSpans() *spans { return &spans{d: map[string][]float64{}} }

// span runs f and, when recording, adds its wall time in units of unit
// (divided by per, for per-item layers) to layer's samples.
func (s *spans) span(layer string, unit time.Duration, per int, f func()) {
	if !s.on {
		f()
		return
	}
	t0 := time.Now()
	f()
	if per < 1 {
		per = 1
	}
	s.d[layer] = append(s.d[layer], float64(time.Since(t0))/float64(unit)/float64(per))
}

// traced holds the workloads the traced pass assembled itself, so that it
// can call into their layers.
type traced struct {
	sp     *spans
	binary map[string]*workload.Workload
	multi  map[string]*workload.MultiWorkload
	// useful and retrieved count, over the replayed binary executions,
	// documents that yielded a tuple and documents retrieved.
	useful, retrieved int
}

// tracedPass calls each layer's public functions directly, over the same
// seed's workloads and the first requests of its job sequence, and returns
// the per-layer metrics it measures. f is the fleet of the measured run,
// still up and idle.
func (b *bench) tracedPass(f *fleet, prefix []service.JobRequest) (map[string]float64, error) {
	tr := &traced{sp: newSpans(), binary: map[string]*workload.Workload{}, multi: map[string]*workload.MultiWorkload{}}
	tr.sp.on = true
	for _, req := range tracedWorkloads(prefix) {
		if err := tr.build(req); err != nil {
			return nil, err
		}
	}
	// Warm the memoized per-workload state once untimed, then replay with
	// spans on and again with spans off: the difference is the overhead of
	// the spans themselves.
	tr.sp.on = false
	if _, err := tr.replay(prefix); err != nil {
		return nil, err
	}
	tr.sp.on = true
	tr.useful, tr.retrieved = 0, 0
	tracedWall, err := tr.replay(prefix)
	if err != nil {
		return nil, err
	}
	tr.sp.on = false
	plainWall, err := tr.replay(prefix)
	if err != nil {
		return nil, err
	}
	tr.sp.on = true
	if err := tr.probeMissingAlgorithms(); err != nil {
		return nil, err
	}

	wires, err := checkpointWires(f, prefix)
	if err != nil {
		return nil, err
	}
	if err := tr.durableProbe(b.cfg.stateDir, prefix, wires, tr.firstBinary()); err != nil {
		return nil, err
	}
	pair := f
	if len(f.reps) < 2 {
		if pair, err = bootFleet(fleetOpts{replicas: 2, workers: 1, maxJobs: 16}); err != nil {
			return nil, err
		}
		defer pair.close()
	}
	if err := tr.standbyProbe(pair, prefix, wires); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if len(f.reps) < 2 {
		if out["cluster.forward_overhead_ms_p50"], err = forwardOverhead(pair, prefix); err != nil {
			return nil, err
		}
	}

	sp := tr.sp
	for _, name := range []string{
		"workload.build_ms", "classifier.train_ms", "index.build_ms", "qxtract.learn_ms",
		"extract.cold_us_per_doc", "extract.warm_us_per_doc", "classifier.classify_us_per_doc",
		"estimate.estimate_us", "optimizer.pilot_ms", "optimizer.choose_ms",
		"optimizer.choose_nary_us", "querygraph.enumerate_us",
		"join.exec_ms.idjn", "join.exec_ms.oijn", "join.exec_ms.zgjn", "join.exec_ms.nary",
		"durable.append_us", "durable.checkpoint_save_us", "durable.tier_store_us", "durable.tier_load_us",
		"cluster.standby_post_ms",
	} {
		if len(sp.d[name]) == 0 {
			return nil, fmt.Errorf("traced pass: no %s span recorded", name)
		}
		out[name] = median(sp.d[name])
	}
	out["workload.build_ms"] = mean(sp.d["workload.build_ms"])
	if tr.retrieved > 0 {
		out["retrieval.useful_doc_ratio"] = float64(tr.useful) / float64(tr.retrieved)
	}
	out["trace.overhead_pct"] = 100 * (tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	return out, nil
}

// tracedWorkloads lists one request per distinct workload of the prefix.
func tracedWorkloads(prefix []service.JobRequest) []service.JobRequest {
	seen := map[string]bool{}
	var out []service.JobRequest
	for _, req := range prefix {
		key := service.CanonicalWorkloadKey(req)
		if !seen[key] {
			seen[key] = true
			out = append(out, req)
		}
	}
	return out
}

// build assembles a request's workload through the workload layer, then
// calls the layers that assembly is made of once more on the same inputs.
func (tr *traced) build(req service.JobRequest) error {
	sp := tr.sp
	key := service.CanonicalWorkloadKey(req)
	wl := req.Workload
	p := workload.Params{NumDocs: wl.NumDocs, NumDocs2: wl.NumDocs2, Seed: wl.Seed, TopK: wl.TopK}
	var err error
	if q := req.Query; q != nil {
		var mw *workload.MultiWorkload
		sp.span("workload.build_ms", time.Millisecond, 1, func() { mw, err = workload.Multi(p, q.Relations) })
		tr.multi[key] = mw
		return err
	}
	var w *workload.Workload
	sp.span("workload.build_ms", time.Millisecond, 1, func() {
		w, err = workload.Pair(p, req.Workload.Relations[0], req.Workload.Relations[1])
	})
	if err != nil {
		return err
	}
	tr.binary[key] = w
	for i := 0; i < 2; i++ {
		// A failed rule induction is timed too: the workload layer then
		// falls back to naive Bayes, as it did for this workload.
		sp.span("classifier.train_ms", time.Millisecond, 1, func() { classifier.TrainRules(w.Train[i], w.Task[i], 12, 2, 0.5) })
		sp.span("index.build_ms", time.Millisecond, 1, func() { join.BuildIndex(w.DB[i], w.Params.TopK) })
		sp.span("qxtract.learn_ms", time.Millisecond, 1, func() { _, err = qxtract.Learn(w.Train[i], w.Task[i], 12) })
		if err != nil {
			return err
		}
		docs := w.DB[i].Docs
		sys := w.Sys[i]
		sys.ResetCache()
		sp.span("extract.cold_us_per_doc", time.Microsecond, len(docs), func() {
			for _, d := range docs {
				sys.Candidates(d.Text)
			}
		})
		sp.span("extract.warm_us_per_doc", time.Microsecond, len(docs), func() {
			for _, d := range docs {
				sys.Candidates(d.Text)
			}
		})
		sp.span("classifier.classify_us_per_doc", time.Microsecond, len(docs), func() {
			for _, d := range docs {
				w.Cls[i].Classify(d.Text)
			}
		})
	}
	return nil
}

// replay runs each request's optimizer and executor calls directly and
// returns the wall time of the whole replay.
func (tr *traced) replay(prefix []service.JobRequest) (time.Duration, error) {
	t0 := time.Now()
	for i, req := range prefix {
		var err error
		switch {
		case req.Query != nil:
			err = tr.replayQuery(req)
		case req.Mode == service.ModeExecute:
			p := planOf(req.Plan)
			err = tr.execute(tr.binary[service.CanonicalWorkloadKey(req)], specOf(p), nil)
		default:
			err = tr.replayAdaptive(req)
		}
		if err != nil {
			return 0, fmt.Errorf("traced replay of job %d: %w", i, err)
		}
	}
	return time.Since(t0), nil
}

func specOf(p joinopt.Plan) optimizer.PlanSpec {
	return optimizer.PlanSpec{
		JN:       optimizer.Algorithm(p.Algorithm),
		Theta:    p.Theta,
		X:        [2]retrieval.Kind{retrieval.Kind(p.X[0]), retrieval.Kind(p.X[1])},
		OuterIdx: p.OuterIdx,
	}
}

// replayAdaptive follows the adaptive protocol's first round: the
// estimation pilot, the estimator on the pilot's window, plan choice over
// the whole plan space, and the chosen plan run until it holds τg good
// tuples.
func (tr *traced) replayAdaptive(req service.JobRequest) error {
	sp := tr.sp
	w := tr.binary[service.CanonicalWorkloadKey(req)]
	env, err := w.NewEnv(joinopt.Knobs)
	if err != nil {
		return err
	}
	var in *optimizer.Inputs
	var pilot *join.State
	sp.span("optimizer.pilot_ms", time.Millisecond, 1, func() { in, pilot, err = optimizer.PilotEstimate(env, optimizer.Options{}) })
	if err != nil {
		return err
	}
	for side := 0; side < 2; side++ {
		tp, fp := env.Rates(side, env.Thetas[0])
		o := estimate.FromState(pilot, side, env.NumDocs[side], tp, fp, env.BadInGoodPrior)
		sp.span("estimate.estimate_us", time.Microsecond, 1, func() { _, err = estimate.Estimate(o) })
		if err != nil {
			return err
		}
	}
	var best optimizer.Eval
	plans := optimizer.Enumerate(joinopt.Knobs)
	sp.span("optimizer.choose_ms", time.Millisecond, 1, func() {
		best, _, err = optimizer.Choose(plans, in, optimizer.Requirement{TauG: req.TauG, TauB: req.TauB})
	})
	if err != nil {
		return err
	}
	tauG := req.TauG
	return tr.execute(w, best.Plan, func(st *join.State) bool { return st.GoodPairs >= tauG })
}

// execute runs one plan over a traced workload.
func (tr *traced) execute(w *workload.Workload, plan optimizer.PlanSpec, stop join.StopFunc) error {
	exec, err := w.NewExecutor(plan)
	if err != nil {
		return err
	}
	var st *join.State
	tr.sp.span("join.exec_ms."+strings.ToLower(string(plan.JN)), time.Millisecond, 1, func() {
		st, err = join.RunCtx(context.Background(), exec, stop)
	})
	if err != nil {
		return err
	}
	if tr.sp.on {
		tr.useful += st.YieldDocs[0] + st.YieldDocs[1]
		tr.retrieved += st.DocsRetrieved[0] + st.DocsRetrieved[1]
	}
	return nil
}

// replayQuery enumerates the query graph, plans the query, and runs the
// chosen join tree.
func (tr *traced) replayQuery(req service.JobRequest) error {
	sp := tr.sp
	mw := tr.multi[service.CanonicalWorkloadKey(req)]
	g, err := mw.Graph(req.Query.Joins)
	if err != nil {
		return err
	}
	pairs := 0
	sp.span("querygraph.enumerate_us", time.Microsecond, 1, func() { g.CsgCmpPairs(func(_, _ uint64) { pairs++ }) })
	in, err := mw.TrueNaryInputs(joinopt.Knobs)
	if err != nil {
		return err
	}
	in.TJ = req.Query.MergeCost
	var best optimizer.NaryEval
	sp.span("optimizer.choose_nary_us", time.Microsecond, 1, func() {
		best, _, err = optimizer.ChooseNary(g, in, optimizer.Requirement{TauG: req.TauG, TauB: req.TauB})
	})
	if err != nil {
		return err
	}
	exec, err := mw.NewNaryExecutor(best, in.TJ, 0, nil, nil)
	if err != nil {
		return err
	}
	sp.span("join.exec_ms.nary", time.Millisecond, 1, func() { _, err = join.RunNary(exec, nil) })
	return err
}

// tierDocs is how many documents' entries the disk cache tier probe writes.
const tierDocs = 400

// firstBinary is the traced binary workload whose key sorts first.
func (tr *traced) firstBinary() *workload.Workload {
	keys := make([]string, 0, len(tr.binary))
	for k := range tr.binary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return tr.binary[keys[0]]
}

// probeMissingAlgorithms runs, on the first traced binary workload, one
// pinned plan of every binary algorithm the replay did not reach, so that
// every join layer has spans.
func (tr *traced) probeMissingAlgorithms() error {
	w := tr.firstBinary()
	th := [2]float64{0.4, 0.4}
	for _, plan := range []optimizer.PlanSpec{
		{JN: optimizer.IDJN, Theta: th, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}},
		{JN: optimizer.OIJN, Theta: th, X: [2]retrieval.Kind{retrieval.SC, retrieval.Kind(joinopt.QueryRetrieve)}},
		{JN: optimizer.ZGJN, Theta: th, X: [2]retrieval.Kind{retrieval.Kind(joinopt.QueryRetrieve), retrieval.Kind(joinopt.QueryRetrieve)}},
	} {
		if len(tr.sp.d["join.exec_ms."+strings.ToLower(string(plan.JN))]) == 0 {
			if err := tr.execute(w, plan, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpointWires runs up to four of the prefix's adaptive requests on the
// live fleet's own Tasks, outside the service, and returns the checkpoint
// wires they emit — the payloads the durable and cluster layers carry.
func checkpointWires(f *fleet, prefix []service.JobRequest) ([][]byte, error) {
	var wires [][]byte
	runs := 0
	for _, req := range prefix {
		if req.Query != nil || req.Mode != service.ModeAdaptive || runs == 4 {
			continue
		}
		runs++
		t, err := f.replicaFor(req).svc.WorkloadRegistry().Task(req.Workload, nil)
		if err != nil {
			return nil, err
		}
		sink := joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			if wire, err := json.Marshal(ck); err == nil {
				wires = append(wires, wire)
			}
		})
		if _, err := t.Run(context.Background(), joinopt.Requirement{TauG: req.TauG, TauB: req.TauB}, sink); err != nil {
			return nil, err
		}
	}
	if len(wires) == 0 {
		return nil, fmt.Errorf("traced pass: the prefix's adaptive jobs emitted no checkpoint")
	}
	return wires, nil
}

// durableProbe journals the prefix's job transitions, saves the checkpoint
// wires, and writes and reads back the extraction-cache entries of w's
// first tierDocs documents through the disk cache tier, all in a store of
// its own.
func (tr *traced) durableProbe(stateDir string, prefix []service.JobRequest, wires [][]byte, w *workload.Workload) error {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(stateDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	for i, req := range prefix {
		raw, _ := json.Marshal(req)
		id := fmt.Sprintf("probe-%d", i)
		for _, r := range []durable.Record{
			{Seq: uint64(i + 1), Event: durable.EventSubmitted, JobID: id, Tenant: req.Tenant, Request: raw},
			{Seq: uint64(i + 1), Event: durable.EventStarted, JobID: id},
			{Seq: uint64(i + 1), Event: durable.EventFinished, JobID: id, State: service.StateDone},
		} {
			tr.sp.span("durable.append_us", time.Microsecond, 1, func() { store.Append(r) })
		}
	}
	for i, wire := range wires {
		tr.sp.span("durable.checkpoint_save_us", time.Microsecond, 1, func() { store.SaveCheckpoint(fmt.Sprintf("probe-%d", i), wire) })
	}
	tier := store.CacheTier("probe")
	theta := joinopt.Knobs[0]
	for id, d := range w.DB[0].Docs[:min(tierDocs, len(w.DB[0].Docs))] {
		k := pipeline.Key{Side: 0, DocID: id, Theta: theta}
		tuples := w.Sys[0].Extract(d.Text, theta)
		tr.sp.span("durable.tier_store_us", time.Microsecond, 1, func() { tier.Store(k, tuples) })
		var ok bool
		tr.sp.span("durable.tier_load_us", time.Microsecond, 1, func() { _, ok = tier.Load(k) })
		if !ok {
			return fmt.Errorf("disk cache tier lost the entry of document %d", id)
		}
	}
	if deg, why := store.Degraded(); deg {
		return fmt.Errorf("durable probe store degraded: %s", why)
	}
	return nil
}

// standbyWire mirrors the body of POST /v1/cluster/standby.
type standbyWire struct {
	ID         string          `json:"id"`
	Tenant     string          `json:"tenant"`
	Origin     string          `json:"origin"`
	Request    json.RawMessage `json:"request,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	Done       bool            `json:"done,omitempty"`
}

// standbyProbe replicates each checkpoint wire to the second replica as the
// first one would, and retires it again.
func (tr *traced) standbyProbe(pair *fleet, prefix []service.JobRequest, wires [][]byte) error {
	c := newClient()
	defer closeClient(c)
	origin, target := pair.reps[0], pair.reps[1]
	raw, _ := json.Marshal(prefix[0])
	for i, wire := range wires {
		id := fmt.Sprintf("%s-probe-%d", origin.name, i)
		var err error
		tr.sp.span("cluster.standby_post_ms", time.Millisecond, 1, func() {
			err = postJSON(c, target.url+"/v1/cluster/standby", standbyWire{ID: id, Tenant: "bench", Origin: origin.name, Request: raw, Checkpoint: wire}, http.StatusOK)
		})
		if err != nil {
			return err
		}
		if err := postJSON(c, target.url+"/v1/cluster/standby", standbyWire{ID: id, Origin: origin.name, Done: true}, http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

func postJSON(c *http.Client, url string, v any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// forwardOverhead measures, on a two-replica fleet, the submit round trip
// of each prefix request sent through the replica that does not own its
// workload minus the one sent to the owner. Each request names an unknown
// resume_from, so the owner rejects it after routing and no job runs.
func forwardOverhead(pair *fleet, prefix []service.JobRequest) (float64, error) {
	c := newClient()
	defer closeClient(c)
	var direct, proxied []float64
	for _, req := range prefix {
		req.ResumeFrom = "no-such-job"
		owner := pair.replicaFor(req)
		other := pair.reps[0]
		if other == owner {
			other = pair.reps[1]
		}
		for _, r := range []*replica{owner, other} {
			t0 := time.Now()
			if err := postJSON(c, r.url+"/v1/jobs", req, http.StatusBadRequest); err != nil {
				return 0, err
			}
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			if r == owner {
				direct = append(direct, ms)
			} else {
				proxied = append(proxied, ms)
			}
		}
	}
	return median(proxied) - median(direct), nil
}
