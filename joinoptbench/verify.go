package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"joinopt"
	"joinopt/internal/service"
)

// outcome is the part of a job result that must not depend on where, how
// concurrently, or how cache-warm the job ran.
type outcome struct {
	plans     []string
	good, bad int
	docs      [2]int
	invariant float64 // Time + ΣCacheSaved
	tree      string  // n-ary jobs: the chosen join tree
}

func outcomeOfJob(r *service.JobResult) outcome {
	o := outcome{plans: r.Plans, good: r.Good, bad: r.Bad, docs: r.DocsProcessed,
		invariant: r.Time + r.CacheSaved[0] + r.CacheSaved[1]}
	if r.Query != nil {
		o.tree = r.Query.Tree
	}
	return o
}

func outcomeOfRun(res *joinopt.RunResult) outcome {
	var o outcome
	for _, p := range res.Plans {
		o.plans = append(o.plans, p.String())
	}
	if out := res.Outcome; out != nil {
		o.good, o.bad, o.docs = out.GoodTuples, out.BadTuples, out.DocsProcessed
		o.invariant = out.Time + out.CacheSaved[0] + out.CacheSaved[1]
	}
	if q := res.Query; q != nil {
		o.plans = append(o.plans, q.Plan.String())
		o.good, o.bad, o.tree = q.GoodTuples, q.BadTuples, q.Plan.Tree
	}
	return o
}

// compare checks a job's outcome field by field against its reference.
// n-ary jobs are compared on their join tree and good tuples.
func compare(got, want outcome, nary bool) error {
	switch {
	case got.tree != want.tree:
		return fmt.Errorf("tree %q, reference %q", got.tree, want.tree)
	case got.good != want.good:
		return fmt.Errorf("good %d, reference %d", got.good, want.good)
	case nary:
		return nil
	case !slices.Equal(got.plans, want.plans):
		return fmt.Errorf("plans %v, reference %v", got.plans, want.plans)
	case got.bad != want.bad:
		return fmt.Errorf("bad %d, reference %d", got.bad, want.bad)
	case got.docs != want.docs:
		return fmt.Errorf("docs processed %v, reference %v", got.docs, want.docs)
	case math.Abs(got.invariant-want.invariant) > 1e-9*math.Max(1, math.Abs(want.invariant)):
		return fmt.Errorf("time + cache saved %v, reference %v", got.invariant, want.invariant)
	}
	return nil
}

// verifier runs every distinct request once more, directly on a Task of its
// own outside the service, and checks each job's result against it.
type verifier struct {
	tasks map[string]*joinopt.Task // by canonical workload key
	refs  map[string]outcome       // by refKey
	// corrupt, when set, alters every reference before use; the tests use
	// it to prove that a wrong reference fails the check.
	corrupt func(*outcome)
}

func newVerifier() *verifier {
	return &verifier{tasks: map[string]*joinopt.Task{}, refs: map[string]outcome{}}
}

func (v *verifier) task(req service.JobRequest) (*joinopt.Task, error) {
	key := service.CanonicalWorkloadKey(req)
	if t, ok := v.tasks[key]; ok {
		return t, nil
	}
	wl := req.Workload
	p := joinopt.WorkloadParams{NumDocs: wl.NumDocs, NumDocs2: wl.NumDocs2, Seed: wl.Seed, TopK: wl.TopK}
	var t *joinopt.Task
	var err error
	if q := req.Query; q != nil {
		t, err = joinopt.NewQuery(p, joinopt.Query{Relations: q.Relations, Joins: q.Joins})
	} else {
		t, err = joinopt.NewTaskPair(p, req.Workload.Relations[0], req.Workload.Relations[1])
	}
	if err != nil {
		return nil, err
	}
	v.tasks[key] = t
	return t, nil
}

// reference returns the memoized reference outcome of a job. Execute and
// query jobs are run again as submitted. An adaptive job's plan choice
// reads the shared extraction cache's hit rate, so it depends on what ran
// before it; its reference is instead its final plan, pinned and run to the
// job's processed-document counts, which must reproduce the job's good and
// bad tuples, documents and Time + ΣCacheSaved exactly.
func (v *verifier) reference(req service.JobRequest, got *service.JobResult) (outcome, error) {
	t, err := v.task(req)
	if err != nil {
		return outcome{}, err
	}
	key := refKey(req)
	var opts []joinopt.RunOption
	switch req.Mode {
	case service.ModeExecute:
		opts = append(opts, joinopt.WithPlan(planOf(req.Plan)))
	case service.ModeAdaptive:
		if len(got.Plans) == 0 {
			return outcome{}, fmt.Errorf("adaptive result names no plan")
		}
		final, err := parsePlan(got.Plans[len(got.Plans)-1])
		if err != nil {
			return outcome{}, err
		}
		docs := got.DocsProcessed
		key = fmt.Sprintf("%s|%s|%v", service.CanonicalWorkloadKey(req), final, docs)
		opts = append(opts, joinopt.WithPlan(final), joinopt.WithStop(func(p joinopt.Progress) bool {
			return p.DocsProcessed[0] >= docs[0] && p.DocsProcessed[1] >= docs[1]
		}))
	}
	o, ok := v.refs[key]
	if !ok {
		if o, err = referenceRun(t, req, opts); err != nil {
			return outcome{}, err
		}
		v.refs[key] = o
	}
	if req.Mode == service.ModeAdaptive {
		o.plans = got.Plans // the choice itself is not reproducible; see above
	}
	if v.corrupt != nil {
		v.corrupt(&o)
	}
	return o, nil
}

// referenceRun runs a request directly on a Task with the given options and
// the request's execution knobs.
func referenceRun(t *joinopt.Task, req service.JobRequest, opts []joinopt.RunOption) (outcome, error) {
	if req.ExecWorkers != 0 {
		opts = append(opts, joinopt.WithExecWorkers(req.ExecWorkers))
	}
	if req.Shards != 0 {
		opts = append(opts, joinopt.WithShards(req.Shards))
	}
	res, err := t.Run(context.Background(), joinopt.Requirement{TauG: req.TauG, TauB: req.TauB}, opts...)
	if err != nil {
		return outcome{}, fmt.Errorf("reference run: %w", err)
	}
	return outcomeOfRun(res), nil
}

// parsePlan reads a plan back from its string form (optimizer.PlanSpec's
// String), and refuses any string it cannot reproduce exactly.
func parsePlan(s string) (joinopt.Plan, error) {
	var p joinopt.Plan
	var err error
	qr := joinopt.QueryRetrieve
	switch alg, _, _ := strings.Cut(s, " "); alg {
	case "OIJN":
		var outer int
		var x string
		_, err = fmt.Sscanf(s, "OIJN θ=(%f,%f) outer=R%d/%s", &p.Theta[0], &p.Theta[1], &outer, &x)
		p.Algorithm, p.OuterIdx = joinopt.OuterInnerJoin, outer-1
		if err == nil && (outer == 1 || outer == 2) {
			p.X[outer-1], p.X[2-outer] = joinopt.Strategy(x), qr
		}
	case "ZGJN":
		_, err = fmt.Sscanf(s, "ZGJN θ=(%f,%f)", &p.Theta[0], &p.Theta[1])
		p.Algorithm, p.X = joinopt.ZigZagJoin, [2]joinopt.Strategy{qr, qr}
	case "IDJN":
		var xs string
		_, err = fmt.Sscanf(s, "IDJN θ=(%f,%f) X=%s", &p.Theta[0], &p.Theta[1], &xs)
		x1, x2, _ := strings.Cut(strings.Trim(xs, "()"), ",")
		p.Algorithm, p.X = joinopt.IndependentJoin, [2]joinopt.Strategy{joinopt.Strategy(x1), joinopt.Strategy(x2)}
	}
	if err != nil || p.String() != s {
		return p, fmt.Errorf("cannot read plan %q back (%v)", s, err)
	}
	return p, nil
}

// check verifies the done jobs among recs, marking each failed one, and
// returns the number of mismatches and the first one's description.
func (v *verifier) check(recs []*jobRec) (int, string, error) {
	bad, first := 0, ""
	for _, r := range recs {
		if r.failed || r.result == nil {
			continue
		}
		want, err := v.reference(r.req, r.result)
		if err != nil {
			return 0, "", err
		}
		if err := compare(outcomeOfJob(r.result), want, r.req.Query != nil); err != nil {
			r.failed = true
			bad++
			if first == "" {
				first = fmt.Sprintf("job %d: %v", r.idx, err)
			}
		}
	}
	return bad, first, nil
}

// planOf converts a pinned-plan request into a facade Plan with the
// normalization the service applies: query-retrieved sides carry no
// strategy, and an unset θ is 0.4.
func planOf(p *service.PlanRequest) joinopt.Plan {
	plan := joinopt.Plan{
		Algorithm: joinopt.Algorithm(p.Algorithm),
		Theta:     p.Theta,
		X:         [2]joinopt.Strategy{joinopt.Strategy(p.X[0]), joinopt.Strategy(p.X[1])},
		OuterIdx:  p.OuterIdx,
	}
	switch plan.Algorithm {
	case joinopt.OuterInnerJoin:
		plan.X[1-p.OuterIdx] = joinopt.QueryRetrieve
	case joinopt.ZigZagJoin:
		plan.X = [2]joinopt.Strategy{joinopt.QueryRetrieve, joinopt.QueryRetrieve}
	}
	for i := range plan.Theta {
		if plan.Theta[i] == 0 {
			plan.Theta[i] = 0.4
		}
	}
	return plan
}
