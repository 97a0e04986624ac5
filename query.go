package joinopt

import (
	"context"
	"fmt"

	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/querygraph"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// MaxQueryRelations is the largest number of relations a Query may join.
const MaxQueryRelations = querygraph.MaxRelations

// Query declares a multi-relation extraction join: which standard tasks
// ("HQ", "EX", "MG" — repeats allowed, each occurrence gets its own
// database) to extract, and which pairs share their join attribute. All
// relations join on the shared first attribute, so Joins only shapes the
// query graph the optimizer enumerates join trees over; an empty Joins
// defaults to the chain R1—R2—…—Rk. The graph must be connected and may
// name 2..MaxQueryRelations relations.
type Query struct {
	Relations []string
	Joins     [][2]int
}

// NewQuery builds a task from a declarative query. A two-relation query
// over distinct tasks yields a binary task — the full plan space (IDJN,
// OIJN, ZGJN; SC/FS/AQG), the adaptive §VI protocol, fault injection, and
// every two-relation method apply, exactly as with NewTaskPair. Queries
// over three or more relations (or a repeated pair) yield an n-ary task:
// Run plans them with the DP join-tree enumerator and executes the chosen
// tree; the two-relation-only methods report a descriptive error.
func NewQuery(p WorkloadParams, q Query) (*Task, error) {
	// Validate the query shape up front (arity bounds, predicate bounds,
	// connectivity) so both constructions reject the same specs.
	if _, err := (querygraph.Spec{Relations: q.Relations, Joins: q.Joins}).Graph(); err != nil {
		return nil, err
	}
	if len(q.Relations) == 2 && q.Relations[0] != q.Relations[1] {
		return NewTaskPair(p, q.Relations[0], q.Relations[1])
	}
	if p.NumDocs == 0 {
		p.NumDocs = workload.DefaultParams.NumDocs
	}
	if p.Seed == 0 {
		p.Seed = workload.DefaultParams.Seed
	}
	mw, err := workload.Multi(workload.Params{NumDocs: p.NumDocs, Seed: p.Seed, TopK: p.TopK}, q.Relations)
	if err != nil {
		return nil, err
	}
	joins := make([][2]int, len(q.Joins))
	copy(joins, q.Joins)
	return &Task{mw: mw, joins: joins}, nil
}

// QueryLeaf is one relation's configuration in a chosen n-ary plan: its
// knob setting, retrieval strategy, and effort budget (documents for
// SC/FS, queries for AQG).
type QueryLeaf struct {
	Relation string
	Theta    float64
	Strategy Strategy
	Effort   int
}

// QueryPlan is the optimizer's chosen n-ary plan: the join tree (e.g.
// "((R1⋈R2)⋈R3)"), the per-relation configurations, and the model's
// predictions at the chosen efforts.
type QueryPlan struct {
	Tree   string
	Leaves []QueryLeaf

	EstimatedGood float64
	EstimatedBad  float64
	EstimatedTime float64

	// EstimatedMergeTuples is Σ over internal tree nodes of the expected
	// intermediate cardinality — what the merge cost charges.
	EstimatedMergeTuples float64
}

// String renders the plan compactly.
func (qp QueryPlan) String() string {
	s := qp.Tree
	for i, l := range qp.Leaves {
		if i == 0 {
			s += " "
		} else {
			s += ","
		}
		s += fmt.Sprintf("%s⟨θ=%.1f,%s,e=%d⟩", l.Relation, l.Theta, l.Strategy, l.Effort)
	}
	return s
}

// QueryOutcome summarizes an executed n-ary query.
type QueryOutcome struct {
	Plan QueryPlan

	GoodTuples int
	BadTuples  int

	// Time is the cost-model execution time; MergeTime is the merge-cost
	// portion of it (Task.MergeCost per intermediate tuple).
	Time      float64
	MergeTime float64

	// CacheSaved is the per-relation extraction time the shared cache made
	// free; Time + ΣCacheSaved is invariant under cache warmth.
	CacheSaved []float64

	// Work counters per relation, indexed in query order.
	DocsProcessed []int
	DocsRetrieved []int
	DocsFiltered  []int
	Queries       []int

	// NodeTuples counts the tuples materialized at each internal node of
	// the executed join tree in post-order (root last); the root entry
	// equals GoodTuples+BadTuples.
	NodeTuples []int

	DeadlineHit bool
}

// QueryProgress is the observable state of a running n-ary execution.
type QueryProgress struct {
	GoodTuples, BadTuples int
	DocsProcessed         []int
	DocsRetrieved         []int
	Queries               []int
	Time                  float64
}

// Arity returns the number of relations the task joins.
func (t *Task) Arity() int {
	if t.mw != nil {
		return len(t.mw.DBs)
	}
	return 2
}

// RelationNames names the extracted relations in query order.
func (t *Task) RelationNames() []string {
	if t.mw != nil {
		golds := t.mw.Golds()
		out := make([]string, len(golds))
		for i, g := range golds {
			out[i] = g.Schema.String()
		}
		return out
	}
	return []string{
		t.w.DB[0].Gold(t.w.Task[0]).Schema.String(),
		t.w.DB[1].Gold(t.w.Task[1]).Schema.String(),
	}
}

// Sizes returns the document counts of the task's databases in query order.
func (t *Task) Sizes() []int {
	if t.mw != nil {
		out := make([]int, len(t.mw.DBs))
		for i, db := range t.mw.DBs {
			out[i] = db.Size()
		}
		return out
	}
	return []int{t.w.DB[0].Size(), t.w.DB[1].Size()}
}

// binaryOnly guards the two-relation-only surface on n-ary tasks.
func (t *Task) binaryOnly(op string) error {
	if t.w == nil {
		return fmt.Errorf("joinopt: %s applies to two-relation tasks; this query joins %d relations", op, t.Arity())
	}
	return nil
}

// naryInputs assembles the n-ary optimizer inputs from the task's measured
// workload parameters and knobs.
func (t *Task) naryInputs(workers, execWorkers, shards int) (*querygraph.Graph, *optimizer.NaryInputs, error) {
	g, err := t.mw.Graph(t.joins)
	if err != nil {
		return nil, nil, err
	}
	in, err := t.mw.TrueNaryInputs(Knobs)
	if err != nil {
		return nil, nil, err
	}
	in.Workers = workers
	in.ExecWorkers = execWorkers
	in.Shards = shards
	in.TJ = t.MergeCost
	return g, in, nil
}

func queryPlanOf(names []string, ev optimizer.NaryEval) QueryPlan {
	qp := QueryPlan{
		Tree:                 ev.Tree.String(),
		EstimatedGood:        ev.Quality.Good,
		EstimatedBad:         ev.Quality.Bad,
		EstimatedTime:        ev.Time,
		EstimatedMergeTuples: ev.MergeTuples,
	}
	for _, l := range ev.Leaves {
		qp.Leaves = append(qp.Leaves, QueryLeaf{
			Relation: names[l.Rel],
			Theta:    l.Theta,
			Strategy: Strategy(l.X),
			Effort:   l.Effort,
		})
	}
	return qp
}

func queryOutcomeOf(qp QueryPlan, st *join.NaryState, deadlineHit bool) *QueryOutcome {
	return &QueryOutcome{
		Plan:          qp,
		GoodTuples:    st.GoodTuples,
		BadTuples:     st.BadTuples,
		Time:          st.Time,
		MergeTime:     st.MergeTime,
		CacheSaved:    st.CacheSaved,
		DocsProcessed: st.DocsProcessed,
		DocsRetrieved: st.DocsRetrieved,
		DocsFiltered:  st.DocsFiltered,
		Queries:       st.Queries,
		NodeTuples:    st.NodeTuples,
		DeadlineHit:   deadlineHit,
	}
}

// OptimizeQuery picks the fastest plan predicted to meet the requirement
// using perfect-knowledge parameters measured on the task's databases. On a
// two-relation task it runs the legacy binary optimizer over its full plan
// space and reports the choice in query-plan form — the binary join is a
// derived special case, not a separate code path the caller must select.
func (t *Task) OptimizeQuery(req Requirement) (QueryPlan, error) {
	if t.mw == nil {
		in, err := t.w.TrueInputs(Knobs)
		if err != nil {
			return QueryPlan{}, err
		}
		in.Workers = t.Workers
		best, _, err := optimizer.Choose(optimizer.Enumerate(Knobs), in, optimizer.Requirement(req))
		if err != nil {
			return QueryPlan{}, err
		}
		names := t.RelationNames()
		return QueryPlan{
			Tree: "(R1⋈R2)",
			Leaves: []QueryLeaf{
				{Relation: names[0], Theta: best.Plan.Theta[0], Strategy: Strategy(best.Plan.X[0]), Effort: best.Effort[0]},
				{Relation: names[1], Theta: best.Plan.Theta[1], Strategy: Strategy(best.Plan.X[1]), Effort: best.Effort[1]},
			},
			EstimatedGood: best.Quality.Good,
			EstimatedBad:  best.Quality.Bad,
			EstimatedTime: best.Time,
		}, nil
	}
	g, in, err := t.naryInputs(t.Workers, t.ExecWorkers, t.Shards)
	if err != nil {
		return QueryPlan{}, err
	}
	best, _, err := optimizer.ChooseNary(g, in, optimizer.Requirement(req))
	if err != nil {
		return QueryPlan{}, err
	}
	return queryPlanOf(t.RelationNames(), best), nil
}

// runQuery plans and executes an n-ary query: measured parameters feed the
// DP join-tree enumerator, and the chosen plan runs on the tree executor
// with the leaf efforts as caps.
func (t *Task) runQuery(ctx context.Context, req Requirement, opts []RunOption) (*RunResult, error) {
	cfg := &runConfig{}
	for _, o := range opts {
		o(cfg)
	}
	switch {
	case cfg.plan != nil:
		return nil, fmt.Errorf("joinopt: WithPlan pins two-relation plans; n-ary queries are planned by the query optimizer")
	case cfg.stop != nil:
		return nil, fmt.Errorf("joinopt: WithStop applies to two-relation runs; use WithQueryStop on n-ary queries")
	case cfg.ck != nil || cfg.ckSink != nil:
		return nil, fmt.Errorf("joinopt: adaptive checkpoints apply to two-relation runs only")
	case cfg.retry != nil:
		return nil, fmt.Errorf("joinopt: retry policies apply to two-relation runs only")
	case cfg.metrics != nil:
		return nil, fmt.Errorf("joinopt: metrics instrumentation covers two-relation runs only")
	}
	if (cfg.faultsSet && cfg.faults != nil) || (!cfg.faultsSet && t.Faults != nil) {
		return nil, fmt.Errorf("joinopt: fault injection applies to two-relation runs only")
	}
	workers := t.Workers
	if cfg.workers != nil {
		workers = *cfg.workers
	}
	execWorkers := t.ExecWorkers
	if cfg.execWorkers != nil {
		execWorkers = *cfg.execWorkers
	}
	cacheBytes := t.ExtractCacheBytes
	if cfg.cacheBytes != nil {
		cacheBytes = *cfg.cacheBytes
	}
	shards := t.Shards
	if cfg.shards != nil {
		shards = *cfg.shards
	}
	deadline := t.Deadline
	if cfg.deadline != nil {
		deadline = *cfg.deadline
	}

	if cfg.trace.Enabled() {
		cfg.trace.EmitAt(0, obs.KindRunStart, 0, map[string]any{
			"mode": "query", "relations": t.Arity(), "tau_g": req.TauG, "tau_b": req.TauB,
		})
	}
	g, in, err := t.naryInputs(workers, execWorkers, shards)
	if err != nil {
		return nil, err
	}
	best, _, err := optimizer.ChooseNary(g, in, optimizer.Requirement(req))
	if err != nil {
		return nil, err
	}
	qp := queryPlanOf(t.RelationNames(), best)
	if cfg.trace.Enabled() {
		cfg.trace.EmitAt(0, obs.KindPlanChosen, 0, map[string]any{
			"plan": qp.String(), "est_good": qp.EstimatedGood, "est_bad": qp.EstimatedBad, "est_time": qp.EstimatedTime,
		})
	}
	var cache *pipeline.Cache
	set := t.shardSet(cacheBytes, shards)
	if set == nil {
		cache = t.extractCache(cacheBytes)
	}
	exec, err := t.mw.NewNaryExecutor(best, in.TJ, execWorkers, cache, set)
	if err != nil {
		return nil, err
	}
	st, deadlineHit, err := t.runNaryExec(ctx, exec, deadline, cfg.qstop)
	qo := queryOutcomeOf(qp, st, deadlineHit)
	res := &RunResult{Query: qo, TotalTime: st.Time}
	if cfg.trace.Enabled() {
		cfg.trace.EmitAt(res.TotalTime, obs.KindRunEnd, 0, map[string]any{
			"mode": "query", "plan": qp.Tree, "good": qo.GoodTuples, "bad": qo.BadTuples,
			"time": qo.Time, "total_time": res.TotalTime, "deadline_hit": qo.DeadlineHit,
		})
	}
	if err == nil && deadlineHit {
		err = fmt.Errorf("joinopt: %s: %w", qp.Tree, ErrDeadline)
	}
	return res, err
}

// runNaryExec drives a tree executor under a context, a cost-model
// deadline, and an optional stop condition.
func (t *Task) runNaryExec(ctx context.Context, exec *join.NaryExec, deadline float64, qstop func(QueryProgress) bool) (*join.NaryState, bool, error) {
	deadlineHit := false
	st, err := join.RunNary(exec, func(s *join.NaryState) bool {
		if ctx.Err() != nil {
			return true
		}
		if deadline > 0 && s.Time >= deadline {
			deadlineHit = true
			return true
		}
		return qstop != nil && qstop(QueryProgress{
			GoodTuples: s.GoodTuples, BadTuples: s.BadTuples,
			DocsProcessed: s.DocsProcessed, DocsRetrieved: s.DocsRetrieved,
			Queries: s.Queries, Time: s.Time,
		})
	})
	if err == nil {
		err = ctx.Err()
	}
	return st, deadlineHit, err
}

// ExecuteQuery runs an n-ary query at pinned per-relation knob settings —
// full scans of every database joined along the left-deep chain (the
// output composition is tree-independent), with no optimizer in the loop.
// It is the n-ary analogue of a fixed-plan Run; stop may be nil.
func (t *Task) ExecuteQuery(thetas []float64, stop func(QueryProgress) bool) (*QueryOutcome, error) {
	if t.mw == nil {
		return nil, fmt.Errorf("joinopt: ExecuteQuery applies to n-ary query tasks; pin two-relation plans with Run(WithPlan)")
	}
	n := len(t.mw.DBs)
	if len(thetas) != n {
		return nil, fmt.Errorf("joinopt: query joins %d relations but %d θ settings given", n, len(thetas))
	}
	ev := optimizer.NaryEval{Tree: join.LeafChain(n), Feasible: true}
	for i := 0; i < n; i++ {
		size := t.mw.DBs[i].Size()
		ev.Leaves = append(ev.Leaves, optimizer.NaryLeaf{
			Rel: i, Theta: thetas[i], X: retrieval.SC, Effort: size, MaxEffort: size,
		})
	}
	var cache *pipeline.Cache
	set := t.shardSet(t.ExtractCacheBytes, t.Shards)
	if set == nil {
		cache = t.extractCache(t.ExtractCacheBytes)
	}
	exec, err := t.mw.NewNaryExecutor(ev, t.MergeCost, t.ExecWorkers, cache, set)
	if err != nil {
		return nil, err
	}
	st, _, err := t.runNaryExec(context.Background(), exec, 0, stop)
	if err != nil {
		return nil, err
	}
	return queryOutcomeOf(queryPlanOf(t.RelationNames(), ev), st, false), nil
}
