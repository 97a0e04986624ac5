package workload

import (
	"fmt"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/querygraph"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
)

// N-ary optimizer/executor assembly over a MultiWorkload: perfect-knowledge
// inputs for the DP plan enumerator (optimizer.ChooseNary) and construction
// of the tree executor the chosen plan runs on.

// TrueNaryInputs assembles perfect-knowledge n-ary optimizer inputs: per
// relation and θ the measured scan-path parameters, per-relation costs, and
// the gold-set class-mask callback. The merge cost and worker knobs are the
// caller's to set.
func (mw *MultiWorkload) TrueNaryInputs(thetas []float64) (*optimizer.NaryInputs, error) {
	if len(thetas) == 0 {
		return nil, fmt.Errorf("workload: no θ settings")
	}
	in := &optimizer.NaryInputs{
		Thetas:  thetas,
		Classes: optimizer.SubsetClassFn(mw.Golds()),
	}
	for i := range mw.DBs {
		ps := make([]*model.RelationParams, 0, len(thetas))
		for _, theta := range thetas {
			p, err := mw.trueParams(i, theta)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		in.P = append(in.P, ps)
		in.Costs = append(in.Costs, mw.Costs[i])
	}
	return in, nil
}

// NewNaryExecutor builds the tree executor for a chosen n-ary plan: one
// side per relation at its leaf's θ, the leaf's retrieval strategy, effort
// caps at the leaf efforts, and the plan's merge cost. The engine, when
// workers or a shared cache are requested, overlaps extraction exactly as
// in the binary executors (bit-identical at every worker count). A non-nil
// shard set shards the leaves instead: every relation's stream routes
// through per-shard engines while the tree nodes keep merging the canonical
// consumer-ordered streams, so tuples and counters match the unsharded run.
func (mw *MultiWorkload) NewNaryExecutor(ev optimizer.NaryEval, tj float64, execWorkers int, cache *pipeline.Cache, shards *shard.Set) (*join.NaryExec, error) {
	if ev.Tree == nil || len(ev.Leaves) != len(mw.DBs) {
		return nil, fmt.Errorf("workload: n-ary plan covers %d relations, workload has %d", len(ev.Leaves), len(mw.DBs))
	}
	n := len(mw.DBs)
	sides := make([]*join.Side, n)
	strats := make([]retrieval.Strategy, n)
	caps := make([]int, n)
	kinds := make([]retrieval.Kind, n)
	for _, leaf := range ev.Leaves {
		i := leaf.Rel
		if i < 0 || i >= n {
			return nil, fmt.Errorf("workload: plan leaf references relation %d of %d", i, n)
		}
		sides[i] = mw.Side(i, leaf.Theta)
		if leaf.X != retrieval.SC {
			return nil, fmt.Errorf("workload: multi-way workloads execute scan retrieval only, plan wants %s on relation %d", leaf.X, i+1)
		}
		strats[i] = mw.Scan(i)
		caps[i] = leaf.Effort
		kinds[i] = leaf.X
	}
	for i := range sides {
		if sides[i] == nil {
			return nil, fmt.Errorf("workload: plan missing a leaf for relation %d", i+1)
		}
	}
	exec, err := join.NewNaryExec(sides, strats, join.NaryPlan{
		Tree:  ev.Tree,
		Caps:  caps,
		Kinds: kinds,
		TJ:    tj,
	})
	if err != nil {
		return nil, err
	}
	extract := func(k pipeline.Key) []relation.Tuple {
		return mw.Sys[k.Side].Extract(mw.DBs[k.Side].Doc(k.DocID).Text, k.Theta)
	}
	if shards != nil && shards.Part.N >= 2 {
		sizes := make([]int, len(mw.DBs))
		for i, db := range mw.DBs {
			sizes[i] = db.Size()
		}
		exec.Pipeline = shard.NewGroup(shards, execWorkers, sizes, extract)
	} else if execWorkers >= 1 || cache != nil {
		exec.Pipeline = pipeline.NewEngine(cache, execWorkers, extract)
	}
	return exec, nil
}

// Graph builds the validated query graph of a join spec over this
// workload's relations.
func (mw *MultiWorkload) Graph(joins [][2]int) (*querygraph.Graph, error) {
	return querygraph.Spec{Relations: mw.Tasks, Joins: joins}.Graph()
}
