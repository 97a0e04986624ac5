package workload

import (
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/querygraph"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
)

func naryTriple(t *testing.T) *MultiWorkload {
	t.Helper()
	mw, err := Multi(Params{NumDocs: 450, Seed: 33}, []string{"HQ", "EX", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func narySides(mw *MultiWorkload, theta float64) ([]*join.Side, []retrieval.Strategy) {
	n := len(mw.DBs)
	sides := make([]*join.Side, n)
	strats := make([]retrieval.Strategy, n)
	for i := 0; i < n; i++ {
		sides[i] = mw.Side(i, theta)
		strats[i] = mw.Scan(i)
	}
	return sides, strats
}

// TestNaryExecEffortCaps: the executor must stop each side exactly at its
// effort cap (retrieved documents for scans).
func TestNaryExecEffortCaps(t *testing.T) {
	mw := naryTriple(t)
	sides, strats := narySides(mw, 0.4)
	caps := []int{100, 220, 150}
	exec, err := join.NewNaryExec(sides, strats, join.NaryPlan{
		Caps:  caps,
		Kinds: []retrieval.Kind{retrieval.SC, retrieval.SC, retrieval.SC},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.RunNary(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cap := range caps {
		if st.DocsRetrieved[i] != cap {
			t.Errorf("side %d retrieved %d docs, cap %d", i, st.DocsRetrieved[i], cap)
		}
		if st.DocsProcessed[i] != cap {
			t.Errorf("side %d processed %d docs, cap %d", i, st.DocsProcessed[i], cap)
		}
	}
}

// TestNaryExecMergeAccounting: with TJ > 0 the execution charges exactly
// TJ·ΣNodeTuples on top of the TJ=0 baseline, and reports the split.
func TestNaryExecMergeAccounting(t *testing.T) {
	mw := naryTriple(t)
	run := func(tj float64) *join.NaryState {
		sides, strats := narySides(mw, 0.4)
		exec, err := join.NewNaryExec(sides, strats, join.NaryPlan{TJ: tj})
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.RunNary(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(0)
	charged := run(0.25)
	if base.MergeTime != 0 {
		t.Errorf("TJ=0 charged merge time %v", base.MergeTime)
	}
	var nodeSum int
	for _, n := range charged.NodeTuples {
		nodeSum += n
	}
	if want := 0.25 * float64(nodeSum); charged.MergeTime != want {
		t.Errorf("merge time %v, want TJ·ΣNodeTuples = %v", charged.MergeTime, want)
	}
	if charged.Time != base.Time+charged.MergeTime {
		t.Errorf("time %v != baseline %v + merge %v", charged.Time, base.Time, charged.MergeTime)
	}
	if charged.GoodTuples != base.GoodTuples || charged.BadTuples != base.BadTuples {
		t.Error("TJ changed the output composition")
	}
}

// TestNaryExecTreeShapeInvariance: the root output is order-independent —
// any tree over the same relations yields identical good/bad counts; only
// the intermediate materializations move.
func TestNaryExecTreeShapeInvariance(t *testing.T) {
	mw := naryTriple(t)
	trees := []*join.TreeNode{
		nil, // default left-deep chain
		{Rel: -1, Left: &join.TreeNode{Rel: 0}, Right: &join.TreeNode{
			Rel: -1, Left: &join.TreeNode{Rel: 1}, Right: &join.TreeNode{Rel: 2}}},
		{Rel: -1, Left: &join.TreeNode{Rel: -1, Left: &join.TreeNode{Rel: 2}, Right: &join.TreeNode{Rel: 0}},
			Right: &join.TreeNode{Rel: 1}},
	}
	var ref *join.NaryState
	for ti, tree := range trees {
		sides, strats := narySides(mw, 0.8)
		exec, err := join.NewNaryExec(sides, strats, join.NaryPlan{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.RunNary(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ti == 0 {
			ref = st
			continue
		}
		if st.GoodTuples != ref.GoodTuples || st.BadTuples != ref.BadTuples || st.Time != ref.Time {
			t.Errorf("tree %d diverged: (%d, %d, %v) vs (%d, %d, %v)", ti,
				st.GoodTuples, st.BadTuples, st.Time, ref.GoodTuples, ref.BadTuples, ref.Time)
		}
	}
}

// TestNaryExecPipelineBitIdentical: the pipeline engine must leave the
// execution bit-identical at every worker count, with the Time+ΣCacheSaved
// invariant, exactly like the binary executors.
func TestNaryExecPipelineBitIdentical(t *testing.T) {
	mw := naryTriple(t)
	g, err := querygraph.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := mw.TrueNaryInputs([]float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 1
	best, _, err := optimizer.ChooseNary(g, in, optimizer.Requirement{TauG: 10, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var ref *join.NaryState
	for _, workers := range []int{0, 1, 4} {
		exec, err := mw.NewNaryExecutor(best, 0.1, workers, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.RunNary(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = st
			if st.GoodTuples == 0 {
				t.Fatal("chosen plan produced no good tuples")
			}
			continue
		}
		if st.GoodTuples != ref.GoodTuples || st.BadTuples != ref.BadTuples {
			t.Errorf("workers=%d tuples diverged: (%d, %d) vs (%d, %d)", workers,
				st.GoodTuples, st.BadTuples, ref.GoodTuples, ref.BadTuples)
		}
		sum := func(s *join.NaryState) float64 {
			total := s.Time
			for _, cs := range s.CacheSaved {
				total += cs
			}
			return total
		}
		if sum(st) != sum(ref) {
			t.Errorf("workers=%d Time+ΣCacheSaved invariant broken: %v vs %v", workers, sum(st), sum(ref))
		}
		for i := range st.DocsProcessed {
			if st.DocsProcessed[i] != ref.DocsProcessed[i] {
				t.Errorf("workers=%d side %d processed %d vs %d", workers, i, st.DocsProcessed[i], ref.DocsProcessed[i])
			}
		}
	}
}

// TestNaryExecShardedBitIdentical: sharding a four-relation tree execution
// must leave every counter identical at every shard count — the leaves route
// through per-shard engines but the tree nodes keep merging the canonical
// consumer-ordered streams — including with a per-shard worker split on top,
// and the Time+ΣCacheSaved warmth invariant must hold.
func TestNaryExecShardedBitIdentical(t *testing.T) {
	mw, err := Multi(Params{NumDocs: 450, Seed: 33}, []string{"HQ", "EX", "MG", "HQ"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := querygraph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := mw.TrueNaryInputs([]float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 1
	best, _, err := optimizer.ChooseNary(g, in, optimizer.Requirement{TauG: 5, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards, workers int) *join.NaryState {
		var set *shard.Set
		if shards >= 2 {
			set = shard.NewSet(shard.Partition{N: shards}, 1<<26)
		}
		exec, err := mw.NewNaryExecutor(best, 0.1, workers, nil, set)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.RunNary(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	warmth := func(s *join.NaryState) float64 {
		total := s.Time
		for _, cs := range s.CacheSaved {
			total += cs
		}
		return total
	}
	ref := run(0, 0)
	if ref.GoodTuples == 0 {
		t.Fatal("chosen plan produced no good tuples")
	}
	for _, cfg := range [][2]int{{1, 0}, {2, 0}, {4, 0}, {8, 0}, {4, 3}} {
		st := run(cfg[0], cfg[1])
		if st.GoodTuples != ref.GoodTuples || st.BadTuples != ref.BadTuples {
			t.Errorf("shards=%d workers=%d tuples diverged: (%d, %d) vs (%d, %d)", cfg[0], cfg[1],
				st.GoodTuples, st.BadTuples, ref.GoodTuples, ref.BadTuples)
		}
		if warmth(st) != warmth(ref) {
			t.Errorf("shards=%d workers=%d Time+ΣCacheSaved invariant broken: %v vs %v", cfg[0], cfg[1], warmth(st), warmth(ref))
		}
		for i := range st.DocsProcessed {
			if st.DocsProcessed[i] != ref.DocsProcessed[i] || st.DocsRetrieved[i] != ref.DocsRetrieved[i] {
				t.Errorf("shards=%d workers=%d side %d counters diverged", cfg[0], cfg[1], i)
			}
		}
	}
}

// TestChooseNaryOnWorkload runs the enumerator against measured workload
// parameters end to end: the chosen plan must be feasible, its executed
// output must reach the requirement's τg, and the executed efforts must
// respect the plan's caps.
func TestChooseNaryOnWorkload(t *testing.T) {
	mw := naryTriple(t)
	g, err := mw.Graph(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := mw.TrueNaryInputs([]float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 25, TauB: 1 << 30}
	best, evals, err := optimizer.ChooseNary(g, in, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) == 0 || !best.Feasible {
		t.Fatalf("no feasible plan: %+v", best)
	}
	exec, err := mw.NewNaryExecutor(best, in.TJ, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.RunNary(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The model is an expectation, not an exact predictor — require the
	// executed output to land within a factor of the requirement.
	if st.GoodTuples < req.TauG/3 {
		t.Errorf("executed good tuples %d far below τg %d (predicted %.1f)",
			st.GoodTuples, req.TauG, best.Quality.Good)
	}
	for i, leaf := range best.Leaves {
		if st.DocsRetrieved[leaf.Rel] > leaf.Effort {
			t.Errorf("side %d retrieved %d docs past its cap %d", i, st.DocsRetrieved[leaf.Rel], leaf.Effort)
		}
	}
}
