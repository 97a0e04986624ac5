package join_test

import (
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

func multiWorkload(t *testing.T, p workload.Params, tasks ...string) *workload.MultiWorkload {
	t.Helper()
	mw, err := workload.Multi(p, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func multiSides(mw *workload.MultiWorkload, theta float64) ([]*join.Side, []retrieval.Strategy) {
	n := len(mw.DBs)
	sides := make([]*join.Side, n)
	strats := make([]retrieval.Strategy, n)
	for i := 0; i < n; i++ {
		sides[i] = mw.Side(i, theta)
		strats[i] = mw.Scan(i)
	}
	return sides, strats
}

// TestNaryExecGoldenVsMultiIDJN is the golden parity test: at TJ=0 with no
// effort caps and no pipeline engine, the tree executor must reproduce the
// reference MultiIDJN execution bit-for-bit — every counter and the
// cost-model time.
func TestNaryExecGoldenVsMultiIDJN(t *testing.T) {
	mw := multiWorkload(t, workload.Params{NumDocs: 450, Seed: 33}, "HQ", "EX", "MG")
	sides, strats := multiSides(mw, 0.4)
	legacy, err := join.NewMultiIDJN(sides, strats)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := join.RunMulti(legacy, nil)
	if err != nil {
		t.Fatal(err)
	}
	sides2, strats2 := multiSides(mw, 0.4)
	exec, err := join.NewNaryExec(sides2, strats2, join.NaryPlan{})
	if err != nil {
		t.Fatal(err)
	}
	nst, err := join.RunNary(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nst.GoodTuples != lst.GoodTuples || nst.BadTuples != lst.BadTuples {
		t.Errorf("tuples diverged: tree (%d, %d) vs legacy (%d, %d)",
			nst.GoodTuples, nst.BadTuples, lst.GoodTuples, lst.BadTuples)
	}
	if nst.Time != lst.Time {
		t.Errorf("time diverged: tree %v vs legacy %v", nst.Time, lst.Time)
	}
	for i := range sides {
		if nst.DocsProcessed[i] != lst.DocsProcessed[i] || nst.DocsRetrieved[i] != lst.DocsRetrieved[i] ||
			nst.DocsFiltered[i] != lst.DocsFiltered[i] || nst.Queries[i] != lst.Queries[i] {
			t.Errorf("side %d counters diverged: tree %+v vs legacy %+v", i, nst, lst)
		}
	}
	// The root node's materialization count is the total output.
	root := nst.NodeTuples[len(nst.NodeTuples)-1]
	if root != nst.GoodTuples+nst.BadTuples {
		t.Errorf("root node tuples %d != good+bad %d", root, nst.GoodTuples+nst.BadTuples)
	}
}

func TestMultiIDJNExecution(t *testing.T) {
	mw := multiWorkload(t, workload.Params{NumDocs: 900, Seed: 21}, "HQ", "EX", "MG")
	sides, strats := multiSides(mw, 0.4)
	e, err := join.NewMultiIDJN(sides, strats)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.RunMulti(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sides {
		if st.DocsProcessed[i] != mw.DBs[i].Size() {
			t.Errorf("side %d processed %d docs", i, st.DocsProcessed[i])
		}
	}
	if st.GoodTuples == 0 {
		t.Error("no good 3-way tuples")
	}
	if st.BadTuples == 0 {
		t.Error("no bad 3-way tuples at theta 0.4")
	}
	// Direct recomputation of the n-way products.
	good, total := 0, 0
	vals := map[string]bool{}
	for _, r := range st.Rels {
		for _, v := range r.JoinValues() {
			vals[v] = true
		}
	}
	for v := range vals {
		g, tot := 1, 1
		for _, r := range st.Rels {
			g *= r.GoodOcc(v)
			tot *= r.GoodOcc(v) + r.BadOcc(v)
		}
		good += g
		total += tot
	}
	if st.GoodTuples != good || st.BadTuples != total-good {
		t.Errorf("incremental counts (%d, %d) != direct (%d, %d)",
			st.GoodTuples, st.BadTuples, good, total-good)
	}
}

// TestNaryExecValidation: the tree executor rejects malformed inputs up
// front — too few sides, mismatched strategies, a missing strategy, and a
// tree that does not cover every side.
func TestNaryExecValidation(t *testing.T) {
	mw := multiWorkload(t, workload.Params{NumDocs: 900, Seed: 21}, "HQ", "EX", "MG")
	if _, err := join.NewNaryExec([]*join.Side{mw.Side(0, 0.4)}, []retrieval.Strategy{mw.Scan(0)}, join.NaryPlan{}); err == nil {
		t.Error("expected error for 1 side")
	}
	if _, err := join.NewNaryExec(
		[]*join.Side{mw.Side(0, 0.4), mw.Side(1, 0.4)},
		[]retrieval.Strategy{mw.Scan(0)}, join.NaryPlan{}); err == nil {
		t.Error("expected error for arity mismatch")
	}
	if _, err := join.NewNaryExec(
		[]*join.Side{mw.Side(0, 0.4), mw.Side(1, 0.4)},
		[]retrieval.Strategy{mw.Scan(0), nil}, join.NaryPlan{}); err == nil {
		t.Error("expected error for nil strategy")
	}
	sides, strats := multiSides(mw, 0.4)
	if _, err := join.NewNaryExec(sides, strats, join.NaryPlan{Tree: join.LeafChain(2)}); err == nil {
		t.Error("expected error for a tree missing a side")
	}
}
