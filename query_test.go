package joinopt_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"joinopt"
)

// TestQueryBinarySpecialCase: a two-relation query IS the binary task — the
// same construction, the same optimizer choice, the same execution,
// bit-for-bit.
func TestQueryBinarySpecialCase(t *testing.T) {
	p := joinopt.WorkloadParams{NumDocs: 800, Seed: 11}
	qt, err := joinopt.NewQuery(p, joinopt.Query{Relations: []string{"HQ", "EX"}})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := joinopt.NewTaskPair(p, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	if qt.Arity() != 2 {
		t.Fatalf("arity %d", qt.Arity())
	}
	req := joinopt.Requirement{TauG: 8, TauB: 200}
	qBest, err := qt.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	bBest, err := bt.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if qBest != bBest {
		t.Errorf("query-built task chose %+v, pair-built chose %+v", qBest, bBest)
	}
	// OptimizeQuery reports the same binary choice in query-plan form.
	qp, err := qt.OptimizeQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if qp.EstimatedTime != bBest.EstimatedTime || qp.EstimatedGood != bBest.EstimatedGood {
		t.Errorf("OptimizeQuery predictions diverged: %+v vs %+v", qp, bBest)
	}
	if len(qp.Leaves) != 2 || qp.Leaves[0].Theta != bBest.Plan.Theta[0] ||
		joinopt.Strategy(qp.Leaves[0].Strategy) != bBest.Plan.X[0] {
		t.Errorf("OptimizeQuery leaves %+v diverged from plan %+v", qp.Leaves, bBest.Plan)
	}
	qRun, err := qt.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	bRun, err := bt.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if qRun.Outcome.GoodTuples != bRun.Outcome.GoodTuples ||
		qRun.Outcome.BadTuples != bRun.Outcome.BadTuples ||
		qRun.TotalTime != bRun.TotalTime {
		t.Errorf("query-built run diverged: %+v vs %+v", qRun.Outcome, bRun.Outcome)
	}
}

// TestQueryNaryRunEndToEnd: a 4-relation query plans and executes through
// Run; the result reports the chosen tree, leaves, and per-relation work.
func TestQueryNaryRunEndToEnd(t *testing.T) {
	task, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9}, joinopt.Query{
		Relations: []string{"HQ", "EX", "MG", "HQ"},
		Joins:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	task.MergeCost = 0.05
	req := joinopt.Requirement{TauG: 10, TauB: 1 << 30}
	res, err := task.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != nil {
		t.Error("n-ary run must not report a binary outcome")
	}
	qo := res.Query
	if qo == nil {
		t.Fatal("n-ary run missing the query outcome")
	}
	if qo.GoodTuples == 0 {
		t.Error("no good tuples")
	}
	if len(qo.Plan.Leaves) != 4 || len(qo.DocsProcessed) != 4 {
		t.Fatalf("per-relation stats not 4-ary: %+v", qo)
	}
	if !strings.Contains(qo.Plan.Tree, "⋈") {
		t.Errorf("no join tree rendered: %q", qo.Plan.Tree)
	}
	for i, l := range qo.Plan.Leaves {
		if qo.DocsRetrieved[i] > l.Effort {
			t.Errorf("relation %d retrieved %d docs past its effort cap %d", i, qo.DocsRetrieved[i], l.Effort)
		}
	}
	if qo.MergeTime <= 0 {
		t.Error("positive merge cost charged no merge time")
	}
	if root := qo.NodeTuples[len(qo.NodeTuples)-1]; root != qo.GoodTuples+qo.BadTuples {
		t.Errorf("root materialization %d != output %d", root, qo.GoodTuples+qo.BadTuples)
	}
}

// TestQueryStopAndDeadline: WithQueryStop halts early; WithDeadline
// surfaces ErrDeadline with the partial result.
func TestQueryStopAndDeadline(t *testing.T) {
	task, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9}, joinopt.Query{
		Relations: []string{"HQ", "EX", "MG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := task.Run(context.Background(), joinopt.Requirement{TauG: 5, TauB: 1 << 30},
		joinopt.WithQueryStop(func(p joinopt.QueryProgress) bool { return p.DocsProcessed[0] >= 20 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.DocsProcessed[0] < 20 || res.Query.DocsProcessed[0] > 30 {
		t.Errorf("stop condition ignored: %d docs", res.Query.DocsProcessed[0])
	}

	dres, err := task.Run(context.Background(), joinopt.Requirement{TauG: 5, TauB: 1 << 30},
		joinopt.WithDeadline(20))
	if err == nil || dres == nil || !dres.Query.DeadlineHit {
		t.Fatalf("deadline not surfaced: res=%+v err=%v", dres, err)
	}
}

// TestQueryRejectsBinaryOnlyOptions: the binary-only options and methods
// error descriptively on an n-ary task instead of misbehaving.
func TestQueryRejectsBinaryOnlyOptions(t *testing.T) {
	task, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9}, joinopt.Query{
		Relations: []string{"HQ", "EX", "MG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := joinopt.Requirement{TauG: 5, TauB: 1 << 30}
	if _, err := task.Run(context.Background(), req, joinopt.WithPlan(joinopt.Plan{})); err == nil {
		t.Error("WithPlan accepted on an n-ary task")
	}
	if _, err := task.Run(context.Background(), req,
		joinopt.WithStop(func(joinopt.Progress) bool { return true })); err == nil {
		t.Error("WithStop accepted on an n-ary task")
	}
	if _, err := task.Run(context.Background(), req,
		joinopt.WithFaults(joinopt.UniformFaults(1, 0.1))); err == nil {
		t.Error("WithFaults accepted on an n-ary task")
	}
	if _, err := task.Optimize(req); err == nil {
		t.Error("binary Optimize accepted on an n-ary task")
	}
	if _, err := task.TableII(); err == nil {
		t.Error("TableII accepted on an n-ary task")
	}
	if _, _, err := task.VerifierAccuracy(0.5, 1); err == nil {
		t.Error("verification accepted on an n-ary task")
	}
}

// TestQueryValidation: malformed query specs are rejected up front.
func TestQueryValidation(t *testing.T) {
	cases := []joinopt.Query{
		{Relations: []string{"HQ"}},
		{Relations: []string{"HQ", "EX", "MG", "HQ", "EX", "MG", "HQ"}},
		{Relations: []string{"HQ", "EX", "MG"}, Joins: [][2]int{{0, 0}, {1, 2}}},
		{Relations: []string{"HQ", "EX", "MG"}, Joins: [][2]int{{0, 3}}},
		{Relations: []string{"HQ", "EX", "MG", "HQ"}, Joins: [][2]int{{0, 1}, {2, 3}}}, // disconnected
	}
	for i, q := range cases {
		if _, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450}, q); err == nil {
			t.Errorf("case %d: invalid query %+v accepted", i, q)
		}
	}
	if _, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450}, joinopt.Query{
		Relations: []string{"HQ", "XX", "MG"}}); err == nil {
		t.Error("unknown task accepted")
	}
}

// TestQueryCacheInvariant: Time + ΣCacheSaved is invariant between a cold
// and a warm run of the same n-ary query over the shared extraction cache.
func TestQueryCacheInvariant(t *testing.T) {
	task, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9}, joinopt.Query{
		Relations: []string{"HQ", "EX", "MG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	task.ExtractCacheBytes = 64 << 20
	req := joinopt.Requirement{TauG: 10, TauB: 1 << 30}
	total := func(q *joinopt.QueryOutcome) float64 {
		s := q.Time
		for _, cs := range q.CacheSaved {
			s += cs
		}
		return s
	}
	cold, err := task.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := task.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Query.GoodTuples != cold.Query.GoodTuples || warm.Query.BadTuples != cold.Query.BadTuples {
		t.Error("cache warmth changed the output")
	}
	if total(warm.Query) != total(cold.Query) {
		t.Errorf("Time+ΣCacheSaved not invariant: cold %v vs warm %v", total(cold.Query), total(warm.Query))
	}
	if warm.Query.Time >= cold.Query.Time {
		t.Errorf("warm run not cheaper: %v vs %v", warm.Query.Time, cold.Query.Time)
	}
	if task.ExtractionCacheStats().Hits == 0 {
		t.Error("warm run recorded no cache hits")
	}
}

// TestExecuteQueryGolden pins ExecuteQuery's pinned-knob full scan against
// a recorded fixture: the output composition, the cost-model time and the
// per-relation work of MG⋈HQ⋈EX at θ=0.4. The stop condition must halt the
// same execution early.
func TestExecuteQueryGolden(t *testing.T) {
	var want struct {
		Relations     []string `json:"relations"`
		Good          int      `json:"good"`
		Bad           int      `json:"bad"`
		Time          float64  `json:"time"`
		DocsProcessed []int    `json:"docs_processed"`
		DocsRetrieved []int    `json:"docs_retrieved"`
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "execute_query_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	task, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9}, joinopt.Query{
		Relations: []string{"MG", "HQ", "EX"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := task.RelationNames(); !reflect.DeepEqual(got, want.Relations) {
		t.Errorf("relations %q, want %q", got, want.Relations)
	}
	thetas := []float64{0.4, 0.4, 0.4}
	got, err := task.ExecuteQuery(thetas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoodTuples != want.Good || got.BadTuples != want.Bad {
		t.Errorf("output (%d, %d), want (%d, %d)", got.GoodTuples, got.BadTuples, want.Good, want.Bad)
	}
	if got.Time != want.Time {
		t.Errorf("time %v, want %v", got.Time, want.Time)
	}
	if !reflect.DeepEqual(got.DocsProcessed, want.DocsProcessed) || !reflect.DeepEqual(got.DocsRetrieved, want.DocsRetrieved) {
		t.Errorf("docs processed %v retrieved %v, want %v and %v",
			got.DocsProcessed, got.DocsRetrieved, want.DocsProcessed, want.DocsRetrieved)
	}

	partial, err := task.ExecuteQuery(thetas, func(p joinopt.QueryProgress) bool {
		return p.DocsProcessed[0] >= 50
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.DocsProcessed[0] < 50 || partial.DocsProcessed[0] > 60 {
		t.Errorf("stop ignored: %d docs", partial.DocsProcessed[0])
	}
}
