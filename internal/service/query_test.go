package service_test

import (
	"net/http"
	"strings"
	"testing"

	"joinopt/internal/service"
)

// queryWorkload sizes the n-way jobs small enough to build fast; the
// relations come from the query spec, not the workload spec.
var queryWorkload = service.WorkloadSpec{NumDocs: 450, Seed: 9}

// TestQueryJobEndToEnd is the n-way acceptance path: a four-relation query
// job submitted over HTTP is scheduled, planned by the DP enumerator,
// executed, streamed, and its result exposes the chosen join tree with
// per-relation work.
func TestQueryJobEndToEnd(t *testing.T) {
	e := newEnv(t, service.Options{})
	st, resp := e.submit(t, service.JobRequest{
		Workload: queryWorkload,
		Query: &service.QuerySpec{
			Relations: []string{"HQ", "EX", "MG", "HQ"},
			Joins:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
			MergeCost: 0.05,
		},
		TauG: 10,
		TauB: 1 << 30,
	}, http.StatusAccepted)
	if resp.Header.Get("Deprecation") != "" {
		t.Error("query-form submission marked deprecated")
	}
	if st.Mode != service.ModeQuery {
		t.Errorf("defaulted mode %q, want %q", st.Mode, service.ModeQuery)
	}
	if fin := e.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}

	streamed := string(e.events(t, st.ID))
	for _, kind := range []string{"run.start", "plan.chosen", "run.end"} {
		if !strings.Contains(streamed, kind) {
			t.Errorf("event stream missing %q:\n%s", kind, streamed)
		}
	}

	_, _, res := e.result(t, st.ID)
	if res == nil || res.Query == nil {
		t.Fatalf("no query result: %+v", res)
	}
	if res.Good == 0 {
		t.Error("no good tuples")
	}
	if res.Mode != service.ModeQuery || len(res.Plans) != 1 {
		t.Errorf("mode %q plans %v", res.Mode, res.Plans)
	}
	q := res.Query
	if !strings.Contains(q.Tree, "⋈") {
		t.Errorf("no join tree: %q", q.Tree)
	}
	if len(q.Leaves) != 4 || len(q.DocsProcessed) != 4 {
		t.Fatalf("per-relation stats not 4-ary: %+v", q)
	}
	if q.MergeTime <= 0 {
		t.Error("positive merge cost charged no merge time")
	}
	if root := q.NodeTuples[len(q.NodeTuples)-1]; root != res.Good+res.Bad {
		t.Errorf("root materialization %d != output %d", root, res.Good+res.Bad)
	}
}

// TestQueryJobOptimizeMode plans a query without executing it.
func TestQueryJobOptimizeMode(t *testing.T) {
	e := newEnv(t, service.Options{})
	st, _ := e.submit(t, service.JobRequest{
		Workload: queryWorkload,
		Query:    &service.QuerySpec{Relations: []string{"HQ", "EX", "MG"}},
		Mode:     service.ModeOptimize,
		TauG:     10,
		TauB:     1 << 30,
	}, http.StatusAccepted)
	if fin := e.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	_, _, res := e.result(t, st.ID)
	if res == nil || res.Evaluation == nil {
		t.Fatalf("no evaluation: %+v", res)
	}
	if res.Evaluation.EstimatedGood <= 0 || res.Evaluation.EstimatedTime <= 0 {
		t.Errorf("degenerate evaluation: %+v", res.Evaluation)
	}
	if !strings.Contains(res.Evaluation.Plan, "⋈") {
		t.Errorf("no join tree in plan %q", res.Evaluation.Plan)
	}
}

// TestBinarySpecDeprecationHeader: the legacy binary job form still works
// end-to-end but is flagged with a Deprecation response header; both forms
// are covered by this suite.
func TestBinarySpecDeprecationHeader(t *testing.T) {
	e := newEnv(t, service.Options{})
	st, resp := e.submit(t, service.JobRequest{
		Workload: testSpec,
		Mode:     service.ModeOptimize,
		TauG:     testTauG,
		TauB:     testTauB,
	}, http.StatusAccepted)
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy binary submission not marked deprecated")
	}
	if fin := e.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	if _, _, res := e.result(t, st.ID); res == nil || res.Evaluation == nil {
		t.Fatalf("legacy job lost its result: %+v", res)
	}
}

// TestQueryJobValidation: malformed query jobs are rejected at submission
// with 400, not at run time.
func TestQueryJobValidation(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := func() service.JobRequest {
		return service.JobRequest{
			Workload: queryWorkload,
			Query:    &service.QuerySpec{Relations: []string{"HQ", "EX", "MG"}},
			TauG:     5, TauB: 1 << 30,
		}
	}
	cases := map[string]func(*service.JobRequest){
		"adaptive mode":      func(r *service.JobRequest) { r.Mode = service.ModeAdaptive },
		"execute mode":       func(r *service.JobRequest) { r.Mode = service.ModeExecute },
		"workload relations": func(r *service.JobRequest) { r.Workload.Relations = [2]string{"HQ", "EX"} },
		"plan":               func(r *service.JobRequest) { r.Plan = &service.PlanRequest{Algorithm: "IDJN"} },
		"faults":             func(r *service.JobRequest) { r.Faults = "uniform:p=0.1" },
		"retries":            func(r *service.JobRequest) { r.Retries = 2 },
		"resume_from":        func(r *service.JobRequest) { r.ResumeFrom = "j000001" },
		"tuples on n-ary":    func(r *service.JobRequest) { r.Tuples = 5 },
		"tuples on repeated pair": func(r *service.JobRequest) {
			r.Query.Relations = []string{"HQ", "HQ"}
			r.Tuples = 5
		},
		"one relation":       func(r *service.JobRequest) { r.Query.Relations = []string{"HQ"} },
		"self join pred":     func(r *service.JobRequest) { r.Query.Joins = [][2]int{{0, 0}, {1, 2}} },
		"pred out of range":  func(r *service.JobRequest) { r.Query.Joins = [][2]int{{0, 7}} },
		"query mode no spec": func(r *service.JobRequest) { r.Query = nil; r.Mode = service.ModeQuery },
	}
	for name, mutate := range cases {
		req := base()
		mutate(&req)
		if _, err := e.svc.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQueryJobDurable: query jobs ride the journal/snapshot machinery — a
// finished n-way job is reinstated with its full result across a daemon
// restart, and an interrupted one is re-run to completion.
func TestQueryJobDurable(t *testing.T) {
	dir := t.TempDir()
	stA, recA := openStore(t, dir)
	envA := newEnv(t, service.Options{Workers: 1, Durable: stA, Recovered: recA})

	req := service.JobRequest{
		Workload: queryWorkload,
		Query:    &service.QuerySpec{Relations: []string{"HQ", "EX", "MG"}},
		TauG:     10, TauB: 1 << 30,
	}
	st, _ := envA.submit(t, req, http.StatusAccepted)
	if fin := envA.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	_, _, want := envA.result(t, st.ID)
	if want == nil || want.Query == nil {
		t.Fatalf("no query result before restart: %+v", want)
	}
	// A second submission that never ran: replay must re-run it.
	stQueued, _ := envA.submit(t, req, http.StatusAccepted)
	envA.await(t, stQueued.ID)
	stA.Close()

	stB, recB := openStore(t, dir)
	if len(recB.Jobs) != 2 {
		t.Fatalf("replay saw %d jobs, want 2", len(recB.Jobs))
	}
	envB := newEnv(t, service.Options{Workers: 1, Durable: stB, Recovered: recB})
	if fin := envB.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("recovered job %s (%s)", fin.State, fin.Error)
	}
	_, _, got := envB.result(t, st.ID)
	if got == nil || got.Query == nil {
		t.Fatalf("recovered job lost its query result: %+v", got)
	}
	if got.Good != want.Good || got.Bad != want.Bad || got.Query.Plan != want.Query.Plan {
		t.Errorf("recovered result diverged: %+v vs %+v", got, want)
	}
	if fin := envB.await(t, stQueued.ID); fin.State != service.StateDone {
		t.Fatalf("re-run job %s (%s)", fin.State, fin.Error)
	}
	if _, _, rerun := envB.result(t, stQueued.ID); rerun == nil || rerun.Good != want.Good {
		t.Errorf("re-run diverged from original: %+v vs %+v", rerun, want)
	}
}

// TestQueryWorkloadSharing: jobs naming the same query share one task entry
// (including defaulted vs. explicit chain joins); a different merge cost is
// a different workload.
func TestQueryWorkloadSharing(t *testing.T) {
	e := newEnv(t, service.Options{})
	submit := func(q *service.QuerySpec) {
		st, _ := e.submit(t, service.JobRequest{
			Workload: queryWorkload, Query: q,
			Mode: service.ModeOptimize, TauG: 5, TauB: 1 << 30,
		}, http.StatusAccepted)
		if fin := e.await(t, st.ID); fin.State != service.StateDone {
			t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
		}
	}
	rels := []string{"HQ", "EX", "MG"}
	submit(&service.QuerySpec{Relations: rels})
	submit(&service.QuerySpec{Relations: rels, Joins: [][2]int{{0, 1}, {1, 2}}})
	if n := e.svc.WorkloadRegistry().Size(); n != 1 {
		t.Errorf("equivalent queries built %d tasks, want 1", n)
	}
	submit(&service.QuerySpec{Relations: rels, MergeCost: 0.1})
	if n := e.svc.WorkloadRegistry().Size(); n != 2 {
		t.Errorf("distinct merge costs share %d tasks, want 2", n)
	}
}
