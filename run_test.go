package joinopt_test

import (
	"context"
	"errors"
	"testing"

	"joinopt"
)

func scanPlan() joinopt.Plan {
	return joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}
}

func TestRunFixedPlan(t *testing.T) {
	tk := facadeTask(t)
	plan := scanPlan()
	res, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan),
		joinopt.WithStop(func(p joinopt.Progress) bool { return p.GoodTuples >= 8 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == nil || res.Outcome.GoodTuples < 8 {
		t.Fatalf("run result %+v", res)
	}
	if len(res.Plans) != 1 || res.Plans[0] != plan {
		t.Errorf("plans = %v, want exactly the pinned plan", res.Plans)
	}
	if res.TotalTime != res.Outcome.Time {
		t.Errorf("fixed-plan total time %v != execution time %v", res.TotalTime, res.Outcome.Time)
	}
	if res.Checkpoint != nil || len(res.CheckpointErrs) != 0 {
		t.Error("fixed-plan run must not carry adaptive state")
	}
}

// TestRunMetricsMatchOutcomeFixed is the acceptance invariant on a fixed
// plan: with no pilot or abandoned work, the live series must match the
// Outcome exactly.
func TestRunMetricsMatchOutcomeFixed(t *testing.T) {
	tk := facadeTask(t)
	m := joinopt.NewMetrics()
	res, err := tk.Run(context.Background(), joinopt.Requirement{},
		joinopt.WithPlan(scanPlan()), joinopt.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcome
	s := m.Snapshot()
	for side := 0; side < 2; side++ {
		label := string('1' + byte(side))
		if got := s.Counters[`joinopt_docs_processed_total{side="`+label+`"}`]; got != int64(o.DocsProcessed[side]) {
			t.Errorf("live processed{%s} = %d, outcome %d", label, got, o.DocsProcessed[side])
		}
	}
	if got := s.Gauges["joinopt_tuples_good"]; got != float64(o.GoodTuples) {
		t.Errorf("live good gauge = %v, outcome %d", got, o.GoodTuples)
	}
}

// TestRunAdaptiveGaugesMatchFinal checks the live series on an adaptive
// run: the counters legitimately include pilot work, while the tuple gauges,
// which the executing plan sets as it goes, end at the final Result.
func TestRunAdaptiveGaugesMatchFinal(t *testing.T) {
	tk := facadeTask(t)
	m := joinopt.NewMetrics()
	res, err := tk.Run(context.Background(), joinopt.Requirement{TauG: 8, TauB: 200},
		joinopt.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == nil {
		t.Fatal("adaptive run incomplete")
	}
	s := m.Snapshot()
	o := res.Outcome
	if got := s.Gauges["joinopt_tuples_good"]; got != float64(o.GoodTuples) {
		t.Errorf("live good gauge = %v, outcome %d", got, o.GoodTuples)
	}
	if got := s.Gauges["joinopt_tuples_bad"]; got != float64(o.BadTuples) {
		t.Errorf("live bad gauge = %v, outcome %d", got, o.BadTuples)
	}
	if s.Counters["joinopt_plan_decisions_total"] < 1 {
		t.Error("adaptive run recorded no plan decisions")
	}
	// The adaptive pilot processed docs beyond the final plan's own: live
	// counters must be >= the outcome's.
	var live int64
	for _, label := range []string{"1", "2"} {
		live += s.Counters[`joinopt_docs_processed_total{side="`+label+`"}`]
	}
	if final := int64(o.DocsProcessed[0] + o.DocsProcessed[1]); live < final {
		t.Errorf("live processed %d < final outcome %d", live, final)
	}
}

func TestRunTraceLifecycle(t *testing.T) {
	tk := facadeTask(t)
	ring := joinopt.NewRingSink(1 << 17)
	res, err := tk.Run(context.Background(), joinopt.Requirement{TauG: 8, TauB: 200},
		joinopt.WithTracer(joinopt.NewTrace(ring)))
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if uint64(len(evs)) != ring.Total() {
		t.Fatalf("ring overflowed (%d of %d kept): grow the test buffer", len(evs), ring.Total())
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events traced", len(evs))
	}
	if got := evs[0].Kind; string(got) != "run.start" {
		t.Errorf("first event %q, want run.start", got)
	}
	last := evs[len(evs)-1]
	if string(last.Kind) != "run.end" {
		t.Errorf("last event %q, want run.end", last.Kind)
	}
	if last.T != res.TotalTime {
		t.Errorf("run.end stamped %v, want total time %v", last.T, res.TotalTime)
	}
	kinds := map[string]int{}
	var prevSeq uint64
	for _, ev := range evs {
		if ev.Seq <= prevSeq {
			t.Fatalf("sequence not monotonic at %+v", ev)
		}
		prevSeq = ev.Seq
		kinds[string(ev.Kind)]++
	}
	for _, want := range []string{"pilot.done", "plan.chosen", "exec.step", "doc.processed"} {
		if kinds[want] == 0 {
			t.Errorf("adaptive traced run emitted no %s events (kinds: %v)", want, kinds)
		}
	}
}

func TestRunDeadlineSurface(t *testing.T) {
	tk := facadeTask(t)
	res, err := tk.Run(context.Background(), joinopt.Requirement{},
		joinopt.WithPlan(scanPlan()), joinopt.WithDeadline(50))
	if !errors.Is(err, joinopt.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || res.Outcome == nil || !res.Outcome.DeadlineHit {
		t.Fatal("deadline-stopped run must return its partial result")
	}
	if res.Outcome.Time < 50 {
		t.Errorf("stopped at %v, before the deadline", res.Outcome.Time)
	}

	// The task-level deadline surfaces identically.
	tk.Deadline = 50
	defer func() { tk.Deadline = 0 }()
	res2, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(scanPlan()))
	if !errors.Is(err, joinopt.ErrDeadline) {
		t.Fatalf("task-level deadline returned %v, want ErrDeadline", err)
	}
	if !res2.Outcome.DeadlineHit {
		t.Error("task-level deadline lost the flag")
	}
}

func TestRunFailureBudgetSurface(t *testing.T) {
	tk := facadeTask(t)
	// Permanent faults on fetches only: permanent Next faults would exhaust
	// the retrieval streams gracefully instead of losing documents.
	p, err := joinopt.ParseFaultProfile("fetch=0.5,seed=9,permanent=true")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Run(context.Background(), joinopt.Requirement{},
		joinopt.WithPlan(scanPlan()), joinopt.WithFaults(p),
		joinopt.WithRetries(joinopt.RetryPolicy{FailureBudget: 3}))
	if !errors.Is(err, joinopt.ErrFailureBudget) {
		t.Fatalf("err = %v, want ErrFailureBudget", err)
	}
	var se *joinopt.StepError
	if !errors.As(err, &se) {
		t.Fatalf("err %v does not unwrap to StepError", err)
	}
	if se.Algorithm != "IDJN" || se.Step <= 0 {
		t.Errorf("step error fields %+v", se)
	}

	// The per-call options must not stick: a plain run afterwards is clean.
	res, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(scanPlan()),
		joinopt.WithStop(func(p joinopt.Progress) bool { return p.GoodTuples >= 4 }))
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Outcome; out.RetriesSpent != [2]int{} || out.DocsFailed != [2]int{} {
		t.Errorf("per-call fault options leaked into the next run: %+v", out)
	}
}

func TestRunWithFaultsNilOverridesTask(t *testing.T) {
	tk := facadeTask(t)
	tk.Faults = joinopt.UniformFaults(5, 0.05)
	defer func() { tk.Faults = nil }()

	withTask, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(scanPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if withTask.Outcome.RetriesSpent == [2]int{} {
		t.Fatal("task-level faults did not engage")
	}
	disabled, err := tk.Run(context.Background(), joinopt.Requirement{},
		joinopt.WithPlan(scanPlan()), joinopt.WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if disabled.Outcome.RetriesSpent != [2]int{} {
		t.Errorf("WithFaults(nil) did not disable the task profile: %+v", disabled.Outcome.RetriesSpent)
	}
}

func TestRunWithCheckpointResume(t *testing.T) {
	tk := facadeTask(t)
	req := joinopt.Requirement{TauG: 8, TauB: 200}
	base, err := tk.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	interrupted, err := tk.Run(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if interrupted == nil || interrupted.Checkpoint == nil {
		t.Fatal("interrupted run carries no checkpoint")
	}
	if interrupted.Outcome != nil {
		t.Error("interrupted run must not claim a final outcome")
	}

	resumed, err := tk.Run(context.Background(), req, joinopt.WithCheckpoint(interrupted.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Outcome == nil {
		t.Fatal("resumed run incomplete")
	}
	if resumed.Outcome.GoodTuples != base.Outcome.GoodTuples ||
		resumed.Outcome.BadTuples != base.Outcome.BadTuples ||
		resumed.TotalTime != base.TotalTime {
		t.Errorf("resumed run diverged: %+v vs baseline %+v", resumed.Outcome, base.Outcome)
	}
}
