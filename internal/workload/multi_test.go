package workload

import (
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

func triple(t *testing.T) *MultiWorkload {
	t.Helper()
	mw, err := Multi(Params{NumDocs: 900, Seed: 21}, []string{"HQ", "EX", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func TestMultiConstruction(t *testing.T) {
	mw := triple(t)
	if len(mw.DBs) != 3 || len(mw.Sys) != 3 {
		t.Fatalf("sides %d/%d", len(mw.DBs), len(mw.Sys))
	}
	classes := relation.MultiOverlaps(mw.Golds())
	allGood := relation.AllGood(3)
	if classes[allGood] == 0 {
		t.Error("no values good in all three relations — core layout broken")
	}
	// The core is present in every relation's good set.
	if classes[allGood] < 30 {
		t.Errorf("core overlap %d suspiciously small", classes[allGood])
	}
}

func TestMultiValidation(t *testing.T) {
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ"}); err == nil {
		t.Error("expected error for 1 task")
	}
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ", "XX"}); err == nil {
		t.Error("expected error for unknown task")
	}
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ", "EX", "MG", "HQ", "EX", "MG", "HQ"}); err == nil {
		t.Error("expected error past MaxRelations tasks")
	}
}

// Repeated tasks are allowed (each index gets its own corpus seed and
// private value ranges) — the k=4+ query workloads depend on it, since only
// three standard tasks exist.
func TestMultiRepeatedTasks(t *testing.T) {
	mw, err := Multi(Params{NumDocs: 500, Seed: 7}, []string{"HQ", "EX", "HQ", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mw.DBs) != 4 {
		t.Fatalf("got %d databases, want 4", len(mw.DBs))
	}
	if mw.DBs[0].Name == mw.DBs[2].Name {
		t.Errorf("repeated task shares database name %q", mw.DBs[0].Name)
	}
	g0, _ := relation.GoldValueSets(mw.Golds()[0])
	g2, _ := relation.GoldValueSets(mw.Golds()[2])
	priv := 0
	for v := range g2 {
		if !g0[v] {
			priv++
		}
	}
	if priv == 0 {
		t.Error("repeated task has no private good values — relations are identical")
	}
	classes := relation.MultiOverlaps(mw.Golds())
	if classes[relation.AllGood(4)] == 0 {
		t.Error("no values good in all four relations — core layout broken")
	}
}

// TestMultiModelAccuracy checks the n-way composition model against
// execution: the full-scan prediction from perfect-knowledge inputs lands
// within small factors of what the tree executor produces.
func TestMultiModelAccuracy(t *testing.T) {
	mw := triple(t)
	in, err := mw.TrueNaryInputs([]float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	m := &model.NaryModel{Classes: in.Classes(0b111)}
	for i := range mw.DBs {
		m.P = append(m.P, in.P[i][0])
		m.X = append(m.X, retrieval.SC)
	}
	sides, strats := narySides(mw, 0.4)
	e, err := join.NewNaryExec(sides, strats, join.NaryPlan{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.RunNary(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	D := mw.DBs[0].Size()
	est, err := m.Estimate([]int{D, D, D})
	if err != nil {
		t.Fatal(err)
	}
	ratioIn(t, "3-way good", est.Good, float64(st.GoodTuples), 0.4, 2.5)
	ratioIn(t, "3-way bad", est.Bad, float64(st.BadTuples), 0.4, 2.5)
	tm, err := m.Time([]int{D, D, D}, in.Costs)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("no time predicted")
	}
}
