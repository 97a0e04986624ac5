package classifier

import (
	"sync"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func trainDB(t testing.TB, seed int64) *corpus.DB {
	t.Helper()
	g := textgen.NewGazetteer(300, 240, 120)
	g.Companies = textgen.Shuffled(stat.NewRNG(99), g.Companies)
	spec := corpus.RelationSpec{
		Vocab:         textgen.VocabHQ,
		Schema:        relation.Schema{Name: "Headquarters", Attr1: "Company", Attr2: "Location"},
		GoodValues:    g.Companies[:150],
		BadValues:     g.Companies[120:200],
		GoodSeconds:   g.Locations[:60],
		BadSeconds:    g.Locations[60:120],
		GoodFreq:      stat.MustPowerLaw(2.0, 10),
		BadFreq:       stat.MustPowerLaw(2.2, 8),
		NumGoodDocs:   150,
		NumBadDocs:    60,
		BadInGoodRate: 0.3,
	}
	db, err := corpus.Generate(corpus.Config{
		Name: "train", NumDocs: 700, Seed: seed,
		Relations:  []corpus.RelationSpec{spec},
		CasualRate: 0.25, CasualPool: g.Companies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBayesSeparatesClasses(t *testing.T) {
	train := trainDB(t, 1)
	test := trainDB(t, 2)
	b, err := TrainBayes(train, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctp, cfp, err := Measure(b, test, "HQ")
	if err != nil {
		t.Fatal(err)
	}
	if ctp < 0.6 {
		t.Errorf("Bayes Ctp = %v, want reasonable recall of good docs", ctp)
	}
	if cfp >= ctp {
		t.Errorf("Bayes Cfp %v should be below Ctp %v", cfp, ctp)
	}
}

func TestBayesThresholdTradesRates(t *testing.T) {
	train := trainDB(t, 3)
	test := trainDB(t, 4)
	loose, err := TrainBayes(train, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := TrainBayes(train, "HQ", 5)
	if err != nil {
		t.Fatal(err)
	}
	lt, lf, _ := Measure(loose, test, "HQ")
	st, sf, _ := Measure(strict, test, "HQ")
	if st > lt+1e-9 {
		t.Errorf("stricter threshold should not raise Ctp: %v -> %v", lt, st)
	}
	if sf > lf+1e-9 {
		t.Errorf("stricter threshold should not raise Cfp: %v -> %v", lf, sf)
	}
}

func TestRulesLearnCueTerms(t *testing.T) {
	train := trainDB(t, 5)
	r, err := TrainRules(train, "HQ", 8, 2, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	cues := textgen.VocabHQ.CueTermSet()
	found := false
	for _, rule := range r.Set {
		for _, term := range rule.Terms {
			if cues[term] {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no cue term among learned rules %v", r.Set)
	}
}

func TestRulesClassifyGeneralizes(t *testing.T) {
	train := trainDB(t, 6)
	test := trainDB(t, 7)
	r, err := TrainRules(train, "HQ", 8, 2, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	ctp, cfp, err := Measure(r, test, "HQ")
	if err != nil {
		t.Fatal(err)
	}
	if ctp < 0.5 {
		t.Errorf("rules Ctp = %v, too low", ctp)
	}
	if cfp >= ctp {
		t.Errorf("rules Cfp %v should be below Ctp %v", cfp, ctp)
	}
}

func TestMeasureUnknownTask(t *testing.T) {
	db := trainDB(t, 8)
	b, err := TrainBayes(db, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Measure(b, db, "EX"); err == nil {
		t.Error("expected error for unknown task")
	}
}

func TestTrainErrors(t *testing.T) {
	db := trainDB(t, 9)
	if _, err := TrainBayes(db, "EX", 0); err == nil {
		t.Error("expected error training on unhosted task")
	}
	if _, err := TrainRules(db, "EX", 4, 2, 0.5); err == nil {
		t.Error("expected error training rules on unhosted task")
	}
	if _, err := TrainRules(db, "HQ", 0, 2, 0.5); err == nil {
		t.Error("expected error for zero rules")
	}
	if _, err := TrainRules(db, "HQ", 4, 2, 1.01); err == nil {
		t.Error("expected error when precision floor is unreachable")
	}
}

func TestRuleFiringSemantics(t *testing.T) {
	r := &Rules{Set: []Rule{{Terms: []string{"headquartered", "offices"}}}}
	if !r.Classify("the firm is headquartered with offices downtown") {
		t.Error("rule with all terms present must fire")
	}
	if r.Classify("the firm is headquartered downtown") {
		t.Error("rule with a missing conjunct must not fire")
	}
}

// TestClassifyConcurrent runs Rules.Classify, whose token buffers come from
// a shared pool, from several goroutines at once; every decision must match
// the map-based reference.
func TestClassifyConcurrent(t *testing.T) {
	r, err := TrainRules(trainDB(t, 10), "HQ", 8, 2, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	docs := trainDB(t, 11).Docs
	want := make([]bool, len(docs))
	for i, d := range docs {
		want[i] = RefClassify(r, d.Text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, d := range docs {
				if got := r.Classify(d.Text); got != want[i] {
					t.Errorf("doc %d: Classify = %v, reference %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRulesClassify classifies a 700-document split with learned rules,
// through the pooled token buffer and through the map-based reference.
func BenchmarkRulesClassify(b *testing.B) {
	r, err := TrainRules(trainDB(b, 12), "HQ", 8, 2, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	docs := trainDB(b, 13).Docs
	for _, c := range []struct {
		name     string
		classify func(string) bool
	}{
		{"pooled", r.Classify},
		{"map-reference", func(text string) bool { return RefClassify(r, text) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					c.classify(d.Text)
				}
			}
		})
	}
}
