//go:build !race

// The reference grid is single-threaded and costs tens of seconds under the
// race detector, which has nothing to find in it; the race run covers the
// concurrent Classify path with TestClassifyConcurrent instead.

package classifier_test

import (
	"fmt"
	"reflect"
	"testing"

	"joinopt/internal/classifier"
	"joinopt/internal/workload"
)

// TestTrainersMatchReference pins the posting-list trainers to the
// per-document term-set implementations they replaced. On both training
// splits of every workload of the grid — seeds 1–12 × NumDocs {400, 2000,
// 4000} × HQ⋈EX and MG⋈EX — TrainRules and TrainBayes return deeply equal
// models (or the same error), and the learned rules make the same decision
// as the map-based classifier on every target document. Some 400-document
// seeds fail to generate; every larger draw must build.
func TestTrainersMatchReference(t *testing.T) {
	for _, pair := range [][2]string{{"HQ", "EX"}, {"MG", "EX"}} {
		for _, n := range []int{400, 2000, 4000} {
			for seed := int64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("%s-%s/docs=%d/seed=%d", pair[0], pair[1], n, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					w, err := workload.Pair(workload.Params{NumDocs: n, Seed: seed}, pair[0], pair[1])
					if err != nil {
						if n < 2000 {
							t.Skipf("draw does not generate: %v", err)
						}
						t.Fatal(err)
					}
					for i := 0; i < 2; i++ {
						checkTrainers(t, w, i)
					}
				})
			}
		}
	}
}

// TestBayesFallbackMatchesReference pins a draw of the grid where rule
// induction fails on the MG training split and the workload falls back to
// naive Bayes: both trainers agree with their references there too.
func TestBayesFallbackMatchesReference(t *testing.T) {
	w, err := workload.Pair(workload.Params{NumDocs: 400, Seed: 7}, "MG", "EX")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Cls[0].(*classifier.Bayes); !ok {
		t.Fatalf("side 1 classifier is %T; the draw no longer exercises the Bayes fallback", w.Cls[0])
	}
	checkTrainers(t, w, 0)
}

// checkTrainers compares both trainers, at the workload's settings, with
// their references on side i's training split, and the learned rules'
// decisions on side i's target documents.
func checkTrainers(t *testing.T, w *workload.Workload, i int) {
	t.Helper()
	db, task := w.Train[i], w.Task[i]
	got, err := classifier.TrainRules(db, task, 12, 2, 0.5)
	want, werr := classifier.RefTrainRules(db, task, 12, 2, 0.5)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("side %d TrainRules = %v (%v), reference %v (%v)", i+1, got, err, want, werr)
	}
	gotB, err := classifier.TrainBayes(db, task, 0)
	wantB, werr := classifier.RefTrainBayes(db, task, 0)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("side %d TrainBayes differs from the reference (%v / %v)", i+1, err, werr)
	}
	if got == nil {
		return
	}
	for id, doc := range w.DB[i].Docs {
		if a, b := got.Classify(doc.Text), classifier.RefClassify(got, doc.Text); a != b {
			t.Fatalf("side %d doc %d: Classify = %v, reference %v", i+1, id, a, b)
		}
	}
}
