//go:build !race

// The reference grid is single-threaded and costs tens of seconds under the
// race detector, which has nothing to find in it.

package qxtract_test

import (
	"fmt"
	"reflect"
	"testing"

	"joinopt/internal/qxtract"
	"joinopt/internal/workload"
)

// TestLearnMatchesReference pins the posting-list Learn to the per-document
// term-set implementation it replaced: on both training splits of every
// workload of the grid — seeds 1–12 × NumDocs {400, 2000, 4000} × HQ⋈EX
// and MG⋈EX — the learned queries are deeply equal. Some 400-document seeds
// fail to generate; every larger draw must build.
func TestLearnMatchesReference(t *testing.T) {
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
						for _, max := range []int{12, 3} {
							got, err := qxtract.Learn(w.Train[i], w.Task[i], max)
							want, werr := qxtract.RefLearn(w.Train[i], w.Task[i], max)
							if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
								t.Fatalf("side %d Learn(%d) = %v (%v), reference %v (%v)", i+1, max, got, err, want, werr)
							}
						}
					}
				})
			}
		}
	}
}
