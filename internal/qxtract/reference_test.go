package qxtract

import (
	"fmt"
	"math"
	"sort"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// RefLearn is the original Learn over per-document term sets. The property
// test requires the posting-list Learn to reproduce it exactly.
func RefLearn(train *corpus.DB, task string, maxQueries int) ([]Query, error) {
	stats := train.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("qxtract: training database %s does not host task %s", train.Name, task)
	}
	if maxQueries <= 0 {
		return nil, fmt.Errorf("qxtract: maxQueries must be positive")
	}
	var nGood, nRest int
	countGood := map[string]int{}
	countRest := map[string]int{}
	docTerms := make([]map[string]bool, len(train.Docs))
	for i, doc := range train.Docs {
		set := map[string]bool{}
		for _, tok := range index.Tokenize(doc.Text) {
			set[tok] = true
		}
		docTerms[i] = set
		if stats.Class[i] == corpus.Good {
			nGood++
			for t := range set {
				countGood[t]++
			}
		} else {
			nRest++
			for t := range set {
				countRest[t]++
			}
		}
	}
	if nGood == 0 {
		return nil, fmt.Errorf("qxtract: no good documents in training database")
	}
	type scored struct {
		term  string
		score float64
	}
	var ranked []scored
	for t, gc := range countGood {
		pg := (float64(gc) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		ranked = append(ranked, scored{term: t, score: math.Log(pg / pr)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].term < ranked[j].term
	})
	nTop := maxQueries
	if nTop > len(ranked) {
		nTop = len(ranked)
	}
	top := ranked[:nTop]

	evaluate := func(terms []string) Query {
		matches, good := 0, 0
		for i, set := range docTerms {
			ok := true
			for _, t := range terms {
				if !set[t] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			matches++
			if stats.Class[i] == corpus.Good {
				good++
			}
		}
		prec := 0.0
		if matches > 0 {
			prec = float64(good) / float64(matches)
		}
		return Query{Terms: terms, TrainPrec: prec, TrainMatches: matches}
	}

	var out []Query
	for _, s := range top {
		out = append(out, evaluate([]string{s.term}))
	}
	for i := 0; i < len(top) && len(out) < maxQueries*2; i++ {
		for j := i + 1; j < len(top) && len(out) < maxQueries*2; j++ {
			q := evaluate([]string{top[i].term, top[j].term})
			if q.TrainMatches > 0 {
				out = append(out, q)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si := out[i].TrainPrec * math.Log(float64(out[i].TrainMatches)+1)
		sj := out[j].TrainPrec * math.Log(float64(out[j].TrainMatches)+1)
		return si > sj
	})
	if len(out) > maxQueries {
		out = out[:maxQueries]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("qxtract: no usable queries learned")
	}
	return out, nil
}
