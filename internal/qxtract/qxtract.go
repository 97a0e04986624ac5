// Package qxtract implements automatic query generation for the AQG
// retrieval strategy, in the spirit of the QXtract system the paper uses:
// keyword queries learned from a labelled training split that are expected
// to retrieve good documents for an extraction task.
//
// Terms are ranked by log-odds ratio between good and non-good training
// documents; queries are the top single terms and their pairwise
// conjunctions. Each learned query carries its training precision, and the
// execution-time statistics P(q) and g(q) on the target database are
// measured by Stats.
package qxtract

import (
	"fmt"
	"math"
	"sort"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// Query is a learned keyword query with its training-split precision.
type Query struct {
	Terms        []string
	TrainPrec    float64 // fraction of matching training docs that are good
	TrainMatches int     // matching training docs
}

// IndexQuery converts to the search-interface query form.
func (q Query) IndexQuery() index.Query { return index.Query{Terms: q.Terms} }

// Learn derives up to maxQueries queries for task from the training
// database. Queries are ordered by expected usefulness (precision ×
// log-coverage on the training split).
func Learn(train *corpus.DB, task string, maxQueries int) ([]Query, error) {
	stats := train.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("qxtract: training database %s does not host task %s", train.Name, task)
	}
	if maxQueries <= 0 {
		return nil, fmt.Errorf("qxtract: maxQueries must be positive")
	}
	good := make([]bool, len(train.Docs))
	var nGood, nRest int
	for i := range good {
		good[i] = stats.Class[i] == corpus.Good
		if good[i] {
			nGood++
		} else {
			nRest++
		}
	}
	if nGood == 0 {
		return nil, fmt.Errorf("qxtract: no good documents in training database")
	}
	ix := index.New(train.Texts(), 0)
	type scored struct {
		term  string
		score float64
	}
	var ranked []scored
	vocab, postings := ix.Vocabulary()
	for ti, t := range vocab {
		var gc, rc int
		for _, i := range postings[ti] {
			if good[i] {
				gc++
			} else {
				rc++
			}
		}
		if gc == 0 {
			continue
		}
		pg := (float64(gc) + 1) / (float64(nGood) + 2)
		pr := (float64(rc) + 1) / (float64(nRest) + 2)
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
		matches := ix.Matches(index.Query{Terms: terms})
		g := 0
		for _, i := range matches {
			if good[i] {
				g++
			}
		}
		prec := 0.0
		if len(matches) > 0 {
			prec = float64(g) / float64(len(matches))
		}
		return Query{Terms: terms, TrainPrec: prec, TrainMatches: len(matches)}
	}

	var out []Query
	for _, s := range top {
		out = append(out, evaluate([]string{s.term}))
	}
	// Pairwise conjunctions of the strongest terms sharpen precision.
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

// QueryStats are the execution-time statistics of one query on a target
// database: the number of matching documents H(q) and the precision P(q)
// (fraction of matches that are good documents).
type QueryStats struct {
	Hits int
	Prec float64
}

// Stats measures H(q) and P(q) for each query against the target database.
// The model-accuracy experiments use these as perfect-knowledge parameters;
// optimizer runs estimate them from retrieved samples instead.
func Stats(queries []Query, ix *index.Index, db *corpus.DB, task string) ([]QueryStats, error) {
	stats := db.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("qxtract: database %s does not host task %s", db.Name, task)
	}
	out := make([]QueryStats, len(queries))
	for i, q := range queries {
		matches := ix.Matches(q.IndexQuery())
		good := 0
		for _, id := range matches {
			if stats.Class[id] == corpus.Good {
				good++
			}
		}
		s := QueryStats{Hits: len(matches)}
		if len(matches) > 0 {
			s.Prec = float64(good) / float64(len(matches))
		}
		out[i] = s
	}
	return out, nil
}
