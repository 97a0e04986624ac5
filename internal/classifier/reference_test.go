package classifier

import (
	"fmt"
	"math"
	"sort"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// This file keeps the original per-document term-set trainers and the
// map-based rule classifier. The property tests require the posting-list
// implementations to reproduce them exactly.

// refLabelledDocs extracts (tokenized document, isGood) pairs for training.
func refLabelledDocs(db *corpus.DB, task string) ([]map[string]bool, []bool, error) {
	stats := db.Stats(task)
	if stats == nil {
		return nil, nil, fmt.Errorf("classifier: training database %s does not host task %s", db.Name, task)
	}
	feats := make([]map[string]bool, len(db.Docs))
	labels := make([]bool, len(db.Docs))
	for i, doc := range db.Docs {
		set := map[string]bool{}
		for _, tok := range index.Tokenize(doc.Text) {
			set[tok] = true
		}
		feats[i] = set
		labels[i] = stats.Class[i] == corpus.Good
	}
	return feats, labels, nil
}

// RefTrainBayes is the reference TrainBayes.
func RefTrainBayes(db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	feats, labels, err := refLabelledDocs(db, task)
	if err != nil {
		return nil, err
	}
	var nGood, nRest int
	countGood := map[string]int{}
	countRest := map[string]int{}
	for i, set := range feats {
		if labels[i] {
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
	if nGood == 0 || nRest == 0 {
		return nil, fmt.Errorf("classifier: training needs both good and non-good documents")
	}
	b := &Bayes{
		logPriorGood: math.Log(float64(nGood) / float64(nGood+nRest)),
		logPriorRest: math.Log(float64(nRest) / float64(nGood+nRest)),
		terms:        map[string][2]float64{},
		threshold:    threshold,
	}
	seen := map[string]bool{}
	for t := range countGood {
		seen[t] = true
	}
	for t := range countRest {
		seen[t] = true
	}
	vocab := make([]string, 0, len(seen))
	for t := range seen {
		vocab = append(vocab, t)
	}
	sort.Strings(vocab)
	for _, t := range vocab {
		pg := (float64(countGood[t]) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		b.terms[t] = [2]float64{math.Log(pg) - math.Log(1-pg), math.Log(pr) - math.Log(1-pr)}
	}
	for _, t := range vocab {
		pg := (float64(countGood[t]) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		b.absentGood += math.Log(1 - pg)
		b.absentRest += math.Log(1 - pr)
	}
	b.numTerms = len(vocab)
	return b, nil
}

// RefTrainRules is the reference TrainRules.
func RefTrainRules(db *corpus.DB, task string, maxRules, maxTerms int, minPrecision float64) (*Rules, error) {
	feats, labels, err := refLabelledDocs(db, task)
	if err != nil {
		return nil, err
	}
	if maxRules <= 0 || maxTerms <= 0 {
		return nil, fmt.Errorf("classifier: invalid rule shape %dx%d", maxRules, maxTerms)
	}
	remaining := map[int]bool{}
	for i, l := range labels {
		if l {
			remaining[i] = true
		}
	}
	if len(remaining) == 0 {
		return nil, fmt.Errorf("classifier: no positive training documents")
	}
	out := &Rules{}
	for len(out.Set) < maxRules && len(remaining) > 0 {
		rule, covered := refGrowRule(feats, labels, remaining, maxTerms, minPrecision)
		if rule == nil {
			break
		}
		out.Set = append(out.Set, *rule)
		for _, i := range covered {
			delete(remaining, i)
		}
	}
	if len(out.Set) == 0 {
		return nil, fmt.Errorf("classifier: rule induction found no rule meeting precision %.2f", minPrecision)
	}
	return out, nil
}

func refGrowRule(feats []map[string]bool, labels []bool, remaining map[int]bool, maxTerms int, minPrecision float64) (*Rule, []int) {
	candSet := map[string]bool{}
	for i := range remaining {
		for t := range feats[i] {
			candSet[t] = true
		}
	}
	cands := make([]string, 0, len(candSet))
	for t := range candSet {
		cands = append(cands, t)
	}
	sort.Strings(cands)

	var rule Rule
	matches := make([]int, 0, len(feats))
	for i := range feats {
		matches = append(matches, i)
	}
	for len(rule.Terms) < maxTerms {
		bestTerm, bestScore := "", -1.0
		var bestMatches []int
		for _, t := range cands {
			var m []int
			var pos, rem int
			for _, i := range matches {
				if !feats[i][t] {
					continue
				}
				m = append(m, i)
				if labels[i] {
					pos++
				}
				if remaining[i] {
					rem++
				}
			}
			if len(m) == 0 || rem == 0 {
				continue
			}
			prec := float64(pos) / float64(len(m))
			score := prec * float64(rem)
			if score > bestScore {
				bestTerm, bestScore, bestMatches = t, score, m
			}
		}
		if bestTerm == "" {
			break
		}
		rule.Terms = append(rule.Terms, bestTerm)
		matches = bestMatches
		pos := 0
		for _, i := range matches {
			if labels[i] {
				pos++
			}
		}
		if float64(pos)/float64(len(matches)) >= minPrecision {
			break
		}
	}
	if len(rule.Terms) == 0 {
		return nil, nil
	}
	pos, covered := 0, []int{}
	for _, i := range matches {
		if labels[i] {
			pos++
		}
		if remaining[i] {
			covered = append(covered, i)
		}
	}
	if float64(pos)/float64(len(matches)) < minPrecision || len(covered) == 0 {
		return nil, nil
	}
	return &rule, covered
}

// RefClassify is the reference Rules.Classify, over a per-call term set.
func RefClassify(r *Rules, text string) bool {
	set := map[string]bool{}
	for _, tok := range index.Tokenize(text) {
		set[tok] = true
	}
	for _, rule := range r.Set {
		fires := true
		for _, t := range rule.Terms {
			if !set[t] {
				fires = false
				break
			}
		}
		if fires {
			return true
		}
	}
	return false
}
