// Package classifier implements the document classifiers behind the
// Filtered Scan retrieval strategy (§III-B): a rule-induction classifier in
// the spirit of Ripper (the paper's choice) and a naive-Bayes alternative.
// Both are trained on a labelled split and characterized — exactly as the
// paper's models require — by their true-positive rate Ctp (fraction of good
// documents accepted) and false-positive rate Cfp (fraction of non-good
// documents accepted).
package classifier

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// Classifier decides whether a document is a promising candidate for
// containing good tuples of one extraction task.
type Classifier interface {
	// Classify reports whether the document should be processed.
	Classify(text string) bool
}

// Fallible is a classifier whose decisions can fail — a remote model behind
// a flaky service. A failed call makes no decision; the caller retries or
// gives up. cost is extra cost-model time incurred by the call beyond the
// per-document filtering charge.
type Fallible interface {
	Classifier
	ClassifyFallible(text string) (accept bool, cost float64, err error)
}

// Measure computes Ctp and Cfp of a classifier against a database's true
// document classes for a task: Ctp is the acceptance rate on good documents
// and Cfp the acceptance rate on the rest.
func Measure(c Classifier, db *corpus.DB, task string) (ctp, cfp float64, err error) {
	stats := db.Stats(task)
	if stats == nil {
		return 0, 0, fmt.Errorf("classifier: database %s does not host task %s", db.Name, task)
	}
	var accGood, good, accRest, rest int
	for i, doc := range db.Docs {
		accepted := c.Classify(doc.Text)
		if stats.Class[i] == corpus.Good {
			good++
			if accepted {
				accGood++
			}
		} else {
			rest++
			if accepted {
				accRest++
			}
		}
	}
	if good > 0 {
		ctp = float64(accGood) / float64(good)
	}
	if rest > 0 {
		cfp = float64(accRest) / float64(rest)
	}
	return ctp, cfp, nil
}

// trainingSplit returns the document texts of a training database and
// whether each document is good for task.
func trainingSplit(db *corpus.DB, task string) ([]string, []bool, error) {
	stats := db.Stats(task)
	if stats == nil {
		return nil, nil, fmt.Errorf("classifier: training database %s does not host task %s", db.Name, task)
	}
	labels := make([]bool, len(db.Docs))
	for i := range labels {
		labels[i] = stats.Class[i] == corpus.Good
	}
	return db.Texts(), labels, nil
}

// Bayes is a naive-Bayes document classifier over binary term features.
type Bayes struct {
	logPriorGood float64
	logPriorRest float64
	// logLik[term] = [log P(term|good), log P(term|rest)]; absent terms use
	// the default absence likelihoods.
	terms      map[string][2]float64
	absentGood float64
	absentRest float64
	numTerms   int
	threshold  float64
}

// TrainBayes fits a naive-Bayes classifier for task on db. threshold shifts
// the decision boundary (0 = maximum a posteriori); positive values trade
// Ctp for lower Cfp.
func TrainBayes(db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	texts, labels, err := trainingSplit(db, task)
	if err != nil {
		return nil, err
	}
	var nGood, nRest int
	for _, l := range labels {
		if l {
			nGood++
		} else {
			nRest++
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
	// The vocabulary comes sorted, which fixes the float accumulation order.
	vocab, postings := index.New(texts, 0).Vocabulary()
	for ti, t := range vocab {
		var countGood, countRest int
		for _, i := range postings[ti] {
			if labels[i] {
				countGood++
			} else {
				countRest++
			}
		}
		pg := (float64(countGood) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest) + 1) / (float64(nRest) + 2)
		b.terms[t] = [2]float64{math.Log(pg) - math.Log(1-pg), math.Log(pr) - math.Log(1-pr)}
		// Base score assuming every term absent; per-present-term
		// adjustments are stored relative to absence, so classification is
		// O(|doc|).
		b.absentGood += math.Log(1 - pg)
		b.absentRest += math.Log(1 - pr)
	}
	b.numTerms = len(vocab)
	return b, nil
}

// Classify implements Classifier.
func (b *Bayes) Classify(text string) bool {
	scoreGood := b.logPriorGood + b.absentGood
	scoreRest := b.logPriorRest + b.absentRest
	seen := map[string]bool{}
	for _, tok := range index.Tokenize(text) {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		if adj, ok := b.terms[tok]; ok {
			scoreGood += adj[0]
			scoreRest += adj[1]
		}
	}
	return scoreGood-scoreRest > b.threshold
}

// Rule is a conjunctive term rule: a document fires the rule when it
// contains every term.
type Rule struct {
	Terms []string
}

// Rules is a rule-induction classifier: an ordered rule set accepting any
// document that fires at least one rule, learned by greedy set covering as
// in Ripper.
type Rules struct {
	Set []Rule
}

// TrainRules learns up to maxRules rules of at most maxTerms conjuncts for
// task on db. Each rule greedily maximizes covered positives while keeping
// precision at least minPrecision on the remaining training documents.
func TrainRules(db *corpus.DB, task string, maxRules, maxTerms int, minPrecision float64) (*Rules, error) {
	texts, labels, err := trainingSplit(db, task)
	if err != nil {
		return nil, err
	}
	if maxRules <= 0 || maxTerms <= 0 {
		return nil, fmt.Errorf("classifier: invalid rule shape %dx%d", maxRules, maxTerms)
	}
	remaining := slices.Clone(labels) // uncovered positive docs
	left := 0
	for _, r := range remaining {
		if r {
			left++
		}
	}
	if left == 0 {
		return nil, fmt.Errorf("classifier: no positive training documents")
	}
	vocab, postings := index.New(texts, 0).Vocabulary()
	out := &Rules{}
	for len(out.Set) < maxRules && left > 0 {
		rule, covered := growRule(vocab, postings, labels, remaining, maxTerms, minPrecision)
		if rule == nil {
			break
		}
		out.Set = append(out.Set, *rule)
		for _, i := range covered {
			remaining[i] = false
		}
		left -= len(covered)
	}
	if len(out.Set) == 0 {
		return nil, fmt.Errorf("classifier: rule induction found no rule meeting precision %.2f", minPrecision)
	}
	return out, nil
}

// growRule greedily builds one conjunctive rule maximizing coverage of
// remaining positives subject to the precision floor. A candidate term is
// scored by walking its posting list against the set of documents the rule
// matches so far. Candidates are tried in vocabulary order and only a
// strictly better score replaces the best, so ties go to the smaller term;
// terms absent from every remaining positive never score.
func growRule(vocab []string, postings [][]int, labels, remaining []bool, maxTerms int, minPrecision float64) (*Rule, []int) {
	var rule Rule
	inRule := make([]bool, len(labels)) // docs matching the rule so far
	for i := range inRule {
		inRule[i] = true
	}
	var matches []int
	for len(rule.Terms) < maxTerms {
		best, bestScore := -1, -1.0
		for ti, post := range postings {
			var n, pos, rem int
			for _, i := range post {
				if !inRule[i] {
					continue
				}
				n++
				if labels[i] {
					pos++
				}
				if remaining[i] {
					rem++
				}
			}
			if rem == 0 {
				continue
			}
			prec := float64(pos) / float64(n)
			score := prec * float64(rem)
			if score > bestScore {
				best, bestScore = ti, score
			}
		}
		if best < 0 {
			break
		}
		rule.Terms = append(rule.Terms, vocab[best])
		matches = matches[:0]
		for _, i := range postings[best] {
			if inRule[i] {
				matches = append(matches, i)
			}
		}
		clear(inRule)
		pos := 0
		for _, i := range matches {
			inRule[i] = true
			if labels[i] {
				pos++
			}
		}
		// Stop early once the precision floor is met.
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

// tokenBufs pools Rules.Classify's token buffers: Filtered Scan classifies
// every retrieved document, from many goroutines at once.
var tokenBufs = sync.Pool{New: func() any { return new([]string) }}

// Classify implements Classifier. A rule has a handful of terms, so each is
// looked up by a linear scan of the document's tokens instead of building a
// per-call term set.
func (r *Rules) Classify(text string) bool {
	buf := tokenBufs.Get().(*[]string)
	defer tokenBufs.Put(buf)
	*buf = index.TokenizeInto(text, (*buf)[:0], nil)
	for _, rule := range r.Set {
		if rule.firesOn(*buf) {
			return true
		}
	}
	return false
}

// firesOn reports whether toks contains every term of the rule.
func (rule Rule) firesOn(toks []string) bool {
	for _, t := range rule.Terms {
		if !slices.Contains(toks, t) {
			return false
		}
	}
	return true
}
