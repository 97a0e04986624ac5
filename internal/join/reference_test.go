package join

import (
	"fmt"

	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

// This file keeps the flat n-ary Independent Join the tree executor grew
// out of: every side extracts independently under its own retrieval
// strategy, and the output composition generalizes Equation 1 to per-value
// products across all sides, |Tgood⋈| = Σ_a Π_i gr_i(a). The parity tests
// require NaryExec at TJ = 0, with no caps and no pipeline engine, to
// reproduce it exactly.

// MultiState is the observable progress of an n-ary join execution.
type MultiState struct {
	Rels []*relation.Extracted

	// GoodTuples is Σ_a Π_i gr_i(a); BadTuples the complement of the total
	// per-value occurrence product.
	GoodTuples int
	BadTuples  int

	DocsProcessed []int
	DocsRetrieved []int
	DocsFiltered  []int
	Queries       []int
	Time          float64

	totalTuples int
	golds       []*relation.Gold
}

// addTuple records one occurrence on side i and updates the n-way product
// counters incrementally: adding one good occurrence of value a on side i
// raises the good product by Π_{j≠i} gr_j(a) and the total product by
// Π_{j≠i} (gr_j(a) + br_j(a)).
func (st *MultiState) addTuple(i int, t relation.Tuple) {
	a := t.A1
	deltaGood, deltaTotal := 1, 1
	for j := range st.Rels {
		if j == i {
			continue
		}
		g := st.Rels[j].GoodOcc(a)
		deltaGood *= g
		deltaTotal *= g + st.Rels[j].BadOcc(a)
		if deltaTotal == 0 {
			break
		}
	}
	good := st.Rels[i].Add(t)
	st.totalTuples += deltaTotal
	if good {
		st.GoodTuples += deltaGood
	}
	st.BadTuples = st.totalTuples - st.GoodTuples
}

// MultiIDJN is the n-ary Independent Join executor.
type MultiIDJN struct {
	sides []*Side
	strat []retrieval.Strategy
	prev  []retrieval.Counts
	done  []bool
	st    *MultiState
}

// NewMultiIDJN builds an n-ary Independent Join over sides with one
// retrieval strategy per side. At least two sides are required.
func NewMultiIDJN(sides []*Side, strats []retrieval.Strategy) (*MultiIDJN, error) {
	if len(sides) < 2 {
		return nil, fmt.Errorf("join: multi-way join needs at least 2 sides, got %d", len(sides))
	}
	if len(strats) != len(sides) {
		return nil, fmt.Errorf("join: %d sides but %d strategies", len(sides), len(strats))
	}
	st := &MultiState{
		Rels:          make([]*relation.Extracted, len(sides)),
		DocsProcessed: make([]int, len(sides)),
		DocsRetrieved: make([]int, len(sides)),
		DocsFiltered:  make([]int, len(sides)),
		Queries:       make([]int, len(sides)),
		golds:         make([]*relation.Gold, len(sides)),
	}
	for i, s := range sides {
		if err := s.validate(i + 1); err != nil {
			return nil, err
		}
		if strats[i] == nil {
			return nil, fmt.Errorf("join: side %d missing strategy", i+1)
		}
		schema := relation.Schema{Name: fmt.Sprintf("R%d", i+1)}
		if s.Gold != nil {
			schema = s.Gold.Schema
		}
		st.Rels[i] = relation.NewExtracted(schema, s.Gold)
		st.golds[i] = s.Gold
	}
	return &MultiIDJN{
		sides: sides,
		strat: strats,
		prev:  make([]retrieval.Counts, len(sides)),
		done:  make([]bool, len(sides)),
		st:    st,
	}, nil
}

// State returns the live n-ary execution state.
func (e *MultiIDJN) State() *MultiState { return e.st }

// Algorithm names the executor.
func (e *MultiIDJN) Algorithm() string { return fmt.Sprintf("IDJN-%dway", len(e.sides)) }

// Step retrieves and processes one document from every non-exhausted side
// (the square traversal of the n-dimensional document grid). It returns
// false once every strategy is exhausted.
func (e *MultiIDJN) Step() (bool, error) {
	any := false
	for i := range e.sides {
		if e.done[i] {
			continue
		}
		id, ok := e.strat[i].Next()
		now := e.strat[i].Counts()
		e.charge(i, e.prev[i], now)
		e.prev[i] = now
		if !ok {
			e.done[i] = true
			continue
		}
		any = true
		doc := e.sides[i].DB.Doc(id)
		tuples := e.sides[i].System.Extract(doc.Text, e.sides[i].Theta)
		e.st.DocsProcessed[i]++
		e.st.Time += e.sides[i].Costs.TE
		for _, t := range tuples {
			e.st.addTuple(i, t)
		}
	}
	return any, nil
}

func (e *MultiIDJN) charge(i int, prev, now retrieval.Counts) {
	c := e.sides[i].Costs
	dRetr := now.Retrieved - prev.Retrieved
	dFilt := now.Filtered - prev.Filtered
	dQ := now.Queries - prev.Queries
	e.st.DocsRetrieved[i] += dRetr
	e.st.DocsFiltered[i] += dFilt
	e.st.Queries[i] += dQ
	e.st.Time += float64(dRetr)*c.TR + float64(dFilt)*c.TF + float64(dQ)*c.TQ
}

// RunMulti advances the executor until exhaustion or stop returns true.
func RunMulti(e *MultiIDJN, stop func(*MultiState) bool) (*MultiState, error) {
	for {
		ok, err := e.Step()
		if err != nil {
			return e.st, err
		}
		if !ok {
			return e.st, nil
		}
		if stop != nil && stop(e.st) {
			return e.st, nil
		}
	}
}
