package model

import (
	"fmt"

	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

// NaryModel extends the Independent Join quality analysis to n-way
// joins on the shared attribute — the paper's stated future work. The
// composition generalizes §V-B: for every good/bad class combination c over
// the n relations (a relation.ClassMask), the expected tuple contribution
// is
//
//	count(c) · Π_i E[occ_i | class c_i]
//
// where E[occ_i] integrates the side's linear coverage over its good or bad
// frequency distribution. The all-good class yields |Tgood⋈|; every other
// class is bad output.
type NaryModel struct {
	P       []*RelationParams
	X       []retrieval.Kind
	Classes map[relation.ClassMask]int
}

// Validate checks structural consistency.
func (m *NaryModel) Validate() error {
	if len(m.P) < 2 {
		return fmt.Errorf("model: multi-way model needs at least 2 relations, got %d", len(m.P))
	}
	if len(m.X) != len(m.P) {
		return fmt.Errorf("model: %d relations but %d strategies", len(m.P), len(m.X))
	}
	if len(m.P) > 8 {
		return fmt.Errorf("model: class masks support at most 8 relations, got %d", len(m.P))
	}
	for i, p := range m.P {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("model: relation %d: %w", i+1, err)
		}
	}
	return nil
}

// Estimate predicts the n-way output composition after each side has spent
// the given effort (documents for SC/FS, queries for AQG).
func (m *NaryModel) Estimate(efforts []int) (Quality, error) {
	if err := m.Validate(); err != nil {
		return Quality{}, err
	}
	if len(efforts) != len(m.P) {
		return Quality{}, fmt.Errorf("model: %d relations but %d efforts", len(m.P), len(efforts))
	}
	n := len(m.P)
	// Per-side expected observed occurrences per value, by class.
	goodOcc := make([]float64, n)
	badOcc := make([]float64, n)
	for i, p := range m.P {
		proc, err := p.ProcessedAfter(m.X[i], efforts[i])
		if err != nil {
			return Quality{}, fmt.Errorf("model: side %d: %w", i+1, err)
		}
		cov := p.CoverageOf(proc)
		goodOcc[i] = cov.CG * p.MeanGoodFreq()
		badOcc[i] = cov.CB * p.MeanBadFreq()
	}
	var q Quality
	allGood := relation.AllGood(n)
	// Ascending mask order, not map order: float summation order must be
	// deterministic for the optimizer's bit-identical-choice guarantees.
	for mask := relation.ClassMask(0); ; mask++ {
		if count := m.Classes[mask]; count != 0 {
			contrib := float64(count)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					contrib *= goodOcc[i]
				} else {
					contrib *= badOcc[i]
				}
			}
			if mask == allGood {
				q.Good += contrib
			} else {
				q.Bad += contrib
			}
		}
		if mask == allGood {
			break
		}
	}
	return q, nil
}

// Time predicts the cost-model execution time at the given efforts.
func (m *NaryModel) Time(efforts []int, costs []Costs) (float64, error) {
	if len(efforts) != len(m.P) || len(costs) != len(m.P) {
		return 0, fmt.Errorf("model: efforts/costs arity mismatch")
	}
	var total float64
	for i, p := range m.P {
		proc, err := p.ProcessedAfter(m.X[i], efforts[i])
		if err != nil {
			return 0, err
		}
		total += sideTime(proc, costs[i])
	}
	return total, nil
}
