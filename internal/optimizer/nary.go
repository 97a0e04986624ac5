package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/querygraph"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

// N-ary plan enumeration: DPccp over the query graph with the paper's
// quality model composed along join trees.
//
// The n-way output composition is a sum over good/bad class masks of the
// value counts times per-side occurrence products (model.NaryModel) —
// class-mask intersections, not per-subset scalars — so quality does NOT
// decompose over join subtrees and cannot be optimized by the subset DP
// directly. The enumerator therefore splits the search:
//
//   - Per-leaf knob configurations (θ_i, X_i) are enumerated exhaustively
//     (the space is bounded: k ≤ querygraph.MaxRelations sides, ≤ |Thetas|·3
//     configs per side), and for each configuration the minimal effort
//     meeting τg is found by the same monotone binary search the binary
//     optimizer uses (searchMinEffort), with all sides advancing
//     proportionally — the n-dimensional square-traversal heuristic.
//   - The join TREE is then chosen by DPccp over connected subgraphs,
//     minimizing the merge cost TJ · Σ E[tuples at each internal node]: the
//     final output is order-independent (a natural join on one shared
//     attribute), so tree shape only moves intermediate cardinalities.

// NaryLeaf is one relation's chosen configuration in an n-ary plan.
type NaryLeaf struct {
	Rel    int
	Theta  float64
	X      retrieval.Kind
	Effort int

	// MaxEffort is the largest meaningful effort of the strategy on this
	// relation (documents for scans, learned queries for AQG).
	MaxEffort int
}

// NaryEval is the optimizer's assessment of one n-ary configuration (or,
// for the whole query, the chosen plan).
type NaryEval struct {
	Tree     *join.TreeNode
	Leaves   []NaryLeaf
	Feasible bool

	// Quality is the predicted root output composition at the leaf efforts.
	Quality model.Quality

	// Time is the predicted cost-model execution time: per-side
	// retrieval/extraction time plus TJ times MergeTuples.
	Time float64

	// MergeTuples is Σ over internal nodes of the expected intermediate
	// cardinality (the root included).
	MergeTuples float64

	// Reason explains infeasibility.
	Reason string
}

// PlanString renders the chosen plan compactly, e.g.
// "((R1⋈R2)⋈R3) θ=(0.4,0.8,0.4) X=(SC,SC,SC)".
func (ev NaryEval) PlanString() string {
	if ev.Tree == nil {
		return "(no plan)"
	}
	ths := make([]string, len(ev.Leaves))
	xs := make([]string, len(ev.Leaves))
	for i, l := range ev.Leaves {
		ths[i] = fmt.Sprintf("%.1f", l.Theta)
		xs[i] = string(l.X)
	}
	return fmt.Sprintf("%s θ=(%s) X=(%s)", ev.Tree, strings.Join(ths, ","), strings.Join(xs, ","))
}

// NaryInputs are the model parameters the n-ary enumerator evaluates
// configurations against.
type NaryInputs struct {
	// Thetas are the available knob settings; P[rel][k] are the parameters
	// of relation rel at Thetas[k]. Costs are per relation.
	Thetas []float64
	P      [][]*model.RelationParams
	Costs  []model.Costs

	// Classes returns the good/bad class-mask value counts of the relation
	// subset (bits index the query's relations; the returned masks index the
	// subset's members in ascending relation order). SubsetClassFn builds
	// one from gold sets. Results are memoized per subset.
	Classes func(subset uint64) map[relation.ClassMask]int

	// TJ is the merge cost charged per expected intermediate tuple at every
	// internal node of the join tree. Zero (the default) makes tuple
	// composition free.
	TJ float64

	// Workers bounds the parallel configuration sweep exactly like
	// Inputs.Workers; any worker count returns the identical choice.
	Workers int

	// ExecWorkers and CacheHitRate adjust predicted extraction charges
	// exactly as for Inputs (effectiveCosts: Amdahl overlap, expected cache
	// hits).
	ExecWorkers  int
	CacheHitRate []float64

	// Shards is the corpus shard count, dividing predicted scan/extract
	// charges by the measured shard-scaling curve exactly as Inputs.Shards
	// does (quality composition unchanged — costs are additive over shards).
	Shards int

	classMu   sync.Mutex
	classMemo map[uint64]map[relation.ClassMask]int
}

// SubsetClassFn builds a Classes callback from gold sets: the class-mask
// value counts of a subset are relation.MultiOverlaps over its members.
func SubsetClassFn(golds []*relation.Gold) func(uint64) map[relation.ClassMask]int {
	return func(subset uint64) map[relation.ClassMask]int {
		sub := make([]*relation.Gold, 0, bits.OnesCount64(subset))
		for _, i := range querygraph.Bits(subset) {
			sub = append(sub, golds[i])
		}
		return relation.MultiOverlaps(sub)
	}
}

// subsetClasses memoizes Classes per subset (safe under the worker pool).
func (in *NaryInputs) subsetClasses(subset uint64) map[relation.ClassMask]int {
	in.classMu.Lock()
	defer in.classMu.Unlock()
	if in.classMemo == nil {
		in.classMemo = map[uint64]map[relation.ClassMask]int{}
	}
	if c, ok := in.classMemo[subset]; ok {
		return c
	}
	c := in.Classes(subset)
	in.classMemo[subset] = c
	return c
}

func (in *NaryInputs) validate(g *querygraph.Graph) error {
	n := g.N
	if len(in.P) != n {
		return fmt.Errorf("optimizer: query has %d relations but parameters for %d", n, len(in.P))
	}
	if len(in.Costs) != n {
		return fmt.Errorf("optimizer: query has %d relations but costs for %d", n, len(in.Costs))
	}
	if len(in.Thetas) == 0 {
		return fmt.Errorf("optimizer: no θ settings")
	}
	for i, ps := range in.P {
		if len(ps) != len(in.Thetas) {
			return fmt.Errorf("optimizer: relation %d has %d parameter sets for %d θ settings", i+1, len(ps), len(in.Thetas))
		}
		for k, p := range ps {
			if p == nil {
				return fmt.Errorf("optimizer: relation %d missing parameters at θ=%.2f", i+1, in.Thetas[k])
			}
		}
	}
	if in.Classes == nil {
		return fmt.Errorf("optimizer: missing Classes callback")
	}
	return nil
}

// naryConfig fixes per-relation knob choices: θ index and retrieval kind.
type naryConfig struct {
	thetaIdx []int
	kinds    []retrieval.Kind
}

// maxNaryConfigs caps the configuration cross product; beyond it the sweep
// would dominate optimization time and the caller should prune θ settings.
const maxNaryConfigs = 200_000

// enumerateConfigs builds the per-relation configuration cross product in
// deterministic order (relation 0 outermost; per relation: θ order, then
// SC/FS/AQG). A kind is offered only where its parameters exist: FS needs a
// trained classifier (Ctp > 0), AQG needs learned queries.
func enumerateConfigs(in *NaryInputs, n int) ([]naryConfig, error) {
	type opt struct {
		thetaIdx int
		kind     retrieval.Kind
	}
	perRel := make([][]opt, n)
	for i := 0; i < n; i++ {
		for k := range in.Thetas {
			p := in.P[i][k]
			perRel[i] = append(perRel[i], opt{k, retrieval.SC})
			if p.Ctp > 0 {
				perRel[i] = append(perRel[i], opt{k, retrieval.FS})
			}
			if len(p.AQG) > 0 {
				perRel[i] = append(perRel[i], opt{k, retrieval.AQG})
			}
		}
	}
	total := 1
	for _, opts := range perRel {
		total *= len(opts)
		if total > maxNaryConfigs {
			return nil, fmt.Errorf("optimizer: configuration space exceeds %d; reduce θ settings", maxNaryConfigs)
		}
	}
	configs := make([]naryConfig, 0, total)
	idx := make([]int, n)
	for {
		cfg := naryConfig{thetaIdx: make([]int, n), kinds: make([]retrieval.Kind, n)}
		for i := 0; i < n; i++ {
			cfg.thetaIdx[i] = perRel[i][idx[i]].thetaIdx
			cfg.kinds[i] = perRel[i][idx[i]].kind
		}
		configs = append(configs, cfg)
		// Odometer increment, last relation fastest.
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(perRel[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return configs, nil
		}
	}
}

// sideOcc is a relation's expected per-value occurrence observation rates
// at a given effort: E[gr|g] = good·g and E[br|b] = bad·b per §V-C, scaled
// to expected occurrences per value via the mean frequencies.
type sideOcc struct {
	good float64
	bad  float64
}

func occAt(p *model.RelationParams, x retrieval.Kind, effort int) (sideOcc, error) {
	proc, err := p.ProcessedAfter(x, effort)
	if err != nil {
		return sideOcc{}, err
	}
	cov := p.CoverageOf(proc)
	return sideOcc{good: cov.CG * p.MeanGoodFreq(), bad: cov.CB * p.MeanBadFreq()}, nil
}

// subsetCard computes the expected total tuple count of the join over the
// relation subset: Σ over the subset's class masks of count · Π occurrence
// products.
func subsetCard(classes map[relation.ClassMask]int, members []int, occ []sideOcc) float64 {
	var total float64
	top := relation.AllGood(len(members))
	// Ascending mask order, not map order: deterministic float summation.
	for mask := relation.ClassMask(0); ; mask++ {
		if count := classes[mask]; count != 0 {
			contrib := float64(count)
			for pos, rel := range members {
				if mask&(1<<pos) != 0 {
					contrib *= occ[rel].good
				} else {
					contrib *= occ[rel].bad
				}
			}
			total += contrib
		}
		if mask == top {
			break
		}
	}
	return total
}

// dpEntry is the DP table entry of one connected subgraph.
type dpEntry struct {
	node *join.TreeNode
	cost float64 // Σ intermediate cardinalities of the subtree
}

// dpTree runs the subset DP over the DPccp csg-cmp stream: best[S] minimizes
// the accumulated intermediate cardinality Σ card(node) over the subtree's
// internal nodes. card(S) is split-independent, so the DP reduces to
// minimizing Σ over children — ties break toward the first csg-cmp pair in
// enumeration order, which is deterministic.
func dpTree(g *querygraph.Graph, card func(uint64) float64) (*join.TreeNode, float64) {
	best := make(map[uint64]*dpEntry, 1<<g.N)
	for i := 0; i < g.N; i++ {
		s := uint64(1) << i
		best[s] = &dpEntry{node: &join.TreeNode{Rel: i}}
	}
	g.CsgCmpPairs(func(s1, s2 uint64) {
		u := s1 | s2
		l, r := best[s1], best[s2]
		c := l.cost + r.cost + card(u)
		if e, ok := best[u]; !ok || c < e.cost {
			best[u] = &dpEntry{
				node: &join.TreeNode{Rel: -1, Left: l.node, Right: r.node},
				cost: c,
			}
		}
	})
	e := best[g.All()]
	return e.node, e.cost
}

// evalNaryConfig finds the minimal effort at which the configuration meets
// req (every side advancing proportionally toward its maximum — the
// n-dimensional square traversal), then picks the cheapest join tree by
// DPccp at those efforts.
func evalNaryConfig(g *querygraph.Graph, in *NaryInputs, req Requirement, cfg naryConfig) (NaryEval, error) {
	n := g.N
	params := make([]*model.RelationParams, n)
	leaves := make([]NaryLeaf, n)
	maxT := 0
	for i := 0; i < n; i++ {
		params[i] = in.P[i][cfg.thetaIdx[i]]
		me := maxEffort(params[i], cfg.kinds[i])
		leaves[i] = NaryLeaf{Rel: i, Theta: in.Thetas[cfg.thetaIdx[i]], X: cfg.kinds[i], MaxEffort: me}
		if me <= 0 {
			return NaryEval{Leaves: leaves, Reason: fmt.Sprintf("relation %d has no %s effort", i+1, cfg.kinds[i])}, nil
		}
		if me > maxT {
			maxT = me
		}
	}
	m := &model.NaryModel{P: params, X: cfg.kinds, Classes: in.subsetClasses(g.All())}
	effortsAt := func(t int) []int {
		e := make([]int, n)
		for i := 0; i < n; i++ {
			e[i] = int(math.Ceil(float64(t) * float64(leaves[i].MaxEffort) / float64(maxT)))
			if e[i] < 1 {
				e[i] = 1
			}
			if e[i] > leaves[i].MaxEffort {
				e[i] = leaves[i].MaxEffort
			}
		}
		return e
	}
	t, q, feasible, err := searchMinEffort(maxT, req.TauG, func(t int) (model.Quality, error) {
		return m.Estimate(effortsAt(t))
	})
	if err != nil {
		return NaryEval{}, err
	}
	efforts := effortsAt(t)
	for i := range leaves {
		leaves[i].Effort = efforts[i]
	}
	out := NaryEval{Leaves: leaves, Quality: q}
	if !feasible {
		out.Reason = fmt.Sprintf("max good %.0f < τg %d", q.Good, req.TauG)
		return out, nil
	}
	if q.Bad > float64(req.TauB) {
		out.Reason = fmt.Sprintf("bad %.0f > τb %d at required effort", q.Bad, req.TauB)
		return out, nil
	}
	out.Feasible = true

	costs := make([]model.Costs, n)
	for i := 0; i < n; i++ {
		hitRate := 0.0
		if i < len(in.CacheHitRate) {
			hitRate = in.CacheHitRate[i]
		}
		costs[i] = effectiveCosts(in.Costs[i], hitRate, in.Shards, in.ExecWorkers)
	}
	out.Time, err = m.Time(efforts, costs)
	if err != nil {
		return NaryEval{}, err
	}

	// Merge-cost DP: intermediate cardinalities at the chosen efforts.
	occ := make([]sideOcc, n)
	for i := 0; i < n; i++ {
		if occ[i], err = occAt(params[i], cfg.kinds[i], efforts[i]); err != nil {
			return NaryEval{}, err
		}
	}
	card := func(set uint64) float64 {
		return subsetCard(in.subsetClasses(set), querygraph.Bits(set), occ)
	}
	out.Tree, out.MergeTuples = dpTree(g, card)
	out.Time += in.TJ * out.MergeTuples
	return out, nil
}

// ChooseNary evaluates every per-relation knob configuration, picks for each
// the minimal feasible effort and the cheapest join tree, and returns the
// fastest feasible plan plus all evaluations.
//
// Like Choose, the sweep runs on a bounded worker pool (Workers; 0 = one
// per CPU) and returns the identical result for any worker count: ties
// break toward the earlier configuration in enumeration order.
func ChooseNary(g *querygraph.Graph, in *NaryInputs, req Requirement) (NaryEval, []NaryEval, error) {
	if err := in.validate(g); err != nil {
		return NaryEval{}, nil, err
	}
	configs, err := enumerateConfigs(in, g.N)
	if err != nil {
		return NaryEval{}, nil, err
	}
	workers := in.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(configs) {
		workers = len(configs)
	}
	evals := make([]NaryEval, len(configs))
	errs := make([]error, len(configs))
	if workers <= 1 {
		for i, cfg := range configs {
			if evals[i], errs[i] = evalNaryConfig(g, in, req, cfg); errs[i] != nil {
				return NaryEval{}, nil, errs[i]
			}
		}
		return pickBestNary(evals, req)
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(configs) || failed.Load() {
					return
				}
				ev, err := evalNaryConfig(g, in, req, configs[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				evals[i] = ev
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return NaryEval{}, nil, err
			}
		}
	}
	return pickBestNary(evals, req)
}

// pickBestNary reduces the evaluations with the deterministic tie-break
// (lowest predicted time, then configuration order).
func pickBestNary(evals []NaryEval, req Requirement) (NaryEval, []NaryEval, error) {
	best := NaryEval{Time: math.Inf(1)}
	found := false
	for _, ev := range evals {
		if ev.Feasible && ev.Time < best.Time {
			best = ev
			found = true
		}
	}
	if !found {
		return NaryEval{}, evals, fmt.Errorf("optimizer: no feasible n-ary plan for τg=%d τb=%d", req.TauG, req.TauB)
	}
	return best, evals, nil
}
