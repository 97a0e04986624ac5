package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"joinopt"
	"joinopt/internal/cluster"
	"joinopt/internal/service"
)

// A slot is one resident workload of the warm workloads: two binary
// workloads and two n-ary query workloads.
type slot struct {
	name  string
	rel   [2]string
	query *service.QuerySpec
}

var residentSlots = []slot{
	{name: "hq-ex", rel: [2]string{"HQ", "EX"}},
	{name: "mg-ex", rel: [2]string{"MG", "EX"}},
	{name: "q3-chain", query: &service.QuerySpec{Relations: []string{"HQ", "EX", "MG"}}},
	{name: "q4-star", query: &service.QuerySpec{
		Relations: []string{"EX", "HQ", "MG", "HQ"},
		Joins:     [][2]int{{0, 1}, {0, 2}, {0, 3}},
	}},
}

// A resident slot's candidates are spellings of its workload that name
// different registry keys, so that fleet-durable can balance ownership
// over any pair of loopback ports. The first ones keep the workload's
// content: a binary workload may spell its second corpus size and its
// search-interface cap out or leave them to their defaults, and n-ary
// workloads do not use the cap. Only when none of those balances the ring
// do the candidates move on to other workload seeds.
const candidates = 64

// slotSpec is candidate k of slot s.
func slotSpec(s slot, docs, k int) (service.WorkloadSpec, *service.QuerySpec) {
	spec := service.WorkloadSpec{NumDocs: docs, Seed: 1}
	if s.query != nil {
		spec.TopK = k // 0 is the default
		return spec, s.query
	}
	spec.Relations = s.rel
	if k >= 4 {
		spec.Seed = int64(k - 2)
		return spec, nil
	}
	if k&1 != 0 {
		spec.NumDocs2 = docs
	}
	if k&2 != 0 {
		spec.TopK = max(10, docs/400)
	}
	return spec, nil
}

// slotRequest is the set-up request of candidate k of slot s: the one that
// builds it, and the one whose key places it on the ring.
func slotRequest(s slot, docs, k int) service.JobRequest {
	spec, q := slotSpec(s, docs, k)
	req := service.JobRequest{Tenant: "bench", Workload: spec, Query: q, Mode: service.ModeAdaptive, TauG: 16, TauB: 160}
	if q != nil {
		req.Mode, req.TauG, req.TauB = service.ModeQuery, 8, 80
	}
	return req
}

// warmJobs are the set-up jobs of candidate k of slot s after the one that
// builds it. The ladder of the mix warms the workload's memoized optimizer
// inputs; for a binary workload, full scans at every θ the mix uses, also
// over two shards for the knob settings adaptive jobs shard at, fill the
// extraction cache, so that the measured phase runs on a warm one.
func warmJobs(s slot, docs, k int) []service.JobRequest {
	ladder := tauLadder
	if s.query != nil {
		ladder = queryLadder
	}
	var out []service.JobRequest
	for rung := range ladder {
		req := slotRequest(s, docs, k)
		req.TauG = tau(ladder, rung, docs)
		req.TauB = 10 * req.TauG
		out = append(out, req)
	}
	if s.query != nil {
		return out
	}
	scan := func(th float64, shards int) service.JobRequest {
		req := slotRequest(s, docs, k)
		req.Mode, req.Shards = service.ModeExecute, shards
		req.Plan = &service.PlanRequest{Algorithm: "IDJN", Theta: [2]float64{th, th}, X: [2]string{"SC", "SC"}}
		return req
	}
	for _, th := range thetas {
		out = append(out, scan(th, 0))
	}
	for _, th := range joinopt.Knobs {
		out = append(out, scan(th, 2))
	}
	return out
}

// balanceResident picks a candidate per resident slot so that each replica
// of a two-member ring owns one binary and one query workload: within each
// pair of slots it takes the first pair of candidates, in order, that the
// ring places on different members. owner maps a canonical workload key
// to a member name.
func balanceResident(docs int, owner func(key string) string) ([]int, error) {
	picks := make([]int, len(residentSlots))
	for pair := 0; pair < len(residentSlots); pair += 2 {
		a, b := residentSlots[pair], residentSlots[pair+1]
		found := false
		for n := 0; n < 2*candidates && !found; n++ {
			for ka := max(0, n-candidates+1); ka <= min(n, candidates-1) && !found; ka++ {
				kb := n - ka
				oa := owner(service.CanonicalWorkloadKey(slotRequest(a, docs, ka)))
				if oa != owner(service.CanonicalWorkloadKey(slotRequest(b, docs, kb))) {
					picks[pair], picks[pair+1], found = ka, kb, true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("no candidates place %s and %s on different replicas", a.name, b.name)
		}
	}
	return picks, nil
}

// ringOwner adapts a cluster to balanceResident.
func ringOwner(c *cluster.Cluster) func(string) string {
	return func(key string) string { name, _ := c.Owner(key); return name }
}

// The τg ladders are for 4000-document workloads; smaller workloads (the
// tests') scale them down so that every requirement stays feasible.
func tau(ladder []int, rung, docs int) int { return max(1, ladder[rung]*docs/4000) }

var (
	tauLadder   = []int{8, 16, 32, 64, 128, 256}
	queryLadder = []int{2, 4, 8, 16, 32, 64}
	thetas      = []float64{0.2, 0.4, 0.6, 0.8}
	algorithms  = []string{"IDJN", "OIJN", "ZGJN"}
	strategies  = []string{"SC", "FS", "AQG"}
)

// The warm job sequence comes in blocks of 240 jobs with a fixed make-up,
// 60% adaptive, 25% execute and 15% query; the seed only shuffles each
// block. Every run of the sequence thus holds the same jobs in the same
// shares, and runs differ in order, not in work.
const blockLen = 240

// block is the unshuffled make-up of one block, as (kind, slot, a, b):
// adaptive jobs take τ rung a and knob variant b, execute jobs algorithm a
// and combination b, query jobs τ rung a.
type blockJob struct{ kind, slot, a, b int }

const (
	kindAdaptive = iota
	kindExecute
	kindQuery
)

var block = func() []blockJob {
	var out []blockJob
	for s := 0; s < 2; s++ {
		for a := range tauLadder { // 2 × 6 × 12 = 144 adaptive
			for v := 0; v < 12; v++ {
				out = append(out, blockJob{kindAdaptive, s, a, v})
			}
		}
		for a := range algorithms { // 2 × 3 × 10 = 60 execute
			for c := 0; c < 10; c++ {
				out = append(out, blockJob{kindExecute, s, a, c})
			}
		}
		for a := range queryLadder { // 2 × 6 × 3 = 36 query
			for r := 0; r < 3; r++ {
				out = append(out, blockJob{kindQuery, 2 + s, a, r})
			}
		}
	}
	return out
}()

// mix generates the warm job sequence: job i depends only on the
// benchmark seed and i.
type mix struct {
	seed  int64
	docs  int
	picks []int // resident candidate per slot
}

// job returns request i of the warm mix.
func (m mix) job(i int) service.JobRequest {
	nb := i / blockLen
	perm := rand.New(rand.NewSource(m.seed<<20 + int64(nb))).Perm(blockLen)
	bj := block[perm[i%blockLen]]
	req := slotRequest(residentSlots[bj.slot], m.docs, m.picks[bj.slot])
	switch bj.kind {
	case kindAdaptive:
		req.TauG = tau(tauLadder, bj.a, m.docs)
		req.TauB = 10 * req.TauG
		switch bj.b {
		case 10:
			req.ExecWorkers = 2
		case 11:
			req.Shards = 2
		}
	case kindExecute:
		req.Mode = service.ModeExecute
		c := bj.b
		req.Plan = &service.PlanRequest{
			Algorithm: algorithms[bj.a],
			Theta:     [2]float64{thetas[c%4], thetas[(c/2+1)%4]},
			X:         [2]string{strategies[c%3], strategies[(c/3)%3]},
		}
		if req.Plan.Algorithm == "OIJN" {
			req.Plan.OuterIdx = c % 2
		}
	case kindQuery:
		req.TauG = tau(queryLadder, bj.a, m.docs)
		req.TauB = 10 * req.TauG
	}
	return req
}

// coldPool is how many distinct workloads cold-build draws its first jobs
// from: every run builds the same ones, and the seed only orders them, so
// runs differ in order, not in work. A run reaches about 100 jobs; jobs
// past the pool, and the set-up job, get workloads of their own.
const coldPool = 128

// coldJob returns request i of cold-build: an adaptive HQ⋈EX job over a
// workload no other job of the run names. Index -1 is the set-up job.
func coldJob(seed int64, docs, i int) service.JobRequest {
	ws := int64(1000 + i)
	if i >= 0 && i < coldPool {
		ws = int64(1000 + rand.New(rand.NewSource(seed)).Perm(coldPool)[i])
	}
	return service.JobRequest{
		Tenant:   "bench",
		Workload: service.WorkloadSpec{Relations: [2]string{"HQ", "EX"}, NumDocs: docs, Seed: ws},
		Mode:     service.ModeAdaptive,
		TauG:     16,
		TauB:     160,
	}
}

// refKey identifies a request. The execution knobs (exec_workers, shards)
// stay in it: they do not change an execution's output, but the optimizer
// reads them when it predicts a plan's time.
func refKey(req service.JobRequest) string {
	b, _ := json.Marshal(req)
	return string(b)
}
