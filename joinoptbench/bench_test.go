package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/service"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check against the
// metric catalog.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	if len(units) != len(catalog) {
		t.Errorf("BENCHMARK.json lists %d metrics, the catalog %d", len(units), len(catalog))
	}
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range catalog {
		if units[m.name] != m.unit || e2e[m.name] != m.e2e {
			t.Errorf("metric %s: BENCHMARK.json unit %q end-to-end %v, catalog %q %v", m.name, units[m.name], e2e[m.name], m.unit, m.e2e)
		}
	}
}

// TestBalancedPlacement checks that fleet-durable's resident workloads
// split evenly over two replicas, one binary and one query workload each,
// whatever loopback ports the replicas get.
func TestBalancedPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		p1 := 1024 + rng.Intn(64000)
		p2 := p1 + 1 + rng.Intn(400)
		urls := []string{fmt.Sprintf("http://127.0.0.1:%d", p1), fmt.Sprintf("http://127.0.0.1:%d", p2)}
		c, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		owner := ringOwner(c)
		picks, err := balanceResident(4000, owner)
		if err != nil {
			t.Fatalf("ports %d,%d: %v", p1, p2, err)
		}
		owned := map[string]int{}
		for pair := 0; pair < len(residentSlots); pair += 2 {
			a := owner(service.CanonicalWorkloadKey(slotRequest(residentSlots[pair], 4000, picks[pair])))
			b := owner(service.CanonicalWorkloadKey(slotRequest(residentSlots[pair+1], 4000, picks[pair+1])))
			if a == b {
				t.Fatalf("ports %d,%d: %s and %s both on %s", p1, p2, residentSlots[pair].name, residentSlots[pair+1].name, a)
			}
			owned[a]++
			owned[b]++
		}
		if len(owned) != 2 || owned[c.SelfName()] != 2 {
			t.Fatalf("ports %d,%d: ownership %v", p1, p2, owned)
		}
	}
}

func TestJobSequenceIsSeeded(t *testing.T) {
	m := mix{seed: 7, docs: 4000, picks: []int{0, 1, 0, 2}}
	modes := map[string]int{}
	for i := 0; i < 2*blockLen; i++ {
		a, b := m.job(i), m.job(i)
		if refKey(a) != refKey(b) {
			t.Fatalf("job %d differs between two calls", i)
		}
		modes[a.Mode]++
	}
	if modes[service.ModeAdaptive] != 288 || modes[service.ModeExecute] != 120 || modes[service.ModeQuery] != 72 {
		t.Errorf("mix off its 60/25/15 shares: %v", modes)
	}
	seen := map[string]bool{refKey(coldJob(1, 2000, -1)): true}
	sameOrder := true
	for i := 0; i < 2*coldPool; i++ {
		k := refKey(coldJob(1, 2000, i))
		if seen[k] {
			t.Fatalf("cold-build job %d repeats a workload", i)
		}
		seen[k] = true
		sameOrder = sameOrder && k == refKey(coldJob(2, 2000, i))
	}
	if sameOrder {
		t.Error("two seeds give the same cold-build order")
	}
}

// TestCorruptedReferenceFails runs a few jobs of every mode through a
// replica, checks that they match their references, and then that a
// reference corrupted in any compared field fails every one of them.
func TestCorruptedReferenceFails(t *testing.T) {
	f, err := bootFleet(fleetOpts{replicas: 1, workers: 2, maxJobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	m := mix{seed: 3, docs: 1000, picks: []int{0, 0, 0, 0}}
	c := newClient()
	defer closeClient(c)
	var recs []*jobRec
	modes := map[string]bool{}
	for i := 0; len(modes) < 3 || len(recs) < 8; i++ {
		rec, err := runJob(c, f.reps[0], m.job(i))
		if err != nil {
			t.Fatal(err)
		}
		if rec.failed {
			t.Fatalf("job %d: %s %s", i, rec.state, rec.err)
		}
		rec.idx = i
		recs = append(recs, rec)
		modes[rec.req.Mode] = true
	}
	v := newVerifier()
	if bad, first, err := v.check(recs); err != nil || bad != 0 {
		t.Fatalf("honest reference: %d mismatches (%s), err %v", bad, first, err)
	}
	for name, corrupt := range map[string]func(*outcome){
		"good":      func(o *outcome) { o.good++ },
		"tree":      func(o *outcome) { o.tree += "'" },
		"bad":       func(o *outcome) { o.bad++ },
		"docs":      func(o *outcome) { o.docs[1]++ },
		"invariant": func(o *outcome) { o.invariant *= 1.001 },
		"plans":     func(o *outcome) { o.plans = append([]string{"IDJN θ=(0.4,0.4) X=(SC,SC)"}, o.plans...) },
	} {
		for _, r := range recs {
			r.failed = false
		}
		v.refs, v.corrupt = map[string]outcome{}, corrupt
		bad, _, err := v.check(recs)
		if err != nil {
			t.Fatal(err)
		}
		want := len(recs)
		if name == "bad" || name == "docs" || name == "invariant" || name == "plans" {
			want = 0 // n-ary jobs compare tree and good only
			for _, r := range recs {
				if r.req.Query == nil {
					want++
				}
			}
		}
		if bad != want {
			t.Errorf("corrupted %s: %d of %d jobs failed, want %d", name, bad, len(recs), want)
		}
	}
}

func TestParsePlanRoundTrips(t *testing.T) {
	for _, s := range []string{
		"IDJN θ=(0.4,0.8) X=(SC,FS)",
		"OIJN θ=(0.8,0.4) outer=R2/AQG",
		"ZGJN θ=(0.4,0.4)",
	} {
		p, err := parsePlan(s)
		if err != nil || p.String() != s {
			t.Errorf("parsePlan(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := parsePlan("IDJN θ=(0.4,0.8)"); err == nil {
		t.Error("a truncated plan parsed")
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny size, end-to-end and
// traced, and checks that every metric of BENCHMARK.json is printed with
// its unit, that every result verified, and that the run left no
// goroutine, child process or state directory behind.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots replicas and builds workloads")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, 5, 0.5, true
			cfg.residentDocs = 1000
			cfg.minJobs, cfg.capFactor, cfg.setups, cfg.coldChecks, cfg.traceJobs = 6, 40, 2, 2, 4
			cfg.stateDir = filepath.Join(t.TempDir(), "state")
			cfg.log = io.Discard
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < cfg.minJobs {
				t.Errorf("%d of %d jobs failed", rep.failed, rep.attempted)
			}
			for _, trace := range []bool{false, true} {
				out := rep.output(trace)
				raw, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				printed := string(raw)
				check := func(name, unit string) {
					if m, ok := out.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("trace %v: metric %s not printed with unit %q: %s", trace, name, unit, printed)
					}
				}
				if trace {
					for _, m := range b.PerLayer {
						check(m.Name, m.Unit)
					}
				} else {
					for _, m := range b.EndToEnd {
						check(m.Name, m.Unit)
						if out.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end %s is %v", m.Name, out.Metrics[m.Name].Value)
						}
					}
				}
			}
			builds := rep.values["service.workload_builds"]
			if want := map[string]float64{"cold-build": float64(rep.attempted)}[w]; builds != want {
				t.Errorf("workload builds %v, want %v", builds, want)
			}
			if rep.values["durable.errors"] != 0 {
				t.Errorf("durable errors %v", rep.values["durable.errors"])
			}
			entries, err := os.ReadDir(cfg.stateDir)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("state dir keeps %d entries", len(entries))
			}
			if kids := childProcesses(t); kids != "" {
				t.Errorf("child processes left: %s", kids)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// childProcesses lists the children of this process's threads.
func childProcesses(t *testing.T) string {
	tasks, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil {
		t.Fatal(err)
	}
	var kids []string
	for _, p := range tasks {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		if s := strings.TrimSpace(string(raw)); s != "" {
			kids = append(kids, s)
		}
	}
	return strings.Join(kids, " ")
}
