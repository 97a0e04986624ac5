package service

import (
	"testing"

	"joinopt/internal/obs"
)

// TestRegistryEvictsLeastRecentlyUsed pins the registry bound: past
// maxResident distinct workloads the least recently used entry is dropped,
// the resident gauge and eviction counter track it exactly, and a workload
// named again after eviction is rebuilt.
func TestRegistryEvictsLeastRecentlyUsed(t *testing.T) {
	m := obs.NewRegistry()
	r := NewRegistry(0, m)
	spec := func(i int) WorkloadSpec { return WorkloadSpec{NumDocs: 400, Seed: int64(100 + i)} }
	counter := func(name string) int64 { return m.Snapshot().Counters[name] }
	check := func(wantSize int, wantEvictions int64) {
		t.Helper()
		if n := r.Size(); n != wantSize {
			t.Fatalf("Size() = %d, want %d", n, wantSize)
		}
		if g := m.Snapshot().Gauges[MetricWorkloadResident]; g != float64(wantSize) {
			t.Fatalf("resident gauge = %v, want %d", g, wantSize)
		}
		if n := counter(MetricWorkloadEvictions); n != wantEvictions {
			t.Fatalf("evictions = %d, want %d", n, wantEvictions)
		}
	}

	first, err := r.Task(spec(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxResident; i++ {
		r.Task(spec(i), nil) // a few seeds fail to generate; failures are entries too
	}
	check(maxResident, 0)
	// Touching workload 0 makes workload 1 the least recently used.
	if again, _ := r.Task(spec(0), nil); again != first {
		t.Fatal("a resident workload was rebuilt")
	}
	for i := maxResident; i < maxResident+8; i++ {
		r.Task(spec(i), nil)
		check(maxResident, int64(i-maxResident+1))
	}
	if again, _ := r.Task(spec(0), nil); again != first {
		t.Fatal("the most recently touched workload was evicted")
	}

	builds := counter(MetricWorkloadBuilds)
	rebuilt, err := r.Task(spec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := counter(MetricWorkloadBuilds); n != builds+1 {
		t.Errorf("builds after naming an evicted workload: %d, want %d", n, builds+1)
	}
	if rebuilt == nil {
		t.Fatal("rebuilt workload has no task")
	}
	check(maxResident, 9)
}
