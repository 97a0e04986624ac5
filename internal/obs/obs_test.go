package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// errWriter fails after n successful writes.
type errWriter struct{ n int }

var errBoom = errors.New("boom")

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errBoom
	}
	w.n--
	return len(p), nil
}

func TestNilSafety(t *testing.T) {
	// Every observability handle must be a no-op at nil: instrumented code
	// relies on this instead of branching at each call site.
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.SetClock(func() float64 { return 1 })
	tr.Emit(KindStep, 0, nil)
	tr.EmitAt(1, KindStep, 1, map[string]any{"k": "v"})

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry returned a live handle")
	}
	r.Describe("x", "help")
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var em *ExecMetrics
	em.Processed(0)
	em.Retrieved(1, 3)
	em.Filtered(0, 2)
	em.Queries(1, 1)
	em.Retry(0)
	em.Failed(1)
	em.Fault(0)
	em.Quality(1, 2)
	em.StepDone("IDJN", 10, 2)
	em.QueueDepth(0, 4)
	var om *OptMetrics
	om.Decision(true)
	om.Checkpoint()
	om.CheckpointErr()
	om.Phase("pilot", 1, 0.5)
	if NewExecMetrics(nil) != nil || NewOptMetrics(nil) != nil {
		t.Fatal("nil registry produced a live bundle")
	}
	if New() != nil || New(nil, nil) != nil {
		t.Fatal("New with no live sinks must return the nil (disabled) trace")
	}
}

func TestTraceSeqAndClock(t *testing.T) {
	ring := NewRing(8)
	tr := New(ring)
	if !tr.Enabled() {
		t.Fatal("live trace reports disabled")
	}
	now := 2.5
	tr.SetClock(func() float64 { return now })
	tr.Emit(KindQuery, 1, map[string]any{"n": 1})
	now = 7.0
	tr.Emit(KindQuery, 2, nil)
	tr.EmitAt(99, KindRunEnd, 0, nil)

	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].T != 2.5 || evs[1].T != 7.0 || evs[2].T != 99 {
		t.Fatalf("timestamps wrong: %v %v %v", evs[0].T, evs[1].T, evs[2].T)
	}
	if evs[0].Side != 1 || evs[1].Side != 2 {
		t.Fatal("sides not preserved")
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(4)
	tr := New(ring)
	for i := 0; i < 10; i++ {
		tr.EmitAt(float64(i), KindStep, 0, nil)
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d, want 10", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered = %d, want 4", len(evs))
	}
	// Oldest first: the last four timestamps 6,7,8,9.
	for i, ev := range evs {
		if ev.T != float64(6+i) {
			t.Fatalf("event %d has t=%v, want %v", i, ev.T, float64(6+i))
		}
	}
	if NewRing(0) == nil || cap(NewRing(-1).buf) != DefaultRingCapacity {
		t.Fatal("non-positive capacity must fall back to the default")
	}
}

func TestNDJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSON(&buf)
	tr := New(sink)
	tr.EmitAt(1.5, KindDocProcessed, 2, map[string]any{"doc": 7, "tuples": 3})
	tr.EmitAt(2.0, KindStep, 0, nil)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.T != 1.5 || ev.Kind != KindDocProcessed || ev.Side != 2 {
		t.Fatalf("decoded event wrong: %+v", ev)
	}
	// Attr keys are sorted by encoding/json — byte-determinism for goldens.
	if want := `"attrs":{"doc":7,"tuples":3}`; !strings.Contains(lines[0], want) {
		t.Fatalf("line %q missing sorted attrs %q", lines[0], want)
	}
	if strings.Contains(lines[1], "attrs") || strings.Contains(lines[1], "side") {
		t.Fatalf("empty attrs/side must be omitted: %q", lines[1])
	}
}

func TestNDJSONStickyError(t *testing.T) {
	sink := NewNDJSON(&errWriter{n: 0})
	for i := 0; i < 2000; i++ { // enough to overflow the bufio buffer
		sink.Emit(Event{Seq: uint64(i), Kind: KindStep})
	}
	if !errors.Is(sink.Err(), errBoom) {
		t.Fatalf("Err() = %v, want %v", sink.Err(), errBoom)
	}
	if !errors.Is(sink.Close(), errBoom) {
		t.Fatal("Close must surface the sticky error")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter(`fam{side="1"}`)
	c2 := r.Counter(`fam{side="1"}`)
	if c1 != c2 {
		t.Fatal("same series must return the same counter")
	}
	c1.Add(3)
	if r.Counter(`fam{side="1"}`).Value() != 3 {
		t.Fatal("counter state lost across lookups")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same series must return the same gauge")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{9}) // later bounds ignored
	if h1 != h2 || len(h2.bounds) != 2 {
		t.Fatal("histogram get-or-create must keep the first bounds")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 5, 10})
	for _, x := range []float64{0.5, 1, 3, 7, 10, 25} {
		h.Observe(x)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if want := 0.5 + 1 + 3 + 7 + 10 + 25; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// Bucket upper bounds are inclusive: 0.5,1 | 3 | 7,10 | 25(overflow).
	if got := s.Counts; got[0] != 2 || got[1] != 1 || got[2] != 2 || got[3] != 1 {
		t.Fatalf("bucket counts = %v", got)
	}
}

func TestWithLabelMerging(t *testing.T) {
	if got := withLabel("fam", "_bucket", "le", "5"); got != `fam_bucket{le="5"}` {
		t.Fatalf("unlabeled: %q", got)
	}
	if got := withLabel(`fam{side="1"}`, "_bucket", "le", "+Inf"); got != `fam_bucket{side="1",le="+Inf"}` {
		t.Fatalf("labeled: %q", got)
	}
}

func TestPrometheusEncodingDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Describe("joinopt_docs_processed_total", "docs")
		r.Counter(`joinopt_docs_processed_total{side="2"}`).Add(7)
		r.Counter(`joinopt_docs_processed_total{side="1"}`).Add(3)
		r.Gauge("joinopt_run_time").Set(12.5)
		r.Histogram("joinopt_step_model_time", []float64{1, 10}).Observe(4)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding is not deterministic across identical registries")
	}
	out := a.String()
	for _, want := range []string{
		"# HELP joinopt_docs_processed_total docs",
		"# TYPE joinopt_docs_processed_total counter",
		`joinopt_docs_processed_total{side="1"} 3`,
		`joinopt_docs_processed_total{side="2"} 7`,
		"# TYPE joinopt_run_time gauge",
		"joinopt_run_time 12.5",
		"# TYPE joinopt_step_model_time histogram",
		`joinopt_step_model_time_bucket{le="1"} 0`,
		`joinopt_step_model_time_bucket{le="10"} 1`,
		`joinopt_step_model_time_bucket{le="+Inf"} 1`,
		"joinopt_step_model_time_sum 4",
		"joinopt_step_model_time_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// side="1" must sort before side="2", families alphabetically.
	if strings.Index(out, `side="1"`) > strings.Index(out, `side="2"`) {
		t.Fatal("series not sorted")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1.5)
	var s Snapshot
	if err := json.Unmarshal([]byte(r.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 2 || s.Gauges["g"] != 1.5 {
		t.Fatalf("snapshot round-trip wrong: %+v", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Exercised under -race in CI: concurrent emitters against one trace and
	// one registry, with snapshots racing the writers.
	ring := NewRing(64)
	var buf bytes.Buffer
	tr := New(ring, NewNDJSON(&buf))
	r := NewRegistry()
	em := NewExecMetrics(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(KindStep, g%2+1, nil)
				em.Processed(g % 2)
				em.Retrieved(g%2, 1)
				em.Quality(i, i)
				em.StepDone("IDJN", float64(i), 1)
				r.Gauge("shared").Add(1)
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = ring.Events()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter(sideSeries(MetricDocsProcessed, 0)).Value() +
		r.Counter(sideSeries(MetricDocsProcessed, 1)).Value(); got != 8*200 {
		t.Fatalf("processed total = %d, want %d", got, 8*200)
	}
	if got := r.Gauge("shared").Value(); got != 8*200 {
		t.Fatalf("gauge Add total = %v, want %v", got, 8*200)
	}
	if ring.Total() != 8*200 {
		t.Fatalf("ring total = %d, want %d", ring.Total(), 8*200)
	}
}
