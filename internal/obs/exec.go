package obs

import "strconv"

// Metric family names published by the execution and optimizer layers.
// Per-side series carry a `side="1|2"` label. The series are live: they
// follow every execution a registry sees, pilot and abandoned-plan work
// included. A run's own outcome is its Result, not a series.
const (
	MetricDocsProcessed  = "joinopt_docs_processed_total"
	MetricDocsRetrieved  = "joinopt_docs_retrieved_total"
	MetricDocsFiltered   = "joinopt_docs_filtered_total"
	MetricQueries        = "joinopt_queries_total"
	MetricRetries        = "joinopt_retries_total"
	MetricDocsFailed     = "joinopt_docs_failed_total"
	MetricFaultsInjected = "joinopt_faults_injected_total"
	MetricTuplesGood     = "joinopt_tuples_good"
	MetricTuplesBad      = "joinopt_tuples_bad"
	MetricSteps          = "joinopt_steps_total"
	MetricStepTime       = "joinopt_step_model_time"
	MetricModelTime      = "joinopt_model_time"
	MetricQueueDepth     = "joinopt_zgjn_queue_depth"
	MetricCacheHits      = "joinopt_extract_cache_hits_total"
	MetricCacheMisses    = "joinopt_extract_cache_misses_total"
	MetricCacheEvictions = "joinopt_extract_cache_evictions_total"

	MetricDecisions      = "joinopt_plan_decisions_total"
	MetricSwitches       = "joinopt_plan_switches_total"
	MetricCheckpoints    = "joinopt_checkpoints_total"
	MetricCheckpointErrs = "joinopt_checkpoint_errors_total"
	MetricPhaseModelTime = "joinopt_phase_model_time"
	MetricPhaseWallSecs  = "joinopt_phase_wall_seconds"

	// Durable-layer series: jobs recovered across a daemon restart (by how —
	// requeued, resumed, completed-result served) and durable-store failures
	// absorbed by degrading to memory-only operation (by op — append, sync,
	// snapshot, cache, replay).
	MetricJobsRecovered = "joinopt_jobs_recovered_total"
	MetricDurableErrs   = "joinopt_durable_errors_total"
)

// sideSeries renders `family{side="i+1"}` (side is 0-based internally,
// 1-based in every exported name, matching the paper's D1/D2).
func sideSeries(family string, side int) string {
	return family + `{side="` + strconv.Itoa(side+1) + `"}`
}

// stepTimeBounds bucket per-step cost-model time: a step spans one document
// (~tR+tE) up to a whole query's worth of inner documents.
var stepTimeBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// ExecMetrics is the pre-resolved per-side metric bundle threaded through
// join executors, mirroring every State counter as it changes. Resolving
// series once up front keeps the hot path to pure atomic operations; a nil
// *ExecMetrics (from a nil registry) makes every method a no-op.
type ExecMetrics struct {
	processed  [2]*Counter
	retrieved  [2]*Counter
	filtered   [2]*Counter
	queries    [2]*Counter
	retries    [2]*Counter
	failed     [2]*Counter
	faults     [2]*Counter
	queueDepth [2]*Gauge
	cacheHits  [2]*Counter
	cacheMiss  [2]*Counter
	cacheEvict *Counter
	good, bad  *Gauge
	modelTime  *Gauge
	steps      map[string]*Counter
	stepTime   *Histogram
}

// NewExecMetrics resolves the execution metric bundle against r (nil
// registry → nil bundle → all no-ops). Repeated calls against the same
// registry share the same underlying series.
func NewExecMetrics(r *Registry) *ExecMetrics {
	if r == nil {
		return nil
	}
	r.Describe(MetricDocsProcessed, "documents run through the IE system")
	r.Describe(MetricDocsRetrieved, "documents retrieved from the databases")
	r.Describe(MetricDocsFiltered, "documents rejected by the FS classifier")
	r.Describe(MetricQueries, "keyword queries issued")
	r.Describe(MetricRetries, "transient substrate failures retried")
	r.Describe(MetricDocsFailed, "documents lost after exhausted retries")
	r.Describe(MetricFaultsInjected, "faults fired by the injection layer")
	r.Describe(MetricTuplesGood, "good join pairs in the current output")
	r.Describe(MetricTuplesBad, "bad join pairs in the current output")
	r.Describe(MetricSteps, "executor steps completed")
	r.Describe(MetricStepTime, "cost-model time per executor step")
	r.Describe(MetricModelTime, "cost-model time of the current execution")
	r.Describe(MetricQueueDepth, "pending zig-zag query values")
	r.Describe(MetricCacheHits, "extraction cache hits (re-extractions made free)")
	r.Describe(MetricCacheMisses, "extraction cache misses (full extraction charged)")
	r.Describe(MetricCacheEvictions, "extraction cache entries evicted at the byte bound")
	m := &ExecMetrics{
		good:       r.Gauge(MetricTuplesGood),
		bad:        r.Gauge(MetricTuplesBad),
		modelTime:  r.Gauge(MetricModelTime),
		stepTime:   r.Histogram(MetricStepTime, stepTimeBounds),
		steps:      map[string]*Counter{},
		cacheEvict: r.Counter(MetricCacheEvictions),
	}
	for _, alg := range []string{"IDJN", "OIJN", "ZGJN"} {
		m.steps[alg] = r.Counter(MetricSteps + `{alg="` + alg + `"}`)
	}
	for side := 0; side < 2; side++ {
		m.processed[side] = r.Counter(sideSeries(MetricDocsProcessed, side))
		m.retrieved[side] = r.Counter(sideSeries(MetricDocsRetrieved, side))
		m.filtered[side] = r.Counter(sideSeries(MetricDocsFiltered, side))
		m.queries[side] = r.Counter(sideSeries(MetricQueries, side))
		m.retries[side] = r.Counter(sideSeries(MetricRetries, side))
		m.failed[side] = r.Counter(sideSeries(MetricDocsFailed, side))
		m.faults[side] = r.Counter(sideSeries(MetricFaultsInjected, side))
		m.queueDepth[side] = r.Gauge(sideSeries(MetricQueueDepth, side))
		m.cacheHits[side] = r.Counter(sideSeries(MetricCacheHits, side))
		m.cacheMiss[side] = r.Counter(sideSeries(MetricCacheMisses, side))
	}
	return m
}

// Processed counts one document run through side's IE system.
func (m *ExecMetrics) Processed(side int) {
	if m != nil {
		m.processed[side].Inc()
	}
}

// Retrieved counts n documents retrieved on side.
func (m *ExecMetrics) Retrieved(side int, n int) {
	if m != nil && n != 0 {
		m.retrieved[side].Add(int64(n))
	}
}

// Filtered counts n documents rejected by side's FS classifier.
func (m *ExecMetrics) Filtered(side int, n int) {
	if m != nil && n != 0 {
		m.filtered[side].Add(int64(n))
	}
}

// Queries counts n keyword queries issued on side.
func (m *ExecMetrics) Queries(side int, n int) {
	if m != nil && n != 0 {
		m.queries[side].Add(int64(n))
	}
}

// Retry counts one retried substrate failure on side.
func (m *ExecMetrics) Retry(side int) {
	if m != nil {
		m.retries[side].Inc()
	}
}

// Failed counts one document lost on side.
func (m *ExecMetrics) Failed(side int) {
	if m != nil {
		m.failed[side].Inc()
	}
}

// Fault counts one injected fault observed on side.
func (m *ExecMetrics) Fault(side int) {
	if m != nil {
		m.faults[side].Inc()
	}
}

// Quality publishes the current output composition.
func (m *ExecMetrics) Quality(good, bad int) {
	if m != nil {
		m.good.Set(float64(good))
		m.bad.Set(float64(bad))
	}
}

// StepDone records one completed executor step: the per-algorithm step
// counter, the per-step model-time histogram, and the live model-time gauge.
func (m *ExecMetrics) StepDone(alg string, at, dt float64) {
	if m == nil {
		return
	}
	m.steps[alg].Inc()
	m.stepTime.Observe(dt)
	m.modelTime.Set(at)
}

// CacheHit counts one extraction-cache hit on side.
func (m *ExecMetrics) CacheHit(side int) {
	if m != nil {
		m.cacheHits[side].Inc()
	}
}

// CacheMiss counts one extraction-cache miss on side.
func (m *ExecMetrics) CacheMiss(side int) {
	if m != nil {
		m.cacheMiss[side].Inc()
	}
}

// CacheEvict counts n extraction-cache evictions.
func (m *ExecMetrics) CacheEvict(n int) {
	if m != nil && n != 0 {
		m.cacheEvict.Add(int64(n))
	}
}

// QueueDepth publishes side's pending zig-zag query count.
func (m *ExecMetrics) QueueDepth(side, depth int) {
	if m != nil {
		m.queueDepth[side].Set(float64(depth))
	}
}

// OptMetrics is the optimizer-level metric bundle: plan decisions, adaptive
// checkpoints, and per-phase timings. Nil-safe like ExecMetrics.
type OptMetrics struct {
	r           *Registry
	decisions   *Counter
	switches    *Counter
	checkpoints *Counter
	ckErrs      *Counter
}

// NewOptMetrics resolves the optimizer metric bundle against r.
func NewOptMetrics(r *Registry) *OptMetrics {
	if r == nil {
		return nil
	}
	r.Describe(MetricDecisions, "optimizer plan decisions")
	r.Describe(MetricSwitches, "adaptive plan switches")
	r.Describe(MetricCheckpoints, "adaptive re-optimization checkpoints")
	r.Describe(MetricCheckpointErrs, "non-fatal optimizer failures at checkpoints")
	r.Describe(MetricPhaseModelTime, "cost-model time spent per protocol phase")
	r.Describe(MetricPhaseWallSecs, "wall-clock seconds spent per protocol phase")
	return &OptMetrics{
		r:           r,
		decisions:   r.Counter(MetricDecisions),
		switches:    r.Counter(MetricSwitches),
		checkpoints: r.Counter(MetricCheckpoints),
		ckErrs:      r.Counter(MetricCheckpointErrs),
	}
}

// Decision counts one plan decision; switched marks it a plan switch.
func (m *OptMetrics) Decision(switched bool) {
	if m == nil {
		return
	}
	m.decisions.Inc()
	if switched {
		m.switches.Inc()
	}
}

// Checkpoint counts one adaptive re-optimization checkpoint.
func (m *OptMetrics) Checkpoint() {
	if m != nil {
		m.checkpoints.Inc()
	}
}

// CheckpointErr counts one non-fatal checkpoint optimization failure.
func (m *OptMetrics) CheckpointErr() {
	if m != nil {
		m.ckErrs.Inc()
	}
}

// Phase publishes one protocol phase's cost-model time and wall-clock
// duration (accumulated over a run's repeated visits to the phase).
func (m *OptMetrics) Phase(phase string, modelTime, wallSeconds float64) {
	if m == nil {
		return
	}
	m.r.Gauge(MetricPhaseModelTime + `{phase="` + phase + `"}`).Set(modelTime)
	m.r.Gauge(MetricPhaseWallSecs + `{phase="` + phase + `"}`).Add(wallSeconds)
}
