// Observability: attach a trace and a metrics registry to a run and inspect
// what the executors, the fault injectors, and the adaptive optimizer did.
// The trace captures structured events (plan decisions, per-step progress,
// retries, injected faults, checkpoints) stamped with cost-model time; the
// metrics registry keeps live counters and gauges in Prometheus text format.
//
//	go run ./examples/observability
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"joinopt"
)

func main() {
	task, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 1500, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	// Make the run eventful: a small injected fault rate exercises the
	// retry path, so the trace shows fault and retry spans too.
	task.Faults, err = joinopt.ParseFaultProfile("rate=0.02,seed=7")
	if err != nil {
		log.Fatal(err)
	}

	// A ring sink keeps the last N events in memory — cheap enough to leave
	// on. CreateTraceFile streams NDJSON to disk instead (see cmd/joinopt's
	// -trace flag).
	ring := joinopt.NewRingSink(64)
	trace := joinopt.NewTrace(ring)
	metrics := joinopt.NewMetrics()

	req := joinopt.Requirement{TauG: 16, TauB: 160}
	res, err := task.Run(context.Background(), req,
		joinopt.WithTracer(trace), joinopt.WithMetrics(metrics))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: plan=%s good=%d bad=%d time=%.0f\n\n",
		res.Outcome.Plan, res.Outcome.GoodTuples, res.Outcome.BadTuples, res.Outcome.Time)

	// The ring holds the tail of the event stream, oldest first.
	events := ring.Events()
	fmt.Printf("trace: %d events total, showing the last %d:\n", ring.Total(), min(8, len(events)))
	for _, ev := range events[max(0, len(events)-8):] {
		fmt.Printf("  t=%8.1f  %-16s side=%d %v\n", ev.T, ev.Kind, ev.Side, ev.Attrs)
	}

	// The registry snapshot: live joinopt_*_total counters mirror execution,
	// the adaptive pilot included; the run's outcome is res above.
	fmt.Println("\nmetrics (Prometheus text format):")
	if err := metrics.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
