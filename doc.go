// Package repro is a from-scratch Go reproduction of Skadron & Clark,
// "Design Issues and Tradeoffs for Write Buffers" (HPCA 1997).
//
// The repository contains an instruction-level timing simulator for the
// paper's machine model (internal/sim), the coalescing write buffer that is
// the paper's subject (internal/core), set-associative cache models
// (internal/cache), a 17-benchmark SPEC92-like workload suite
// (internal/workload), and an experiment harness that regenerates every
// table and figure of the paper's evaluation (internal/experiment).
//
// An observability layer spans those packages: internal/metrics is a
// lightweight registry of atomic counters, gauges, and log2-bucketed
// histograms with snapshot-and-diff semantics and Prometheus text export;
// sim.Machine.PublishMetrics folds a finished run's stall, occupancy, and
// retirement-latency statistics into such a registry; and
// experiment.Options carries the Progress callback (live sweep reporting
// via experiment.ProgressReporter) and the Metrics registry that
// experiment.RunMatrixCtx feeds per-job throughput into.  Every matrix run
// and every registered experiment's Run returns its failure as an error.
//
// On top of the harness sits a design-space search subsystem
// (internal/explore): a Space enumerates legal machines, strategies spend a
// cycle-exact simulation budget (exhaustively, randomly, or guided by the
// analytic Markov model in internal/analytic), and results reduce to Pareto
// frontiers over CPI overhead versus buffer area.  See docs/EXPLORATION.md.
//
// Entry points:
//
//	cmd/wbexp     — regenerate any table or figure, with live progress (wbexp -exp fig5)
//	cmd/wbsim     — run one benchmark on one configuration
//	cmd/wbtrace   — inspect or record benchmark reference streams
//	cmd/wbcompare — A/B two configurations across the suite
//	cmd/wbmodel   — query the analytic buffer model
//	cmd/wbserve   — serve simulations over HTTP (JSON API, /metrics, pprof)
//	cmd/wbopt     — search the design space for Pareto-optimal buffers
//	examples/     — runnable demos of the library API
//
// bench_test.go in this directory holds one testing.B benchmark per paper
// item, so `go test -bench=.` sweeps the whole evaluation.
//
// See docs/ARCHITECTURE.md for the package map and data flow, DESIGN.md
// for the system inventory and the per-experiment index, and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
