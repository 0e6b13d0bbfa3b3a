// Package adcc is the public library API of the adcc reproduction of
// Yang et al., "Algorithm-Directed Crash Consistence in Non-Volatile
// Memory for HPC" (IEEE CLUSTER 2017): a deterministic simulated NVM
// platform, the paper's three study workloads and two extension
// families with their recovery protocols, the consistency-scheme engine, the experiment harness that
// regenerates every figure, and the statistical crash-injection
// campaign.
//
// It is the one supported way to drive the system from outside this
// module — the repo's own commands (adccbench, crashsim, benchdiff) and
// examples are built exclusively on it. The entry points:
//
//   - Registry: an instance-scoped namespace of consistency Schemes and
//     Workloads. NewRegistry seeds the paper's nine schemes and the
//     five built-in workloads (cg, mm, mc, stencil, kvlog);
//     RegisterScheme / RegisterWorkload add custom ones without
//     init-order coupling, and a registered workload is swept by Run,
//     RunCampaign, result stores, and adccd alike.
//
//   - Runner: configured with functional options (WithScale,
//     WithParallelism, WithSeed, WithSchemes, WithCollector,
//     WithEventSink, ...), it runs workload sweeps (Run), the paper's
//     experiments (RunExperiment), and the crash-injection campaign
//     (RunCampaign). Every method takes a context.Context: cancelling
//     it stops the dispatch of queued cases promptly and surfaces
//     ctx.Err() with the partial results.
//
//   - Event / EventSink: a deterministic streaming view of a run —
//     case started/finished, injection outcomes, progress counts —
//     emitted in case-index order, so a recorded stream is
//     byte-identical at any parallelism.
//
//   - Report: the adcc-report/v1 envelope wrapping every
//     machine-readable artifact (benchmark suites, campaign reports);
//     ReadReport decodes any of them.
//
// For single-crash-point studies the package also re-exports the
// simulated platform (NewMachine, NewEmulator), the workload
// constructors (NewCG, NewMM, NewMCRunner, ...), and the input
// generators the examples use.
//
// Determinism contract: every metric in the package derives from the
// simulated clock, every case runs on its own seeded machine, and every
// fan-out collects by case index — the same code, inputs, and scale
// produce byte-identical tables, reports, and event streams on any
// host at any parallelism.
package adcc
