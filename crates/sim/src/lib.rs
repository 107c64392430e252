//! Multicore simulation orchestration and the experiment runner.
//!
//! * [`machine`] — [`Machine`]: N cores + the shared memory system stepped
//!   to completion, producing a [`RunResult`] with every metric the paper's
//!   figures need.
//! * [`experiment`] — the per-figure knobs: benchmarks × policies ×
//!   detectors × predictors × forwarding, plus the Fig. 2 microbenchmark
//!   runner and [`ExperimentConfig`] scaling (`quick` vs `paper`).
//! * [`checkpoint`] — the on-disk checkpoint container (atomic writes,
//!   magic/version/config-hash/checksum validation) backing
//!   [`Machine::checkpoint`](machine::Machine::checkpoint) and crash-resilient
//!   sweeps.
//! * [`shrink`] — the failing-chaos-config shrinker: greedy knob
//!   elimination plus per-knob binary search, for minimal fault repros.
//! * [`sweep`] — the declarative sweep engine: each figure as a
//!   [`Sweep`] of `(benchmark × variant × seed)` [`Job`]s executed by a
//!   scoped-thread worker pool with deterministic job-order aggregation,
//!   timeout retry, incremental `BENCH_<figure>.json` persistence
//!   ([`FigureResults`]) and fingerprint-matched resume.
//! * [`fuzz`] — the coverage-guided protocol-schedule fuzzer behind
//!   `norush fuzz`: delay-burst/chaos genomes mutated against the
//!   transition-coverage map, deterministic generation batches over the
//!   sweep worker pool, schedule minimization and soak-style triage on any
//!   violation, and the `norush-fuzz-v1` report.
//! * [`explore`] — the litmus conformance runner and bounded-exhaustive
//!   schedule explorer behind `norush litmus`/`norush explore`: DFS over
//!   message-delivery and atomic-commit decision points with partial-order
//!   reduction and state-hash dedup, checking declared forbidden outcomes
//!   unreachable and allowed outcomes witnessed (`norush-litmus-v1`).
//! * [`soak`] — the phased lock-service soak supervisor behind
//!   `norush soak`: rotating kernels, escalating chaos, per-cell cycle and
//!   whole-soak wall budgets, checkpointed slices, online checker armed,
//!   triage on the first violation, and the `norush-soak-v1` report.
//! * [`triage`] — the shared failure-triage bundle writers (`--repro-dir`
//!   rotation, failure/journal-tail/checkpoint files, chaos shrink report)
//!   used by `run`, `soak`, `fuzz`, and `explore`.
//!
//! # Example
//!
//! ```no_run
//! use row_sim::{run_eager, run_lazy, ExperimentConfig};
//! use row_workloads::Benchmark;
//!
//! let exp = ExperimentConfig::quick();
//! let eager = run_eager(Benchmark::Pc, &exp)?;
//! let lazy = run_lazy(Benchmark::Pc, &exp)?;
//! println!("pc: lazy/eager = {:.2}", lazy.cycles as f64 / eager.cycles as f64);
//! # Ok::<(), row_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiment;
pub mod explore;
pub mod fuzz;
pub mod machine;
pub mod shrink;
pub mod soak;
pub mod sweep;
pub mod triage;

pub use experiment::{
    bench_stream, bench_streams, microbench_cycle_limit, run_benchmark, run_eager, run_far,
    run_lazy, run_microbench, run_microbench_result, run_row, run_row_fwd, service_streams,
    with_policy_name, ExperimentConfig, RowVariant, POLICY_NAMES,
};
pub use explore::{
    explore, fmt_outcome, run_litmus, run_schedule, run_schedule_full, schedule_from_hex,
    schedule_to_hex, ExploreOptions, ExploreReport, ExploreViolation, ScheduleRun, LITMUS_SCHEMA,
};
pub use fuzz::{
    fuzz, minimize, report_json, write_triage, Finding, FuzzOptions, FuzzOutcome, FuzzState,
    ScheduleGenome, FUZZ_SCHEMA, GEN_CANDIDATES,
};
pub use machine::{Machine, ProfileReport, RewindReport, RunResult, SimError, SimTimeout};
pub use shrink::shrink_chaos;
pub use soak::{soak, SoakEvent, SoakOutcome, SoakReport, SoakSpec, SOAK_SCHEMA};
pub use sweep::{
    available_workers, parallel_map, FigureResults, Job, JobRecord, JobSpec, Sweep,
    SweepCheckpoint, SweepError, SweepEvent, SweepOptions, Variant,
};
