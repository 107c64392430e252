//! The three workloads, each a list of units (one simulated machine run
//! apiece), and the untraced and traced ways to run a unit.
//!
//! * `paper32` — figure-regeneration traffic: {canneal, barnes, tpcc, pc}
//!   × {eager, lazy, RW+Dir_U/D+fwd} at paper scale (32 cores, Table I
//!   caches, no checks armed). Core stepping dominates host time; the
//!   cells span busy (canneal) to mostly-sleeping (pc) pipelines.
//! * `soak16` — verification-campaign traffic: lock-service cells
//!   {counter, mpmc-queue, mw-register} × {lazy, row} on 16 cores with
//!   Table I caches, lossy chaos at the soak's phase-1 rates, invariant
//!   sweep + watchdog + online oracle armed, and a checkpoint serialised
//!   every [`SOAK_CKPT_EVERY`] cycles. The memory system (directory, NoC,
//!   transport retransmits) carries far more of the host time here.
//! * `litmus` — conformance/explore traffic: `row_sim::run_schedule` over
//!   all ten litmus tests × {eager, lazy, row}, each under a decision
//!   vector drawn from the seed within `ExploreOptions::default()`'s
//!   bounds. Thousands of tiny machines: construction and the frontier
//!   snapshot dominate, not stepping.

use std::time::{Duration, Instant};

use row_common::choice;
use row_common::config::{AtomicPolicy, FaultConfig, RowConfig};
use row_common::coverage;
use row_common::persist::fnv1a;
use row_common::rng::SplitMix64;
use row_common::SystemConfig;
use row_cpu::instr::{InstrStream, VecStream};
use row_sim::{
    bench_streams, run_schedule, ExperimentConfig, ExploreOptions, Machine, RowVariant, RunResult,
};
use row_workloads::litmus::{LitmusTest, OutcomeClass, Probe};
use row_workloads::{Benchmark, LockServiceConfig, LockServiceStream, ServiceKernel};

use crate::traced::TracedMachine;

/// Cycles between the checkpoints a `soak16` cell serialises.
pub const SOAK_CKPT_EVERY: u64 = 100_000;

/// Cycle budget of a `soak16` cell (`norush soak`'s default phase budget).
const SOAK_CYCLE_LIMIT: u64 = 2_000_000;

/// Cores of a `soak16` cell.
const SOAK_CORES: usize = 16;

/// Policies every litmus test runs under, each with the same vectors.
const LITMUS_POLICIES: [&str; 3] = ["eager", "lazy", "row"];

/// Which traffic mix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper32,
    Soak16,
    Litmus,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper32, Workload::Soak16, Workload::Litmus];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper32 => "paper32",
            Workload::Soak16 => "soak16",
            Workload::Litmus => "litmus",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Size knobs. [`Scale::FULL`] is what the benchmark measures; the tests
/// use [`Scale::TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Instructions per core in a `paper32` cell.
    pub paper_instr: u64,
    /// Operations per thread in a `soak16` cell.
    pub soak_ops: u64,
    /// Decision vectors per litmus test (each runs under every policy).
    pub litmus_vectors: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        paper_instr: 20_000,
        soak_ops: 200,
        litmus_vectors: 120,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        paper_instr: 600,
        soak_ops: 12,
        litmus_vectors: 2,
    };
}

/// Where a cell's instruction streams come from.
#[derive(Clone, Debug)]
enum Streams {
    Bench(Benchmark, Box<ExperimentConfig>),
    Service(LockServiceConfig, u64),
}

/// One `paper32` or `soak16` machine run.
#[derive(Clone, Debug)]
pub struct Cell {
    pub label: String,
    /// Benchmark (or kernel) name, for the speed-up pairing.
    pub group: String,
    pub policy: &'static str,
    sys: SystemConfig,
    streams: Streams,
    limit: u64,
    ckpt_every: Option<u64>,
}

impl Cell {
    fn streams(&self) -> Vec<Box<dyn InstrStream>> {
        match &self.streams {
            Streams::Bench(b, exp) => bench_streams(*b, exp),
            Streams::Service(svc, seed) => (0..SOAK_CORES)
                .map(|t| Box::new(LockServiceStream::new(*svc, t, SOAK_CORES, *seed)) as _)
                .collect(),
        }
    }

    /// A fresh machine; returns it with the set-up time (streams + new).
    fn machine(&self) -> (Machine, Duration) {
        let t0 = Instant::now();
        let m = Machine::new(&self.sys, self.streams());
        (m, t0.elapsed())
    }
}

/// One litmus run: a test under a policy and a forced decision vector.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub test: LitmusTest,
    pub policy: &'static str,
    pub vector: Vec<u8>,
    opts: ExploreOptions,
}

impl Schedule {
    pub fn label(&self) -> String {
        format!("{}/{}", self.test.name, self.policy)
    }

    /// Instructions a completed run commits: every program runs to its end.
    pub fn instructions(&self) -> u64 {
        self.test.programs.iter().map(|p| p.len() as u64).sum()
    }

    fn streams(&self) -> Vec<Box<dyn InstrStream>> {
        self.test
            .programs
            .iter()
            .map(|p| Box::new(VecStream::new(p.clone())) as _)
            .collect()
    }

    fn system(&self) -> SystemConfig {
        self.opts
            .system(self.test.cores())
            .expect("litmus policies are valid")
    }
}

/// The seeded units of a workload, in pass order.
pub enum Units {
    Cells(Vec<Cell>),
    Schedules(Vec<Schedule>),
}

pub fn units(w: Workload, seed: u64, scale: Scale) -> Units {
    match w {
        Workload::Paper32 => Units::Cells(paper32_cells(seed, scale)),
        Workload::Soak16 => Units::Cells(soak16_cells(seed, scale)),
        Workload::Litmus => Units::Schedules(litmus_schedules(seed, scale)),
    }
}

/// Benchmarks of `paper32`: canneal (busy, ~25 core steps/cycle) to pc
/// (mostly sleeping cores, ~3 steps/cycle).
pub const PAPER_BENCHES: [Benchmark; 4] = [
    Benchmark::Canneal,
    Benchmark::Barnes,
    Benchmark::Tpcc,
    Benchmark::Pc,
];

/// The RoW configuration of the paper's headline (`run_row_fwd`).
pub const ROW_FWD: &str = "RW+Dir_U/D+fwd";

fn paper32_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let mut exp = ExperimentConfig::paper();
    exp.seed = seed;
    exp.instructions = scale.paper_instr;
    let mut cells = Vec::new();
    for b in PAPER_BENCHES {
        for policy in ["eager", "lazy", ROW_FWD] {
            let sys = exp.system();
            let sys = match policy {
                "eager" => sys.with_policy(AtomicPolicy::Eager),
                "lazy" => sys.with_policy(AtomicPolicy::Lazy),
                _ => sys
                    .with_policy(AtomicPolicy::Row(
                        RowVariant::RwDirUd.config().with_locality_override(true),
                    ))
                    .with_forward_to_atomics(true),
            };
            cells.push(Cell {
                label: format!("{}/{policy}", b.name()),
                group: b.name().to_string(),
                policy,
                sys,
                streams: Streams::Bench(b, Box::new(exp)),
                limit: exp.cycle_limit,
                ckpt_every: None,
            });
        }
    }
    cells
}

fn soak16_cells(seed: u64, scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (ki, kernel) in ServiceKernel::ALL.into_iter().enumerate() {
        let cell_seed = seed.wrapping_add(ki as u64 * 0x9e37_79b9_7f4a_7c15);
        let mut exp = ExperimentConfig::paper();
        exp.cores = SOAK_CORES;
        exp.seed = cell_seed;
        exp.cycle_limit = SOAK_CYCLE_LIMIT;
        exp.check.invariant_every = Some(4_096);
        exp.check.watchdog_window = Some(2_000_000);
        exp.check.oracle_online = true;
        // `norush soak`'s phase-1 rates: base 200/200/100 ppm escalated 4x.
        exp.check.chaos = Some(FaultConfig {
            seed: cell_seed ^ 0x5eed,
            max_extra_latency: 40,
            drop_ppm: 800,
            dup_ppm: 800,
            corrupt_ppm: 400,
        });
        let svc = LockServiceConfig {
            ops_per_thread: scale.soak_ops,
            ..LockServiceConfig::soak(kernel)
        };
        for policy in ["lazy", "row"] {
            let sys = exp.system();
            let sys = if policy == "lazy" {
                sys.with_policy(AtomicPolicy::Lazy)
            } else {
                sys.with_policy(AtomicPolicy::Row(
                    RowConfig::best().with_locality_override(false),
                ))
            };
            cells.push(Cell {
                label: format!("{}/{policy}", kernel.name()),
                group: kernel.name().to_string(),
                policy,
                sys,
                streams: Streams::Service(svc, cell_seed),
                limit: SOAK_CYCLE_LIMIT,
                ckpt_every: Some(SOAK_CKPT_EVERY),
            });
        }
    }
    cells
}

/// A decision vector over the first `max_decisions` points with one to
/// `max_delays` non-default alternatives, trailing defaults trimmed.
pub fn litmus_vector(seed: u64, test: usize, k: usize, opts: &ExploreOptions) -> Vec<u8> {
    let mut rng = SplitMix64::new(
        seed ^ (test as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (k as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    let depth = opts.max_decisions as u64;
    let delays = 1 + rng.below(opts.max_delays as u64);
    let mut v = vec![0u8; opts.max_decisions];
    for _ in 0..delays {
        let at = rng.below(depth) as usize;
        v[at] = 1 + rng.below(u64::from(choice::N_ALTS) - 1) as u8;
    }
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

fn litmus_schedules(seed: u64, scale: Scale) -> Vec<Schedule> {
    let mut out = Vec::new();
    for k in 0..scale.litmus_vectors {
        for (ti, test) in LitmusTest::all().into_iter().enumerate() {
            let base = ExploreOptions::default();
            let vector = litmus_vector(seed, ti, k, &base);
            for policy in LITMUS_POLICIES {
                out.push(Schedule {
                    test: test.clone(),
                    policy,
                    vector: vector.clone(),
                    opts: ExploreOptions {
                        policy: policy.to_string(),
                        ..ExploreOptions::default()
                    },
                });
            }
        }
    }
    out
}

/// One set-up of a workload: stream construction plus `Machine::new` for
/// every cell, or for every distinct (test, policy) of `litmus`.
pub fn setup_once(units: &Units) -> Duration {
    let mut total = Duration::ZERO;
    match units {
        Units::Cells(cells) => {
            for c in cells {
                total += c.machine().1;
            }
        }
        Units::Schedules(s) => {
            let mut seen = Vec::new();
            for sch in s {
                let key = (sch.test.name, sch.policy);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let sys = sch.system();
                let t0 = Instant::now();
                let _machine = Machine::new(&sys, sch.streams());
                total += t0.elapsed();
            }
        }
    }
    total
}

/// One untraced cell run.
pub struct CellRun {
    pub result: RunResult,
    pub ckpt_hashes: Vec<u64>,
    /// Host seconds of the run, set-up excluded.
    pub wall: f64,
}

impl CellRun {
    /// fnv1a over everything simulated: the result and checkpoint hashes.
    pub fn digest(&self) -> u64 {
        result_digest(&self.result, &self.ckpt_hashes)
    }
}

pub fn result_digest(r: &RunResult, ckpt_hashes: &[u64]) -> u64 {
    fnv1a(format!("{r:?}{ckpt_hashes:?}").as_bytes())
}

/// Runs a cell through `Machine`'s public API, timed. A `soak16` cell runs
/// in `run_for` slices with a checkpoint serialised (and hashed) after
/// each, as `norush soak --checkpoint-every` does.
pub fn run_cell(cell: &Cell) -> Result<CellRun, String> {
    let (mut m, _) = cell.machine();
    let t0 = Instant::now();
    let mut hashes = Vec::new();
    let result = match cell.ckpt_every {
        None => m.run(cell.limit).map_err(|e| e.to_string())?,
        Some(every) => loop {
            let left = cell.limit.saturating_sub(m.now().raw());
            if left == 0 {
                return Err(format!("cycle budget {} exhausted", cell.limit));
            }
            if let Some(r) = m.run_for(every.min(left)).map_err(|e| e.to_string())? {
                break r;
            }
            let bytes = m.checkpoint().map_err(|e| e.to_string())?;
            hashes.push(fnv1a(&bytes));
        },
    };
    Ok(CellRun {
        result,
        ckpt_hashes: hashes,
        wall: t0.elapsed().as_secs_f64(),
    })
}

/// `Machine::run_profiled` counts for the exactness check.
pub struct Profiled {
    pub cycles: u64,
    pub events: u64,
    pub core_steps: u64,
    pub result_cycles: u64,
}

pub fn run_cell_profiled(cell: &Cell) -> Result<Profiled, String> {
    let (mut m, _) = cell.machine();
    let (r, p) = m.run_profiled(cell.limit).map_err(|e| e.to_string())?;
    Ok(Profiled {
        cycles: p.cycles,
        events: p.events,
        core_steps: p.core_steps,
        result_cycles: r.cycles,
    })
}

/// One traced run (cell or schedule): the mirror's result, its memory
/// system for the layer statistics, and the spans.
pub struct TracedRun {
    pub result: RunResult,
    pub machine: TracedMachine,
    pub ckpt_hashes: Vec<u64>,
}

/// Runs a cell through the traced mirror.
pub fn trace_cell(cell: &Cell) -> Result<TracedRun, String> {
    let t_root = Instant::now();
    let t0 = Instant::now();
    let streams = cell.streams();
    let mut m = TracedMachine::new(&cell.sys, streams, t0.elapsed());
    let mut hashes = Vec::new();
    let result = match cell.ckpt_every {
        None => m.run(cell.limit)?,
        Some(every) => loop {
            let left = cell.limit.saturating_sub(m.now().raw());
            if left == 0 {
                return Err(format!("cycle budget {} exhausted", cell.limit));
            }
            if let Some(r) = m.run_for(every.min(left))? {
                break r;
            }
            hashes.push(m.checkpoint_hash()?);
        },
    };
    m.times.wall = t_root.elapsed();
    Ok(TracedRun {
        result,
        machine: m,
        ckpt_hashes: hashes,
    })
}

/// What a litmus schedule produced.
#[derive(Clone, Debug, PartialEq)]
pub struct LitmusOut {
    pub outcome: Vec<u64>,
    pub frontier_hash: Option<u64>,
}

/// Checks a `run_schedule` result: no error, no livelock, an allowed outcome.
fn litmus_verdict(s: &Schedule, run: &row_sim::ScheduleRun) -> Result<LitmusOut, String> {
    if let Some(e) = &run.error {
        return Err(format!("{}: {e}", s.label()));
    }
    if run.timed_out {
        return Err(format!("{}: cycle budget exhausted", s.label()));
    }
    let outcome = run
        .outcome
        .clone()
        .ok_or_else(|| format!("{}: no outcome", s.label()))?;
    allowed(s, &outcome)?;
    Ok(LitmusOut {
        outcome,
        frontier_hash: run.frontier_hash,
    })
}

fn allowed(s: &Schedule, outcome: &[u64]) -> Result<(), String> {
    match s.test.classify(outcome) {
        OutcomeClass::Allowed => Ok(()),
        c => Err(format!("{}: outcome {outcome:?} is {c:?}", s.label())),
    }
}

/// One `row_sim::run_schedule` call, timed; returns the checked outcome
/// and the host seconds (machine construction included).
pub fn run_litmus(s: &Schedule) -> Result<(LitmusOut, f64), String> {
    let t0 = Instant::now();
    let run = run_schedule(&s.test, &s.opts, &s.vector)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((litmus_verdict(s, &run)?, wall))
}

/// `run_schedule_full` through the traced mirror: 1-cycle slices until the
/// forced prefix is consumed, the frontier checkpoint + fnv1a, then
/// 256-cycle slices to completion.
pub fn trace_litmus(s: &Schedule) -> Result<(LitmusOut, TracedRun), String> {
    let t_root = Instant::now();
    let t0 = Instant::now();
    let streams = s.streams();
    let mut m = TracedMachine::new(&s.system(), streams, t0.elapsed());
    for c in 0..s.test.cores() {
        m.core_mut(c).record_loads();
    }
    coverage::install();
    choice::install(s.vector.clone());
    let run = mirror_schedule(s, &mut m);
    choice::take();
    coverage::take();
    let (result, frontier) = run.map_err(|e| format!("{}: {e}", s.label()))?;
    let outcome = observe(&s.test, &mut m);
    m.times.wall = t_root.elapsed();
    allowed(s, &outcome)?;
    Ok((
        LitmusOut {
            outcome,
            frontier_hash: frontier,
        },
        TracedRun {
            result,
            machine: m,
            ckpt_hashes: Vec::new(),
        },
    ))
}

/// `run_schedule_full`'s stepping: returns the result and the frontier
/// hash, taken once the forced prefix is consumed.
fn mirror_schedule(
    s: &Schedule,
    m: &mut TracedMachine,
) -> Result<(RunResult, Option<u64>), String> {
    let mut frontier = if s.vector.is_empty() {
        Some(m.checkpoint_hash()?)
    } else {
        None
    };
    loop {
        if m.now().raw() >= s.opts.cycle_limit {
            return Err("cycle budget exhausted".into());
        }
        let step = if frontier.is_none() { 1 } else { 256 };
        let done = m.run_for(step)?;
        if frontier.is_none() && choice::consumed() >= s.vector.len() {
            frontier = Some(m.checkpoint_hash()?);
        }
        if let Some(r) = done {
            return Ok((r, frontier));
        }
    }
}

/// The explorer's outcome read-out, against the mirror.
fn observe(test: &LitmusTest, m: &mut TracedMachine) -> Vec<u64> {
    test.probes
        .iter()
        .map(|p| match *p {
            Probe::Load { core, pc } => m
                .core_mut(core)
                .load_observations()
                .iter()
                .rev()
                .find(|o| o.pc == pc)
                .map(|o| o.value)
                .unwrap_or(u64::MAX),
            Probe::Mem { addr } => m.memory().read_word(addr),
        })
        .collect()
}
