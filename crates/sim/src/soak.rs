//! Phased lock-service soak supervisor (`norush soak`).
//!
//! A soak runs the lock-service workload family ([`row_workloads::lockservice`])
//! for [`SoakSpec::phases`] phases under every policy in
//! [`SoakSpec::policies`], with the online per-operation linearizability
//! checker, the invariant sweep and the watchdog armed. Each phase rotates
//! the service kernel and escalates the lossy chaos rates; each
//! phase × policy cell runs under a cycle budget, the whole soak under a
//! wall budget, with a checkpoint written to the repro directory every
//! [`SoakSpec::ckpt_every`] cycles.
//!
//! The first violation stops the soak and is triaged into the repro
//! directory: `soak_failure.txt` with a single-phase repro command,
//! `journal_tail.txt` from the online checker, the cell's latest `.ckpt`,
//! and (when chaos was active) a shrunk `chaos_repro.txt`. The report
//! (`norush-soak-v1`, schema in `results/README.md`) is rendered by
//! [`report_json`].

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use row_common::config::FaultConfig;
use row_common::json::escape;
use row_common::stats::LogHistogram;
use row_common::SystemConfig;
use row_workloads::{LockServiceConfig, ServiceKernel};

use crate::experiment::{service_streams, with_policy_name, ExperimentConfig};
use crate::machine::{Machine, SimError};
use crate::triage;

/// Schema tag of the machine-readable soak report.
pub const SOAK_SCHEMA: &str = "norush-soak-v1";

/// Everything one soak needs. [`SoakSpec::default`] is `norush soak` with no
/// flags.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Number of phases.
    pub phases: usize,
    /// Simulated cores.
    pub cores: usize,
    /// Workload seed of phase 0 (later phases derive theirs from it).
    pub seed: u64,
    /// Policy names, each run in every phase.
    pub policies: Vec<String>,
    /// `None` rotates through [`ServiceKernel::ALL`] per phase.
    pub kernel: Option<ServiceKernel>,
    /// Workload shape shared by every phase (the kernel field is
    /// overwritten per phase).
    pub svc: LockServiceConfig,
    /// Phase 0's chaos schedule; later phases offset the seed and escalate
    /// the lossy rates.
    pub chaos: FaultConfig,
    /// Per-phase multiplier on the lossy ppm rates (phase p runs at
    /// `base * escalation^p`, capped at 50 000 ppm).
    pub escalation: f64,
    /// Cycle budget of each phase × policy cell.
    pub phase_cycles: u64,
    /// Wall-clock budget of the whole soak, in seconds.
    pub wall_secs: u64,
    /// Cycles between the checkpoints each cell writes.
    pub ckpt_every: u64,
    /// Watchdog window: a cell with no commit for this long is a stall.
    pub watchdog: u64,
    /// Where checkpoints and the triage bundle land.
    pub repro_dir: PathBuf,
    /// Test-only atomicity bug: lose the Nth FAA and double-apply the next
    /// one on the same word (0 = off). Exercises the triage pipeline.
    pub inject: u64,
}

impl Default for SoakSpec {
    fn default() -> Self {
        SoakSpec {
            phases: 3,
            cores: 4,
            seed: 42,
            policies: vec!["lazy".into(), "row".into()],
            kernel: None,
            svc: LockServiceConfig::soak(ServiceKernel::Counter),
            chaos: FaultConfig {
                seed: 1,
                max_extra_latency: 40,
                drop_ppm: 200,
                dup_ppm: 200,
                corrupt_ppm: 100,
            },
            escalation: 4.0,
            phase_cycles: 2_000_000,
            wall_secs: 600,
            ckpt_every: 250_000,
            watchdog: 2_000_000,
            repro_dir: PathBuf::from("soak_repro"),
            inject: 0,
        }
    }
}

impl SoakSpec {
    /// Checks the policy names and the workload shape.
    ///
    /// # Errors
    /// The first unknown policy or out-of-range workload knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("a soak needs at least one policy".into());
        }
        for p in &self.policies {
            self.system(p, None)?;
        }
        self.svc
            .validate()
            .map_err(|e| format!("soak workload: {e}"))
    }

    /// The service kernel phase `phase` runs.
    pub fn kernel_for(&self, phase: usize) -> ServiceKernel {
        self.kernel
            .unwrap_or(ServiceKernel::ALL[phase % ServiceKernel::ALL.len()])
    }

    /// Per-phase workload seed; phase 0 uses [`SoakSpec::seed`] verbatim, so
    /// a single-phase repro can name any phase's seed directly.
    pub fn seed_for(&self, phase: usize) -> u64 {
        self.seed.wrapping_add(phase as u64 * 0x9e37_79b9_7f4a_7c15)
    }

    /// The phase's escalated chaos schedule; `None` once every component is
    /// zeroed out (pure-functional soak, e.g. for bug-injection runs).
    pub fn chaos_for(&self, phase: usize) -> Option<FaultConfig> {
        let esc = |base: u32| -> u32 {
            let scaled = (base as f64 * self.escalation.powi(phase as i32)).round() as u64;
            scaled.min(50_000) as u32
        };
        let f = FaultConfig {
            seed: self.chaos.seed.wrapping_add(phase as u64),
            max_extra_latency: self.chaos.max_extra_latency,
            drop_ppm: esc(self.chaos.drop_ppm),
            dup_ppm: esc(self.chaos.dup_ppm),
            corrupt_ppm: esc(self.chaos.corrupt_ppm),
        };
        (f.max_extra_latency > 0 || f.lossy()).then_some(f)
    }

    fn system(&self, policy: &str, chaos: Option<FaultConfig>) -> Result<SystemConfig, String> {
        let mut exp = ExperimentConfig::quick();
        exp.cores = self.cores;
        exp.check.invariant_every = Some(4_096);
        exp.check.watchdog_window = Some(self.watchdog);
        exp.check.oracle_online = true;
        exp.check.chaos = chaos;
        with_policy_name(exp.system(), policy)
    }

    /// A fresh machine for one phase × policy cell under `chaos`, online
    /// checker armed.
    fn machine(
        &self,
        phase: usize,
        policy: &str,
        chaos: Option<FaultConfig>,
    ) -> Result<Machine, String> {
        let svc = LockServiceConfig {
            kernel: self.kernel_for(phase),
            ..self.svc
        };
        let streams = service_streams(svc, self.cores, self.seed_for(phase));
        let mut m = Machine::new(&self.system(policy, chaos)?, streams);
        if self.inject > 0 {
            m.memory_mut().inject_net_zero_faa_for_test(self.inject);
        }
        Ok(m)
    }

    /// A single-phase command replaying one phase × policy cell exactly:
    /// phase 0 with the failing phase's effective seeds, kernel, and chaos
    /// rates spelled out (`--chaos-escalation 1` keeps them unscaled).
    pub fn repro_cmd(&self, phase: usize, policy: &str, chaos: &FaultConfig) -> String {
        let mut cmd = format!(
            "norush soak --phases 1 --policies {policy} --kernel {} --cores {} --seed {} \
             --ops {} --shards {} --keys {} --zipf-theta {} --read-frac {} --mean-gap {} \
             --burst-epoch {} --burst-factor {} --phase-cycles {} --chaos {} \
             --chaos-latency {} --chaos-drop {} --chaos-dup {} --chaos-corrupt {} \
             --chaos-escalation 1",
            self.kernel_for(phase).name(),
            self.cores,
            self.seed_for(phase),
            self.svc.ops_per_thread,
            self.svc.shards,
            self.svc.keys,
            self.svc.zipf_theta,
            self.svc.read_fraction,
            self.svc.mean_gap,
            self.svc.burst_epoch_ops,
            self.svc.burst_factor,
            self.phase_cycles,
            chaos.seed,
            chaos.max_extra_latency,
            chaos.drop_ppm as f64 / 1e6,
            chaos.dup_ppm as f64 / 1e6,
            chaos.corrupt_ppm as f64 / 1e6,
        );
        if self.inject > 0 {
            cmd.push_str(&format!(" --inject-net-zero-faa {}", self.inject));
        }
        cmd
    }
}

/// One phase × policy cell of the soak report.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakOutcome {
    /// Phase index.
    pub phase: usize,
    /// Policy name.
    pub policy: String,
    /// `"ok"`, `"violation"`, or `"wall-budget"`.
    pub status: &'static str,
    /// The failure, when the cell did not finish.
    pub error: Option<String>,
    /// Cycles run (the failing cycle when the cell did not finish).
    pub cycles: u64,
    /// Instructions per cycle (0 when the cell did not finish).
    pub ipc: f64,
    /// Atomics retired (0 when the cell did not finish).
    pub atomics: u64,
    /// Atomic latencies (cycles) of a finished cell.
    pub latency: Option<LogHistogram>,
    /// Online-checker counters: (ops observed, RMWs, live words).
    pub checker: Option<(u64, u64, usize)>,
}

/// Progress of a running soak, for [`soak`]'s `on_event` callback.
pub enum SoakEvent<'a> {
    /// Phase `n` starts.
    Phase(usize),
    /// A cell ended; a violation fires this before its triage runs.
    Cell(&'a SoakOutcome),
}

/// Result of a soak: every cell that ran, in order.
pub struct SoakReport {
    /// Every cell ran clean.
    pub passed: bool,
    /// The cells, the failing one (if any) last.
    pub runs: Vec<SoakOutcome>,
}

impl SoakReport {
    /// `"pass"` or `"fail"`.
    pub fn status(&self) -> &'static str {
        if self.passed {
            "pass"
        } else {
            "fail"
        }
    }
}

/// Why a cell stopped early.
enum Stop {
    /// The machine failed (violation, stall, timeout against the phase's
    /// cycle budget, checkpoint error).
    Sim(SimError),
    /// The whole-soak wall budget ran out.
    Wall,
}

impl From<SimError> for Stop {
    fn from(e: SimError) -> Self {
        Stop::Sim(e)
    }
}

/// Runs the soak described by `spec`, calling `on_event` as phases start
/// and cells end. Stops at the first violation (after triaging it into
/// [`SoakSpec::repro_dir`]) or when the wall budget runs out.
///
/// # Errors
/// Configuration errors only (see [`SoakSpec::validate`]); simulation
/// failures are reported as failing cells.
pub fn soak(
    spec: &SoakSpec,
    mut on_event: impl FnMut(SoakEvent<'_>),
) -> Result<SoakReport, String> {
    spec.validate()?;
    let deadline = Instant::now() + Duration::from_secs(spec.wall_secs);
    let mut runs: Vec<SoakOutcome> = Vec::new();
    for phase in 0..spec.phases {
        let chaos = spec.chaos_for(phase);
        on_event(SoakEvent::Phase(phase));
        for policy in &spec.policies {
            let mut m = spec.machine(phase, policy, chaos)?;
            let ckpt = spec.repro_dir.join(format!("soak_p{phase}_{policy}.ckpt"));
            // Every slice leaves a restore point for the triage bundle and
            // re-checks the wall deadline.
            let res = if Instant::now() >= deadline {
                Err(Stop::Wall)
            } else {
                m.run_sliced(spec.phase_cycles, spec.ckpt_every, |m| {
                    let bytes = m.checkpoint()?;
                    crate::checkpoint::write_checkpoint(&ckpt, &bytes)
                        .map_err(SimError::Checkpoint)?;
                    if Instant::now() >= deadline {
                        return Err(Stop::Wall);
                    }
                    Ok(())
                })
            };
            let mut outcome = SoakOutcome {
                phase,
                policy: policy.clone(),
                status: "ok",
                error: None,
                cycles: m.now().raw(),
                ipc: 0.0,
                atomics: 0,
                latency: None,
                checker: m
                    .online_checker()
                    .map(|c| (c.ops_seen(), c.rmws(), c.live_words())),
            };
            let failure = match res {
                Ok(r) => {
                    outcome.cycles = r.cycles;
                    outcome.ipc = r.ipc();
                    outcome.atomics = r.total.atomics;
                    outcome.latency = Some(r.total.atomic_latency);
                    None
                }
                Err(Stop::Wall) => {
                    outcome.status = "wall-budget";
                    outcome.error =
                        Some(format!("wall budget exhausted at cycle {}", outcome.cycles));
                    None
                }
                Err(Stop::Sim(e)) => {
                    outcome.status = "violation";
                    outcome.error = Some(e.to_string());
                    Some(e)
                }
            };
            on_event(SoakEvent::Cell(&outcome));
            if let Some(e) = &failure {
                write_triage(spec, phase, policy, e, &m, &ckpt);
            }
            let passed = outcome.status == "ok";
            runs.push(outcome);
            if !passed {
                return Ok(SoakReport { passed, runs });
            }
            // The cell finished: its checkpoint is spent.
            std::fs::remove_file(&ckpt).ok();
        }
    }
    Ok(SoakReport { passed: true, runs })
}

/// On a cell failure: writes the triage bundle (failure description, repro
/// command, online-checker journal tail; the latest checkpoint is already
/// in the repro dir) and, when chaos was active, shrinks it to a minimal
/// repro.
fn write_triage(
    spec: &SoakSpec,
    phase: usize,
    policy: &str,
    err: &SimError,
    m: &Machine,
    ckpt: &Path,
) {
    let chaos = spec.chaos_for(phase);
    let mut desc = format!(
        "soak failure\nphase: {phase}\npolicy: {policy}\nkernel: {}\nseed: {}\ncores: {}\n",
        spec.kernel_for(phase).name(),
        spec.seed_for(phase),
        spec.cores,
    );
    match chaos {
        Some(f) => desc.push_str(&format!(
            "chaos: seed {} latency {} drop {}ppm dup {}ppm corrupt {}ppm\n",
            f.seed, f.max_extra_latency, f.drop_ppm, f.dup_ppm, f.corrupt_ppm
        )),
        None => desc.push_str("chaos: off\n"),
    }
    if spec.inject > 0 {
        desc.push_str(&format!(
            "injected net-zero FAA bug: countdown {}\n",
            spec.inject
        ));
    }
    desc.push_str(&format!(
        "checkpoint: {}\n",
        if ckpt.exists() {
            ckpt.display().to_string()
        } else {
            "none written before the failure".to_string()
        }
    ));
    let unshrunk = chaos.unwrap_or(FaultConfig {
        max_extra_latency: 0,
        ..FaultConfig::with_seed(0)
    });
    desc.push_str(&format!(
        "repro: {}\nerror:\n{err}\n",
        spec.repro_cmd(phase, policy, &unshrunk)
    ));
    triage::write_bundle(&spec.repro_dir, "soak_failure.txt", &desc, Some(m));
    let Some(initial) = chaos else {
        eprintln!("no chaos was active; nothing to shrink");
        return;
    };
    triage::shrink_and_report(
        &spec.repro_dir,
        initial,
        |min| spec.repro_cmd(phase, policy, min),
        |cand| {
            spec.machine(phase, policy, Some(*cand))
                .is_ok_and(|mut pm| pm.run(spec.phase_cycles).is_err())
        },
    );
}

/// Renders the machine-readable soak report (`norush-soak-v1`; documented
/// in `results/README.md`). Wall-clock-free, so equal soaks serialize
/// byte-identically.
pub fn report_json(spec: &SoakSpec, report: &SoakReport) -> String {
    let mut runs = String::new();
    for (i, o) in report.runs.iter().enumerate() {
        if i > 0 {
            runs.push_str(",\n");
        }
        let chaos = match spec.chaos_for(o.phase) {
            Some(f) => format!(
                "{{\"seed\": {}, \"latency\": {}, \"drop_ppm\": {}, \"dup_ppm\": {}, \
                 \"corrupt_ppm\": {}}}",
                f.seed, f.max_extra_latency, f.drop_ppm, f.dup_ppm, f.corrupt_ppm
            ),
            None => "null".to_string(),
        };
        let lat = match &o.latency {
            Some(h) => format!(
                "{{\"count\": {}, \"mean\": {:.2}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
                 \"max\": {}}}",
                h.count(),
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
                h.percentile(0.999),
                h.max()
            ),
            None => "null".to_string(),
        };
        let checker = match &o.checker {
            Some((ops, rmws, live)) => {
                format!("{{\"ops\": {ops}, \"rmws\": {rmws}, \"live_words\": {live}}}")
            }
            None => "null".to_string(),
        };
        let error = match &o.error {
            Some(e) => format!("\"{}\"", escape(e)),
            None => "null".to_string(),
        };
        runs.push_str(&format!(
            "    {{\"phase\": {}, \"kernel\": \"{}\", \"policy\": \"{}\", \"chaos\": {chaos}, \
             \"status\": \"{}\", \"cycles\": {}, \"ipc\": {:.4}, \"atomics\": {}, \
             \"latency\": {lat}, \"checker\": {checker}, \"error\": {error}}}",
            o.phase,
            spec.kernel_for(o.phase).name(),
            o.policy,
            o.status,
            o.cycles,
            o.ipc,
            o.atomics,
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"status\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"cores\": {},\n",
            "  \"phases\": {},\n",
            "  \"policies\": [{}],\n",
            "  \"phase_cycles\": {},\n",
            "  \"wall_secs\": {},\n",
            "  \"runs\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SOAK_SCHEMA,
        report.status(),
        spec.seed,
        spec.cores,
        spec.phases,
        spec.policies
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect::<Vec<_>>()
            .join(", "),
        spec.phase_cycles,
        spec.wall_secs,
        runs,
    )
}
