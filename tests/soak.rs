//! Soak-harness pillars, exercised at the library level: the lock-service
//! workload family runs clean under every policy with the online
//! linearizability checker armed; a seeded net-zero lost+duplicated FAA —
//! invisible to every end-state check — is caught per-operation; a
//! mid-soak checkpoint/restore preserves the checker's state bit-exactly;
//! and the `norush soak` supervisor ([`norush::sim::soak`]) reports clean
//! soaks deterministically and triages a failing one into its repro dir.

use std::path::PathBuf;

use norush::common::config::{AtomicPolicy, RowConfig};
use norush::cpu::instr::InstrStream;
use norush::sim::soak::{report_json, SoakEvent, SoakSpec};
use norush::sim::{service_streams, soak, Machine, SimError};
use norush::workloads::{LockServiceConfig, ServiceKernel};
use norush::SystemConfig;

const CORES: usize = 4;
const SEED: u64 = 42;

fn service_cfg(kernel: ServiceKernel) -> LockServiceConfig {
    let mut cfg = LockServiceConfig::soak(kernel);
    cfg.ops_per_thread = 120;
    cfg
}

fn streams(cfg: LockServiceConfig) -> Vec<Box<dyn InstrStream>> {
    service_streams(cfg, CORES, SEED)
}

fn online_sys(policy: AtomicPolicy) -> SystemConfig {
    let mut sys = SystemConfig::small(CORES).with_policy(policy);
    sys.check.oracle_online = true;
    sys.check.invariant_every = Some(4096);
    sys
}

fn run_clean(policy: AtomicPolicy, kernel: ServiceKernel) -> (u64, u64) {
    let sys = online_sys(policy);
    let mut m = Machine::new(&sys, streams(service_cfg(kernel)));
    let r = m.run(50_000_000).expect("clean lock-service run drains");
    assert!(r.total.atomics > 0, "service issues atomics");
    assert_eq!(
        r.total.atomic_latency.count(),
        r.total.atomics,
        "every atomic contributes one latency sample"
    );
    let checker = m.online_checker().expect("online checker armed");
    assert_eq!(checker.rmws(), r.total.atomics, "checker saw every RMW");
    (r.cycles, r.total.atomics)
}

#[test]
fn lock_service_clean_under_every_policy_with_online_checker() {
    for policy in [
        AtomicPolicy::Eager,
        AtomicPolicy::Lazy,
        AtomicPolicy::Row(RowConfig::default()),
    ] {
        for kernel in ServiceKernel::ALL {
            run_clean(policy, kernel);
        }
    }
}

/// The injected bug loses one FAA (journaled, never applied) and
/// double-applies the next FAA on the same word (journaled once): the final
/// memory state and the per-core journal counts are both net-zero, so a run
/// without any checker completes silently.
#[test]
fn net_zero_faa_bug_is_invisible_to_end_state() {
    let sys = SystemConfig::small(CORES).with_policy(AtomicPolicy::Lazy);
    let mut m = Machine::new(&sys, streams(service_cfg(ServiceKernel::Counter)));
    m.memory_mut().inject_net_zero_faa_for_test(50);
    let r = m.run(50_000_000).expect("end-state-blind run completes");
    assert!(r.total.atomics > 0);
}

#[test]
fn net_zero_faa_bug_is_caught_per_operation_by_online_checker() {
    let (clean_cycles, _) = run_clean(AtomicPolicy::Lazy, ServiceKernel::Counter);

    let sys = online_sys(AtomicPolicy::Lazy);
    let mut m = Machine::new(&sys, streams(service_cfg(ServiceKernel::Counter)));
    m.memory_mut().inject_net_zero_faa_for_test(50);
    let err = m.run(50_000_000).expect_err("online checker must object");
    assert!(
        matches!(err, SimError::Oracle(_)),
        "expected an oracle mismatch, got: {err}"
    );
    assert!(
        m.now().raw() < clean_cycles,
        "violation detected mid-run (at cycle {}), not at the end ({})",
        m.now().raw(),
        clean_cycles
    );
}

/// Checkpoint mid-soak with the online checker armed, restore into a fresh
/// machine, and finish both: results agree and the final images (which embed
/// the checker's golden words, counters, and journal tail) are byte-equal.
#[test]
fn mid_soak_checkpoint_restore_preserves_checker_state_bit_exactly() {
    let sys = online_sys(AtomicPolicy::Row(RowConfig::default()));
    let cfg = service_cfg(ServiceKernel::MpmcQueue);
    let mut a = Machine::new(&sys, streams(cfg));
    assert!(
        a.run_for(8_000).expect("no violation").is_none(),
        "workload must still be in flight at the snapshot point"
    );
    assert!(
        a.online_checker().expect("armed").ops_seen() > 0,
        "snapshot must capture a checker with live state"
    );
    let snap = a.checkpoint().expect("checkpoint");

    let mut b = Machine::new(&sys, streams(cfg));
    b.restore(&snap).expect("restore");
    assert_eq!(
        b.checkpoint().expect("checkpoint"),
        snap,
        "re-encoding the restored machine reproduces the image bit-exactly"
    );

    let ra = a.run(50_000_000).expect("original finishes");
    let rb = b.run(50_000_000).expect("restored finishes");
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.total.atomics, rb.total.atomics);
    assert_eq!(
        a.checkpoint().expect("checkpoint"),
        b.checkpoint().expect("checkpoint"),
        "both machines end in identical states, checker included"
    );
}

/// A fresh, empty repro dir under the system temp dir.
fn repro_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norush-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create repro dir");
    dir
}

/// The CI soak-smoke shape: 2 escalating-chaos phases x {lazy, row}.
fn smoke_spec(tag: &str) -> SoakSpec {
    let mut spec = SoakSpec {
        phases: 2,
        phase_cycles: 500_000,
        repro_dir: repro_dir(tag),
        ..SoakSpec::default()
    };
    spec.svc.ops_per_thread = 150;
    spec
}

fn ckpt_files(spec: &SoakSpec) -> Vec<PathBuf> {
    std::fs::read_dir(&spec.repro_dir)
        .expect("repro dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect()
}

#[test]
fn clean_soak_passes_with_one_row_per_phase_and_policy() {
    let spec = smoke_spec("clean");
    let (mut phases, mut cells) = (Vec::new(), 0);
    let report = soak(&spec, |ev| match ev {
        SoakEvent::Phase(phase) => phases.push(phase),
        SoakEvent::Cell(_) => cells += 1,
    })
    .expect("valid spec");
    assert!(report.passed);
    assert_eq!(report.status(), "pass");
    assert_eq!(phases, [0, 1]);
    assert_eq!(cells, 4);
    assert_eq!(report.runs.len(), 4, "one row per phase x policy");
    for (i, o) in report.runs.iter().enumerate() {
        assert_eq!(o.phase, i / 2);
        assert_eq!(o.policy, ["lazy", "row"][i % 2]);
        assert_eq!((o.status, &o.error), ("ok", &None));
        assert!(o.atomics > 0);
        let latency = o.latency.as_ref().expect("finished cells carry latency");
        assert_eq!(latency.count(), o.atomics, "one latency sample per atomic");
        let (_, rmws, _) = o.checker.expect("online checker armed");
        assert_eq!(rmws, o.atomics, "checker saw every RMW");
    }
    assert!(
        ckpt_files(&spec).is_empty(),
        "finished cells remove their checkpoints"
    );
    let _ = std::fs::remove_dir_all(&spec.repro_dir);
}

#[test]
fn same_spec_gives_byte_identical_reports() {
    let spec = smoke_spec("determinism");
    let a = soak(&spec, |_| {}).expect("valid spec");
    let b = soak(&spec, |_| {}).expect("valid spec");
    let json = report_json(&spec, &a);
    assert_eq!(json, report_json(&spec, &b));
    assert!(json.contains("\"schema\": \"norush-soak-v1\""));
    assert!(json.contains("\"status\": \"pass\""));
    assert!(!json.contains("wall-budget"));
    let _ = std::fs::remove_dir_all(&spec.repro_dir);
}

#[test]
fn injected_net_zero_faa_fails_the_soak_and_leaves_a_triage_bundle() {
    let spec = SoakSpec {
        phases: 1,
        policies: vec!["lazy".into()],
        ckpt_every: 1_000,
        inject: 50,
        ..smoke_spec("inject")
    };
    let report = soak(&spec, |_| {}).expect("valid spec");
    assert!(!report.passed);
    assert_eq!(report.status(), "fail");
    let last = report.runs.last().expect("the failing cell is reported");
    assert_eq!(last.status, "violation");
    assert!(
        last.error.as_deref().is_some_and(|e| e.contains("oracle")),
        "online checker must object: {:?}",
        last.error
    );
    assert!(report_json(&spec, &report).contains("\"status\": \"fail\""));
    let failure = std::fs::read_to_string(spec.repro_dir.join("soak_failure.txt"))
        .expect("soak_failure.txt written");
    assert!(
        failure.contains("--inject-net-zero-faa 50"),
        "repro names the bug"
    );
    assert!(spec.repro_dir.join("journal_tail.txt").exists());
    assert_eq!(
        ckpt_files(&spec).len(),
        1,
        "the failing cell's latest checkpoint stays for triage"
    );
    let _ = std::fs::remove_dir_all(&spec.repro_dir);
}

#[test]
fn unknown_policy_is_a_configuration_error() {
    let spec = SoakSpec {
        policies: vec!["nonesuch".into()],
        ..SoakSpec::default()
    };
    let err = soak(&spec, |_| {}).err().expect("rejected up front");
    assert!(err.contains("nonesuch"), "{err}");
}
