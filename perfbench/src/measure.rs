//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics), each with its output checks.

use std::time::{Duration, Instant};

use row_common::persist::fnv1a;
use row_common::stats::geomean;

use crate::report::{hist_quantile, median, peak_rss_mib, percentile, ratio, Metrics, SimAgg};
use crate::traced::LayerTimes;
use crate::workloads::{
    result_digest, run_cell, run_cell_profiled, run_litmus, setup_once, trace_cell, trace_litmus,
    units, Scale, Units, Workload, ROW_FWD,
};

/// Set-up is repeated at least this often and until [`SETUP_TARGET`] has
/// been spent; `setup_s` is the median. A `litmus` set-up takes well under
/// a millisecond, so it gets thousands of repeats spread over the target.
const SETUP_MIN_REPS: usize = 5;
const SETUP_TARGET: Duration = Duration::from_millis(1500);

/// Cycles of the paper's headline cells at seed 42 and 20k instructions
/// per core (`results/BENCH_headline.json`), checked when `paper32` runs
/// at exactly that configuration.
const HEADLINE_SEED: u64 = 42;
const HEADLINE_CYCLES: [(&str, u64); 8] = [
    ("canneal/eager", 48916),
    ("canneal/RW+Dir_U/D+fwd", 49198),
    ("barnes/eager", 103940),
    ("barnes/RW+Dir_U/D+fwd", 104722),
    ("tpcc/eager", 237059),
    ("tpcc/RW+Dir_U/D+fwd", 211865),
    ("pc/eager", 411153),
    ("pc/RW+Dir_U/D+fwd", 324326),
];

/// What a run found: counts, failures, metrics and the lines printed
/// before the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

/// The policy pair whose cycle ratio is `row_speedup`: baseline, RoW.
fn speedup_pair(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::Paper32 => ("eager", ROW_FWD),
        Workload::Soak16 => ("lazy", "row"),
        Workload::Litmus => ("lazy", "row"),
    }
}

/// Geomean over groups (benchmarks, kernels, tests) of baseline cycles
/// over RoW cycles.
fn row_speedup(rows: &[(String, &str, u64)], base: &str, row: &str) -> f64 {
    let mut groups: Vec<&str> = Vec::new();
    for (g, _, _) in rows {
        if !groups.contains(&g.as_str()) {
            groups.push(g);
        }
    }
    let sum = |g: &str, p: &str| -> u64 {
        rows.iter()
            .filter(|(rg, rp, _)| rg == g && *rp == p)
            .map(|r| r.2)
            .sum()
    };
    let ratios: Vec<f64> = groups
        .iter()
        .map(|g| ratio(sum(g, base) as f64, sum(g, row) as f64))
        .collect();
    geomean(&ratios)
}

/// Runs units round-robin: one whole pass, then more until `seconds` have
/// passed since the first started. Each repeat must reproduce its unit's
/// first digest. Returns every unit's host times, one per timed run.
fn timed_passes(
    n: usize,
    seconds: u64,
    out: &mut Outcome,
    mut run: impl FnMut(usize, bool) -> Result<(u64, f64), String>,
) -> Vec<Vec<f64>> {
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut walls = vec![Vec::new(); n];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut k = 0;
    while k < n || Instant::now() < deadline {
        let i = k % n;
        out.attempted += 1;
        match run(i, k < n) {
            Ok((digest, wall)) => match first[i] {
                Some(d) if d != digest => {
                    out.fail(format!("unit {i}: a repeat simulated differently"))
                }
                _ => {
                    first[i] = Some(digest);
                    walls[i].push(wall);
                }
            },
            Err(e) => out.fail(e),
        }
        k += 1;
    }
    walls
}

/// `setup_s`: the median of repeated set-ups.
fn setup_metric(units: &Units, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS || t0.elapsed() < SETUP_TARGET {
        samples.push(setup_once(units).as_secs_f64());
    }
    out.notes.push(format!(
        "setup: median of {} set-ups of every machine configuration",
        samples.len()
    ));
    out.metrics.set("setup_s", median(&samples));
}

/// Host-speed figures from each unit's median host time: `host_kips`,
/// `runs_per_s`, `run_p50_ms`, `run_p99_ms`. The percentiles are over
/// units, one value each, so the mix behind them does not depend on how
/// far the last pass got.
fn host_figures(walls: &[Vec<f64>], committed: &[u64]) -> [(&'static str, f64); 4] {
    let (mut times, mut instr) = (Vec::new(), 0u64);
    for (w, c) in walls.iter().zip(committed) {
        if !w.is_empty() {
            times.push(median(w));
            instr += c;
        }
    }
    let total: f64 = times.iter().sum();
    let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    [
        ("host_kips", ratio(instr as f64, total) / 1e3),
        ("runs_per_s", ratio(ms.len() as f64, total)),
        ("run_p50_ms", percentile(&ms, 0.50)),
        ("run_p99_ms", percentile(&ms, 0.99)),
    ]
}

fn sim_metrics(agg: &SimAgg, speedup: f64, out: &mut Outcome) {
    out.metrics.set("sim_cycles", agg.cycles as f64);
    out.metrics.set("row_speedup", speedup);
    for (name, q) in [
        ("atomic_lat_p50_cycles", 0.50),
        ("atomic_lat_p99_cycles", 0.99),
    ] {
        match hist_quantile(agg.latency(), q) {
            Ok(v) => out.metrics.set(name, v),
            Err(e) => {
                out.fail(e);
                out.metrics.set(name, agg.latency().percentile(q) as f64);
            }
        }
    }
    out.notes.push(format!(
        "atomic latency: {} committed atomics, percentiles interpolated within log buckets",
        agg.latency().count()
    ));
}

/// The untraced run: end-to-end metrics.
pub fn untraced(w: Workload, seed: u64, seconds: u64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let units = units(w, seed, scale);
    setup_metric(&units, &mut out);
    let (base, row) = speedup_pair(w);
    let mut agg = SimAgg::default();
    let mut rows = Vec::new();
    let (walls, committed) = match &units {
        Units::Cells(cells) => {
            let mut committed = vec![0; cells.len()];
            let walls = timed_passes(cells.len(), seconds, &mut out, |i, first| {
                let c = &cells[i];
                let run = run_cell(c).map_err(|e| format!("{}: {e}", c.label))?;
                if first {
                    committed[i] = run.result.total.committed;
                    agg.add_result(&run.result);
                    rows.push((c.group.clone(), c.policy, run.result.cycles));
                }
                Ok((run.digest(), run.wall))
            });
            if w == Workload::Paper32 && seed == HEADLINE_SEED && scale.paper_instr == 20_000 {
                check_headline(&rows, &mut out);
            }
            (walls, committed)
        }
        Units::Schedules(schedules) => {
            // The mirror runs each schedule once, untimed: it yields the
            // simulated statistics `run_schedule` does not return, and its
            // outcome and frontier hash must equal `run_schedule`'s.
            let mut expect = Vec::with_capacity(schedules.len());
            for s in schedules {
                match trace_litmus(s) {
                    Ok((o, tr)) => {
                        agg.add_result(&tr.result);
                        rows.push((s.test.name.to_string(), s.policy, tr.result.cycles));
                        expect.push(Some(o));
                    }
                    Err(e) => {
                        out.fail(format!("mirror {e}"));
                        expect.push(None);
                    }
                }
            }
            let mut mismatches = Vec::new();
            let walls = timed_passes(schedules.len(), seconds, &mut out, |i, first| {
                let (o, wall) = run_litmus(&schedules[i])?;
                if first && expect[i].as_ref() != Some(&o) {
                    mismatches.push(format!(
                        "{} vector {:?}: run_schedule gave {o:?}, mirror {:?}",
                        schedules[i].label(),
                        schedules[i].vector,
                        expect[i]
                    ));
                }
                Ok((fnv1a(format!("{o:?}").as_bytes()), wall))
            });
            for m in mismatches {
                out.fail(m);
            }
            (walls, schedules.iter().map(|s| s.instructions()).collect())
        }
    };
    // Host speed is printed, not returned: on a shared host it swings by
    // more between runs than any end-to-end bound allows. The traced run
    // reports it as per-layer metrics.
    out.notes.push(format!(
        "host: {} timed runs of {} units, each unit's median host time used",
        walls.iter().map(Vec::len).sum::<usize>(),
        walls.iter().filter(|w| !w.is_empty()).count()
    ));
    for (name, v) in host_figures(&walls, &committed) {
        out.notes.push(format!("host {name} = {v}"));
    }
    sim_metrics(&agg, row_speedup(&rows, base, row), &mut out);
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    out
}

fn check_headline(rows: &[(String, &str, u64)], out: &mut Outcome) {
    for (group, policy, cycles) in rows {
        let label = format!("{group}/{policy}");
        if let Some((_, want)) = HEADLINE_CYCLES.iter().find(|(l, _)| *l == label) {
            if cycles != want {
                out.fail(format!(
                    "{group}/{policy}: {cycles} cycles, headline has {want}"
                ));
            }
        }
    }
    out.notes
        .push("headline: seed 42 eager and RoW cells checked against the committed cycles".into());
}

/// The traced run: each unit runs untraced (the overhead baseline), under
/// `Machine::run_profiled` (cells) and through the traced mirror, which
/// must agree with both.
pub fn traced(w: Workload, seed: u64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let units = units(w, seed, scale);
    let mut agg = SimAgg::default();
    let mut total = LayerTimes::default();
    let mut spans: Vec<(String, LayerTimes)> = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut walls, mut committed) = (Vec::new(), Vec::new());
    let mut record = |label: String, t: &LayerTimes| {
        total.merge(t);
        match spans.iter_mut().find(|(l, _)| *l == label) {
            Some((_, s)) => s.merge(t),
            None => spans.push((label, *t)),
        }
    };
    match &units {
        Units::Cells(cells) => {
            for c in cells {
                out.attempted += 1;
                let checked = (|| {
                    let base = run_cell(c)?;
                    let prof = run_cell_profiled(c)?;
                    let tr = trace_cell(c)?;
                    let t = &tr.machine.times;
                    let got = (t.ticks, t.events, t.steps);
                    let want = (prof.cycles, prof.events, prof.core_steps);
                    if got != want || tr.result.cycles != prof.result_cycles {
                        return Err(format!(
                            "traced (cycles, events, steps) {got:?} != run_profiled {want:?}"
                        ));
                    }
                    if result_digest(&tr.result, &tr.ckpt_hashes) != base.digest() {
                        return Err(
                            "traced result or checkpoints differ from the untraced run".into()
                        );
                    }
                    Ok((base, tr))
                })();
                match checked {
                    Ok((base, tr)) => {
                        untraced_s += base.wall;
                        walls.push(vec![base.wall]);
                        committed.push(base.result.total.committed);
                        let t = &tr.machine.times;
                        traced_s += (t.wall - t.streams - t.new).as_secs_f64();
                        agg.add_result(&tr.result);
                        agg.add_memory(tr.machine.memory());
                        record(c.label.clone(), t);
                    }
                    Err(e) => out.fail(format!("{}: {e}", c.label)),
                }
            }
        }
        Units::Schedules(schedules) => {
            for s in schedules {
                out.attempted += 1;
                let checked = (|| {
                    let (o, wall) = run_litmus(s)?;
                    let (ot, tr) = trace_litmus(s)?;
                    if o != ot {
                        return Err(format!("mirror gave {ot:?}, run_schedule {o:?}"));
                    }
                    Ok((wall, tr))
                })();
                match checked {
                    Ok((wall, tr)) => {
                        untraced_s += wall;
                        walls.push(vec![wall]);
                        committed.push(s.instructions());
                        traced_s += tr.machine.times.wall.as_secs_f64();
                        agg.add_result(&tr.result);
                        agg.add_memory(tr.machine.memory());
                        record(s.label(), &tr.machine.times);
                    }
                    Err(e) => out.fail(format!("{} vector {:?}: {e}", s.label(), s.vector)),
                }
            }
        }
    }
    for (name, v) in host_figures(&walls, &committed) {
        out.metrics.set(name, v);
    }
    layer_metrics(&total, &agg, &mut out);
    out.metrics
        .set("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
    out.notes.push(format!(
        "trace overhead: traced {traced_s:.3} s vs untraced {untraced_s:.3} s (set-up excluded for cells)"
    ));
    for (label, t) in &spans {
        out.notes.push(span_line(label, t));
    }
    out.notes.push(span_line("total", &total));
    out
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One line of the span table: a unit's root span and its layers' shares.
fn span_line(label: &str, t: &LayerTimes) -> String {
    let w = secs(t.wall);
    let share = |d: Duration| 100.0 * ratio(secs(d), w);
    format!(
        "span {label:<24} wall {w:8.4} s  cpu {:5.1}%  mem {:5.1}%  check {:5.1}%  oracle {:5.1}%  ckpt+hash {:5.1}%  new+streams {:5.1}%  loop {:5.1}%",
        share(t.step + t.event),
        share(t.tick),
        share(t.sweep),
        share(t.observe + t.finish),
        share(t.checkpoint + t.hash),
        share(t.new + t.streams),
        share(t.loop_self()),
    )
}

fn layer_metrics(t: &LayerTimes, agg: &SimAgg, out: &mut Outcome) {
    let wall = secs(t.wall);
    let m = &mut out.metrics;
    m.set("cpu.step_s", secs(t.step));
    m.set("cpu.steps", t.steps as f64);
    m.set("cpu.step_ns", ratio(secs(t.step) * 1e9, t.steps as f64));
    m.set("cpu.event_s", secs(t.event));
    m.set(
        "cpu.awake_frac",
        ratio(t.steps as f64, t.active_core_cycles as f64),
    );
    m.set("cpu.share", ratio(secs(t.step + t.event), wall));
    m.set("mem.tick_s", secs(t.tick));
    m.set("mem.tick_ns", ratio(secs(t.tick) * 1e9, t.ticks as f64));
    m.set("mem.events", t.events as f64);
    m.set("mem.share", ratio(secs(t.tick), wall));
    m.set("sim.checkpoint_s", secs(t.checkpoint));
    m.set("sim.hash_s", secs(t.hash));
    m.set("sim.checkpoints", t.checkpoints as f64);
    m.set(
        "sim.checkpoint_kib",
        ratio(t.checkpoint_bytes as f64, t.checkpoints as f64) / 1024.0,
    );
    m.set("sim.new_s", secs(t.new));
    m.set("workloads.streams_s", secs(t.streams));
    m.set("sim.loop_self_s", secs(t.loop_self()));
    m.set(
        "sim.share",
        ratio(secs(t.checkpoint + t.hash + t.new + t.loop_self()), wall),
    );
    m.set("workloads.share", ratio(secs(t.streams), wall));
    m.set("check.sweep_s", secs(t.sweep));
    m.set("check.sweeps", t.sweeps as f64);
    m.set("check.share", ratio(secs(t.sweep), wall));
    m.set("oracle.observe_s", secs(t.observe));
    m.set("oracle.records", t.records as f64);
    m.set("oracle.finish_s", secs(t.finish));
    m.set("oracle.share", ratio(secs(t.observe + t.finish), wall));
    let b = agg.breakdown();
    m.set(
        "cpu.atomic_dispatch_to_issue_cycles",
        b.dispatch_to_issue.mean(),
    );
    m.set("cpu.atomic_issue_to_lock_cycles", b.issue_to_lock.mean());
    m.set("cpu.atomic_lock_to_unlock_cycles", b.lock_to_unlock.mean());
    let c = &agg.core;
    m.set("cpu.squashes", (c.violations + c.inv_squashes) as f64);
    m.set("cpu.deadlock_breaks", c.deadlock_breaks as f64);
    m.set(
        "row.lazy_frac",
        ratio(c.atomics_lazy as f64, c.atomics as f64),
    );
    m.set(
        "row.accuracy",
        if agg.accuracy.total() == 0 {
            0.0
        } else {
            agg.accuracy.accuracy()
        },
    );
    m.set("row.locality_overrides", c.locality_overrides as f64);
    m.set(
        "mem.l1_hit_frac",
        ratio(agg.l1_hits as f64, agg.cache_accesses as f64),
    );
    m.set("mem.miss_latency_cycles", agg.miss_latency.mean());
    m.set(
        "mem.remote_fill_frac",
        ratio(
            agg.remote_fills as f64,
            (agg.remote_fills + agg.home_fills) as f64,
        ),
    );
    m.set(
        "mem.dir_blocked_mean",
        ratio(t.blocked_sum as f64, t.blocked_samples as f64),
    );
    m.set("noc.messages", agg.noc_messages as f64);
    m.set("noc.flit_hops", agg.noc_flit_hops as f64);
    m.set("noc.latency_cycles", agg.noc_latency.mean());
    m.set("mem.transport_retries", agg.transport.retries as f64);
    m.set(
        "mem.transport_delivered_frac",
        if agg.transport.sent == 0 {
            1.0
        } else {
            agg.transport.delivered as f64 / agg.transport.sent as f64
        },
    );
    m.set("trace.sample_s", secs(t.sample));
    let layers = t.children() + t.loop_self();
    out.notes.push(format!(
        "accounting: layer spans {:.4} s + loop self {:.4} s = {:.4} s of {:.4} s traced wall",
        secs(t.children()),
        secs(t.loop_self()),
        secs(layers),
        wall
    ));
}
