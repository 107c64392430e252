//! The norush benchmark: end-to-end and per-layer metrics of the
//! simulator on three workloads (`paper32`, `soak16`, `litmus`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the untraced program and prints the end-to-end
//! metrics; `--trace 1` runs every unit once more through a traced mirror
//! of the simulation loop and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 1 when a check
//! failed and 2 on bad arguments.

mod measure;
mod report;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (paper32, soak16, litmus)")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper32|soak16|litmus --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    for (k, v) in report::fingerprint() {
        println!("host {k}: {v}");
    }
    println!(
        "workload {} seed {} {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let out = if args.trace {
        measure::traced(args.workload, args.seed, Scale::FULL)
    } else {
        measure::untraced(args.workload, args.seed, args.seconds, Scale::FULL)
    };
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics.0 {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed = out.failures.len() as u64;
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_frac = {}",
        failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{}",
        report::json_line(failed == 0, out.attempted.max(1), failed, &out.metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use crate::workloads::{units, Units};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_match_benchmark_json() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {n}"
            );
            assert!(!names[..i].contains(n), "duplicate metric {n}");
        }
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            names.len(),
            "BENCHMARK.json declares a metric the benchmark does not print"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload litmus --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Litmus, 3, 2, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload litmus").is_err());
        assert!(args("--workload litmus --seed x").is_err());
        assert!(args("--workload litmus --seed 1 --trace 2").is_err());
        assert!(args("--workload litmus --seed 1 --bogus 1").is_err());
        assert!(args("--workload litmus --seed").is_err());
    }

    /// The traced mirror must reproduce `run_profiled`'s counts and the
    /// untraced results (cells), and `run_schedule`'s outcomes and
    /// frontier hashes (litmus), on a tiny size of every workload.
    #[test]
    fn traced_equals_untraced_on_every_tiny_workload() {
        for w in Workload::ALL {
            let out = measure::traced(w, 5, Scale::TINY);
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.metrics.0.iter().map(|m| m.name).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{}", w.name());
        }
    }

    #[test]
    fn same_seed_gives_same_simulated_metrics() {
        const SIM: [&str; 4] = [
            "sim_cycles",
            "row_speedup",
            "atomic_lat_p50_cycles",
            "atomic_lat_p99_cycles",
        ];
        for w in Workload::ALL {
            let a = measure::untraced(w, 9, 0, Scale::TINY);
            let b = measure::untraced(w, 9, 0, Scale::TINY);
            assert!(
                a.failures.is_empty() && b.failures.is_empty(),
                "{}",
                w.name()
            );
            for m in SIM {
                let (x, y) = (a.metrics.get(m).unwrap(), b.metrics.get(m).unwrap());
                assert_eq!(x.to_bits(), y.to_bits(), "{} {m}", w.name());
                assert!(x > 0.0, "{} {m} is zero", w.name());
            }
            let names: Vec<&str> = a.metrics.0.iter().map(|m| m.name).collect();
            for (n, _) in END_TO_END {
                assert!(names.contains(n), "{} lacks {n}", w.name());
            }
        }
    }

    #[test]
    fn litmus_vectors_follow_the_seed_within_explore_bounds() {
        let vectors = |seed| match units(Workload::Litmus, seed, Scale::FULL) {
            Units::Schedules(s) => s.into_iter().map(|s| s.vector).collect::<Vec<_>>(),
            Units::Cells(_) => unreachable!("litmus is made of schedules"),
        };
        let (a, b) = (vectors(1), vectors(2));
        assert_eq!(a, vectors(1));
        assert_ne!(a, b);
        let bounds = row_sim::ExploreOptions::default();
        for v in a.iter().chain(&b) {
            assert!(!v.is_empty() && v.len() <= bounds.max_decisions, "{v:?}");
            let delays = v.iter().filter(|&&x| x != 0).count();
            assert!((1..=bounds.max_delays).contains(&delays), "{v:?}");
            assert!(v.iter().all(|&x| x < row_common::choice::N_ALTS), "{v:?}");
        }
    }
}
