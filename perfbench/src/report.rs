//! Metric names and units, the statistics behind them, the host
//! fingerprint and the result line.

use row_common::persist::{Codec, Reader, Writer};
use row_common::stats::{
    AccuracyCounter, AtomicLatencyBreakdown, LogHistogram, RunningMean, TransportStats,
};
use row_cpu::CoreStats;
use row_mem::MemorySystem;
use row_sim::RunResult;

/// End-to-end metrics (printed with `--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
    ("row_speedup", "ratio"),
    ("atomic_lat_p50_cycles", "cycles"),
    ("atomic_lat_p99_cycles", "cycles"),
];

/// Per-layer metrics (printed with `--trace 1`): name, unit. The first
/// four are the untraced host speed, measured in the same run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host_kips", "kinstr/s"),
    ("runs_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p99_ms", "ms"),
    ("cpu.step_s", "s"),
    ("cpu.steps", "count"),
    ("cpu.step_ns", "ns"),
    ("cpu.event_s", "s"),
    ("cpu.awake_frac", "ratio"),
    ("cpu.share", "ratio"),
    ("mem.tick_s", "s"),
    ("mem.tick_ns", "ns"),
    ("mem.events", "count"),
    ("mem.share", "ratio"),
    ("sim.checkpoint_s", "s"),
    ("sim.hash_s", "s"),
    ("sim.checkpoints", "count"),
    ("sim.checkpoint_kib", "KiB"),
    ("sim.new_s", "s"),
    ("workloads.streams_s", "s"),
    ("sim.loop_self_s", "s"),
    ("sim.share", "ratio"),
    ("workloads.share", "ratio"),
    ("check.sweep_s", "s"),
    ("check.sweeps", "count"),
    ("check.share", "ratio"),
    ("oracle.observe_s", "s"),
    ("oracle.records", "count"),
    ("oracle.finish_s", "s"),
    ("oracle.share", "ratio"),
    ("cpu.atomic_dispatch_to_issue_cycles", "cycles"),
    ("cpu.atomic_issue_to_lock_cycles", "cycles"),
    ("cpu.atomic_lock_to_unlock_cycles", "cycles"),
    ("cpu.squashes", "count"),
    ("cpu.deadlock_breaks", "count"),
    ("row.lazy_frac", "ratio"),
    ("row.accuracy", "ratio"),
    ("row.locality_overrides", "count"),
    ("mem.l1_hit_frac", "ratio"),
    ("mem.miss_latency_cycles", "cycles"),
    ("mem.remote_fill_frac", "ratio"),
    ("mem.dir_blocked_mean", "count"),
    ("noc.messages", "count"),
    ("noc.flit_hops", "count"),
    ("noc.latency_cycles", "cycles"),
    ("mem.transport_retries", "count"),
    ("mem.transport_delivered_frac", "ratio"),
    ("trace.sample_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// A named, measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics by name; the unit comes from the tables above.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.push(Metric { name, unit, value });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `v`, `q` in (0, 1].
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Inclusive sample range of bucket `i` of a [`LogHistogram`]: one bucket
/// per value below 4, then four buckets per octave.
fn log_bucket_range(i: usize) -> (u64, u64) {
    if i < 4 {
        return (i as u64, i as u64);
    }
    let msb = (i / 4 + 1) as u32;
    let width = 1u64 << (msb - 2);
    let lower = (1u64 << msb) + (i % 4) as u64 * width;
    (lower, lower + (width - 1))
}

/// The `q` quantile of a log-bucketed histogram, interpolated linearly
/// within its bucket.
///
/// `LogHistogram::percentile` reports the upper edge of the bucket (four
/// per octave), so from one seed to the next it jumps by up to a quarter;
/// the interpolated value moves with the data instead. The buckets are
/// read through the histogram's own codec, and the bucket found must be
/// the one `percentile` reports.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> Result<f64, String> {
    if h.count() == 0 {
        return Ok(0.0);
    }
    let mut w = Writer::new();
    h.encode(&mut w);
    let bytes = w.into_bytes();
    let buckets = Vec::<u64>::decode(&mut Reader::new(&bytes))
        .map_err(|e| format!("latency histogram: {e}"))?;
    let target = ((q.clamp(0.0, 1.0) * h.count() as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && seen + n >= target {
            let (lo, hi) = log_bucket_range(i);
            if hi.min(h.max()) != h.percentile(q) {
                return Err(format!(
                    "latency histogram: bucket {i} ends at {hi}, percentile({q}) is {}",
                    h.percentile(q)
                ));
            }
            let frac = (target - seen) as f64 / n as f64;
            let value = lo as f64 - 1.0 + frac * (hi - lo + 1) as f64;
            return Ok(value.clamp(lo as f64, h.max() as f64));
        }
        seen += n;
    }
    Err("latency histogram: counts do not reach the quantile".into())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The simulated statistics of a set of runs, merged.
#[derive(Default)]
pub struct SimAgg {
    pub cycles: u64,
    pub core: CoreStats,
    pub accuracy: AccuracyCounter,
    pub miss_latency: RunningMean,
    pub remote_fills: u64,
    pub home_fills: u64,
    pub l1_hits: u64,
    pub cache_accesses: u64,
    pub noc_messages: u64,
    pub noc_flit_hops: u64,
    pub noc_latency: RunningMean,
    pub transport: TransportStats,
}

impl SimAgg {
    /// Adds one run's result.
    pub fn add_result(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.core.merge(&r.total);
        if let Some(a) = &r.accuracy {
            self.accuracy.merge(a);
        }
        self.miss_latency.merge(&r.miss_latency);
        if let Some(t) = &r.transport {
            self.transport.merge(t);
        }
    }

    /// Adds the memory-side statistics of a finished machine.
    pub fn add_memory(&mut self, mem: &MemorySystem) {
        let s = mem.stats();
        self.remote_fills += s.remote_fills;
        self.home_fills += s.home_fills;
        for i in 0..mem.cores() {
            let c = mem.cache_stats(row_common::CoreId::new(i as u16));
            self.l1_hits += c.l1_hits;
            self.cache_accesses += c.l1_hits + c.l2_hits + c.misses;
        }
        let n = mem.noc_stats();
        self.noc_messages += n.messages;
        self.noc_flit_hops += n.flit_hops;
        self.noc_latency.merge(&n.latency);
    }

    pub fn latency(&self) -> &LogHistogram {
        &self.core.atomic_latency
    }

    pub fn breakdown(&self) -> &AtomicLatencyBreakdown {
        &self.core.breakdown
    }
}

/// Host facts that make absolute speeds comparable only within one host.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "commit",
            git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
    ]
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(h) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(h.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The final result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_in_the_reported_bucket() {
        let mut h = LogHistogram::new();
        for v in [1u64, 3, 5, 9, 17, 40, 100, 1000, 1500, 70_000] {
            for _ in 0..v % 7 + 1 {
                h.add(v);
            }
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = hist_quantile(&h, q).unwrap();
            let upper = h.percentile(q) as f64;
            assert!(v <= upper && v > upper / 1.5, "q {q}: {v} vs {upper}");
        }
        assert_eq!(hist_quantile(&LogHistogram::new(), 0.5).unwrap(), 0.0);
        for i in 4..40 {
            let (lo, hi) = log_bucket_range(i);
            assert_eq!(log_bucket_range(i + 1).0, hi + 1);
            assert!(lo <= hi);
        }
    }
}
