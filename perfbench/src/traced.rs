//! The traced driver: a step-for-step mirror of `row_sim::Machine` built
//! only from the layers' public calls, with a timer around each call.
//!
//! `Machine` keeps its cores, memory system and checkers private, so the
//! benchmark cannot time the layers through it without editing the
//! program. Instead [`TracedMachine`] owns the same parts and calls them
//! in `Machine::advance`'s order:
//!
//! 1. `MemorySystem::tick`, then `Core::handle_mem_event` per event;
//! 2. `Core::cycle` + `Core::sleep_until` over the active, awake cores;
//! 3. `drain_journal_into` + `OnlineChecker::observe`;
//! 4. `IncrementalSweep::sweep` every `invariant_every` cycles;
//! 5. the watchdog.
//!
//! Checkpoints are serialised byte-for-byte as `Machine::checkpoint` lays
//! them out, so their fnv1a hashes can be compared with the untraced run.
//! The mirror's exactness (cycles, events, core steps, checkpoint hashes,
//! litmus outcomes) is checked against the program on every cell.

use std::time::{Duration, Instant};

use row_check::{check_coherence, IncrementalSweep};
use row_common::config::CheckConfig;
use row_common::persist::{fnv1a, Codec, Persist, Writer};
use row_common::stats::AccuracyCounter;
use row_common::{CoreId, Cycle, SystemConfig};
use row_cpu::instr::InstrStream;
use row_cpu::{Core, CoreStats};
use row_mem::{MemEvent, MemorySystem, OpRecord};
use row_oracle::OnlineChecker;
use row_sim::checkpoint::{FORMAT_VERSION, MAGIC};
use row_sim::RunResult;

/// Cycle stride at which `MemorySystem::blocked_dir_entries` is sampled.
pub const BLOCKED_SAMPLE_STRIDE: u64 = 256;

/// Time and counts accumulated at each layer boundary. Every duration is a
/// child span of the cell's root span; the root's self time is what the
/// driver loop itself costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// Root span: the whole traced cell, set-up included.
    pub wall: Duration,
    /// Instruction-stream construction.
    pub streams: Duration,
    /// Building the memory system, cores and checker (`Machine::new`'s work).
    pub new: Duration,
    /// `MemorySystem::tick`.
    pub tick: Duration,
    /// `Core::handle_mem_event`.
    pub event: Duration,
    /// `Core::cycle` + `Core::sleep_until`.
    pub step: Duration,
    /// `drain_journal_into` + `OnlineChecker::observe`.
    pub observe: Duration,
    /// `OnlineChecker::finish` (and the drain before it).
    pub finish: Duration,
    /// `IncrementalSweep::sweep` and the full sweep on drain.
    pub sweep: Duration,
    /// Checkpoint serialisation.
    pub checkpoint: Duration,
    /// fnv1a over checkpoint images.
    pub hash: Duration,
    /// The tracer's own sampling of directory state.
    pub sample: Duration,
    /// `tick` calls (one per simulated cycle).
    pub ticks: u64,
    /// Memory events delivered to cores.
    pub events: u64,
    /// `Core::cycle` calls.
    pub steps: u64,
    /// Sum over cycles of the number of unfinished cores.
    pub active_core_cycles: u64,
    /// Sweeps run (incremental and full).
    pub sweeps: u64,
    /// Journal records the online checker observed.
    pub records: u64,
    /// Checkpoints serialised.
    pub checkpoints: u64,
    /// Bytes of all checkpoint images.
    pub checkpoint_bytes: u64,
    /// Blocked directory entries summed over samples.
    pub blocked_sum: u64,
    /// Samples of blocked directory entries.
    pub blocked_samples: u64,
}

impl LayerTimes {
    /// Adds another cell's spans and counts.
    pub fn merge(&mut self, o: &LayerTimes) {
        self.wall += o.wall;
        self.streams += o.streams;
        self.new += o.new;
        self.tick += o.tick;
        self.event += o.event;
        self.step += o.step;
        self.observe += o.observe;
        self.finish += o.finish;
        self.sweep += o.sweep;
        self.checkpoint += o.checkpoint;
        self.hash += o.hash;
        self.sample += o.sample;
        self.ticks += o.ticks;
        self.events += o.events;
        self.steps += o.steps;
        self.active_core_cycles += o.active_core_cycles;
        self.sweeps += o.sweeps;
        self.records += o.records;
        self.checkpoints += o.checkpoints;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.blocked_sum += o.blocked_sum;
        self.blocked_samples += o.blocked_samples;
    }

    /// Sum of the child spans (everything but the driver loop's self time).
    pub fn children(&self) -> Duration {
        self.streams
            + self.new
            + self.tick
            + self.event
            + self.step
            + self.observe
            + self.finish
            + self.sweep
            + self.checkpoint
            + self.hash
            + self.sample
    }

    /// The driver loop's self time: the root span minus its children.
    pub fn loop_self(&self) -> Duration {
        self.wall.saturating_sub(self.children())
    }
}

/// Mirror of `row_sim::Machine` with a timer at every layer boundary.
pub struct TracedMachine {
    mem: MemorySystem,
    cores: Vec<Core>,
    check: CheckConfig,
    now: Cycle,
    cfg_hash: u64,
    online: Option<OnlineChecker>,
    online_buf: Vec<OpRecord>,
    sweeper: IncrementalSweep,
    active: Vec<u32>,
    wake: Vec<Cycle>,
    /// Spans and counts recorded so far.
    pub times: LayerTimes,
}

impl TracedMachine {
    /// Builds the machine as `Machine::new` does, timing the work as
    /// `sim.new`. `streams_time` is the caller's measured stream set-up.
    pub fn new(
        cfg: &SystemConfig,
        streams: Vec<Box<dyn InstrStream>>,
        streams_time: Duration,
    ) -> Self {
        assert!(cfg.check.rewind_every.is_none(), "rewind is not mirrored");
        let t0 = Instant::now();
        let mut mem = MemorySystem::new(cfg);
        mem.track_dirty_lines(cfg.check.invariant_every.is_some());
        let cores: Vec<Core> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Core::new(CoreId::new(i as u16), cfg.core, cfg.mem.l1d.hit_latency, s))
            .collect();
        let n = cores.len();
        let mut m = TracedMachine {
            mem,
            cores,
            check: cfg.check,
            now: Cycle::ZERO,
            cfg_hash: fnv1a(format!("{cfg:?}").as_bytes()),
            online: cfg
                .check
                .oracle_online
                .then(|| OnlineChecker::new(cfg.cores)),
            online_buf: Vec::new(),
            sweeper: IncrementalSweep::new(),
            active: (0..n as u32).collect(),
            wake: vec![Cycle::ZERO; n],
            times: LayerTimes {
                streams: streams_time,
                ..LayerTimes::default()
            },
        };
        m.times.new = t0.elapsed();
        m
    }

    /// The current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The memory system (read after the run for its statistics).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// One core (litmus probes read its load observations).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// `Machine::step_cycle` with spans around tick, events and steps.
    fn step_cycle(&mut self, now: Cycle) {
        let t0 = Instant::now();
        let events = self.mem.tick(now);
        let t1 = Instant::now();
        for ev in events {
            self.times.events += 1;
            let target = match ev {
                MemEvent::Fill { core, .. } => core,
                MemEvent::FarDone { core, .. } => core,
                MemEvent::ExternalObserved { core, .. } => core,
            };
            self.wake[target.index()] = Cycle::ZERO;
            self.cores[target.index()].handle_mem_event(&ev, now, &mut self.mem);
        }
        let t2 = Instant::now();
        let mut any_finished = false;
        self.times.active_core_cycles += self.active.len() as u64;
        for slot in 0..self.active.len() {
            let i = self.active[slot] as usize;
            if self.wake[i] > now {
                continue;
            }
            let c = &mut self.cores[i];
            c.cycle(now, &mut self.mem);
            self.times.steps += 1;
            any_finished |= c.finished();
            self.wake[i] = c.sleep_until(now).unwrap_or(now + 1);
        }
        if any_finished {
            let cores = &self.cores;
            self.active.retain(|&i| !cores[i as usize].finished());
        }
        let t3 = Instant::now();
        self.times.tick += t1 - t0;
        self.times.event += t2 - t1;
        self.times.step += t3 - t2;
        self.times.ticks += 1;
    }

    /// `Machine::advance`: steps until every core drains or `now` reaches
    /// `target`; returns whether all cores finished.
    fn advance(&mut self, target: u64) -> Result<bool, String> {
        let every = self.check.invariant_every;
        let window = self.check.watchdog_window;
        while self.now.raw() < target {
            if self.active.is_empty() {
                return Ok(true);
            }
            let now = self.now;
            self.step_cycle(now);
            if let Some(e) = self.mem.protocol_error() {
                return Err(format!("protocol error at cycle {}: {e}", now.raw()));
            }
            self.pump_online(false)?;
            if let Some(k) = every {
                if now.raw().is_multiple_of(k) {
                    let t0 = Instant::now();
                    let sweep = self.sweeper.sweep(&mut self.mem, &self.check);
                    self.times.sweep += t0.elapsed();
                    self.times.sweeps += 1;
                    sweep.map_err(|e| format!("invariant sweep at cycle {}: {e}", now.raw()))?;
                }
            }
            if let Some(w) = window {
                if now.raw() >= w {
                    let latest = self
                        .active
                        .iter()
                        .map(|&i| self.cores[i as usize].last_commit())
                        .max();
                    if latest.is_some_and(|t| now.saturating_since(t) >= w) {
                        return Err(format!("watchdog fired at cycle {}", now.raw()));
                    }
                }
            }
            if now.raw().is_multiple_of(BLOCKED_SAMPLE_STRIDE) {
                let t0 = Instant::now();
                self.times.blocked_sum += self.mem.blocked_dir_entries().len() as u64;
                self.times.blocked_samples += 1;
                self.times.sample += t0.elapsed();
            }
            self.now += 1;
        }
        Ok(self.active.is_empty())
    }

    /// `Machine::pump_online`, timed as `oracle.observe` (or as
    /// `oracle.finish` for the drain that precedes the finish pass).
    fn pump_online(&mut self, finishing: bool) -> Result<(), String> {
        let Some(checker) = self.online.as_mut() else {
            return Ok(());
        };
        let t0 = Instant::now();
        self.online_buf.clear();
        self.mem.drain_journal_into(&mut self.online_buf);
        let mut r = Ok(());
        for rec in &self.online_buf {
            if let Err(m) = checker.observe(rec) {
                r = Err(format!("online oracle: {m}"));
                break;
            }
        }
        self.times.records += self.online_buf.len() as u64;
        let dt = t0.elapsed();
        if finishing {
            self.times.finish += dt;
        } else {
            self.times.observe += dt;
        }
        r
    }

    /// `Machine::run_for`: at most `cycles` more cycles; `Some(result)` once
    /// every core drained (after the full sweep and the oracle's finish).
    pub fn run_for(&mut self, cycles: u64) -> Result<Option<RunResult>, String> {
        let target = self.now.raw().saturating_add(cycles);
        if !self.advance(target)? {
            return Ok(None);
        }
        if self.check.invariant_every.is_some() {
            let t0 = Instant::now();
            let r = check_coherence(&self.mem, &self.check);
            self.times.sweep += t0.elapsed();
            self.times.sweeps += 1;
            r.map_err(|e| format!("final sweep: {e}"))?;
        }
        if self.check.oracle {
            return Err("the end-state oracle is not mirrored".into());
        }
        if self.online.is_some() {
            let retired: Vec<u64> = self.cores.iter().map(|c| c.stats().atomics).collect();
            self.pump_online(true)?;
            let t0 = Instant::now();
            let checker = self.online.as_ref().expect("checked above");
            let r = checker.finish(self.mem.words(), &retired);
            self.times.finish += t0.elapsed();
            r.map_err(|m| format!("online oracle finish: {m}"))?;
        }
        Ok(Some(self.collect()))
    }

    /// `Machine::run`: to completion within the absolute cycle `limit`.
    pub fn run(&mut self, limit: u64) -> Result<RunResult, String> {
        self.run_for(limit.saturating_sub(self.now.raw()))?
            .ok_or_else(|| format!("cycle budget {limit} exhausted"))
    }

    /// `Machine::collect`: moves each core's statistics into the result.
    fn collect(&mut self) -> RunResult {
        let (mut preds, mut miss) = (0u64, 0u64);
        let mut accuracy: Option<AccuracyCounter> = None;
        for c in &self.cores {
            preds += c.branch_stats().predictions;
            miss += c.branch_stats().mispredictions;
            if let Some(a) = c.row_accuracy() {
                accuracy.get_or_insert_with(AccuracyCounter::new).merge(a);
            }
        }
        let per_core: Vec<CoreStats> = self.cores.iter_mut().map(Core::take_stats).collect();
        let mut total = CoreStats::default();
        for s in &per_core {
            total.merge(s);
        }
        RunResult {
            cycles: total.finished_at.map(|c| c.raw()).unwrap_or(0),
            total,
            per_core,
            miss_latency: self.mem.stats().miss_latency_all,
            accuracy,
            branch_miss_rate: if preds == 0 {
                0.0
            } else {
                miss as f64 / preds as f64
            },
            remote_fills: self.mem.stats().remote_fills,
            transport: self.mem.transport_stats().copied(),
        }
    }

    /// `Machine::checkpoint` followed by fnv1a over the image, timed as
    /// `sim.checkpoint` and `sim.hash`. Returns the image's hash.
    pub fn checkpoint_hash(&mut self) -> Result<u64, String> {
        let t0 = Instant::now();
        if self.mem.protocol_error().is_some() {
            return Err("refusing to checkpoint a machine with a pending protocol error".into());
        }
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(self.cfg_hash);
        self.now.encode(&mut w);
        self.mem.persist(&mut w);
        w.put_len(self.cores.len());
        for c in &self.cores {
            c.persist(&mut w);
        }
        self.online.encode(&mut w);
        let checksum = fnv1a(w.bytes());
        w.put_u64(checksum);
        let bytes = w.into_bytes();
        let t1 = Instant::now();
        let h = fnv1a(&bytes);
        self.times.hash += t1.elapsed();
        self.times.checkpoint += t1 - t0;
        self.times.checkpoints += 1;
        self.times.checkpoint_bytes += bytes.len() as u64;
        Ok(h)
    }
}
