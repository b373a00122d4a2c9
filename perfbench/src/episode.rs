//! One episode: build a fresh environment, drive the workload's policy
//! through `RoundDriver::run` under the timing wrapper, and check every
//! cycle's outputs.

use crate::host::process_cpu_s;
use crate::timing::{total_s, CycleObs, Span, Timed};
use crate::workload::{Built, Workload};
use helios_device::SimTime;
use helios_fl::{RoundDriver, RoundRecord, RunMetrics, RunProfile};
use helios_net::TransportStats;
use helios_obs::RingBufferSink;
use helios_tensor::ParallelismConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace records one episode may buffer; a full ring fails the episode's
/// event-count check instead of silently under-counting.
const RING_CAPACITY: usize = 1 << 22;

/// How an episode is run.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed for data, model, devices, and faults.
    pub seed: u64,
    /// Worker-thread budget (`FlConfig.parallelism`).
    pub threads: usize,
    /// Aggregation cycles.
    pub cycles: usize,
    /// Install a ring-buffer trace sink for the episode.
    pub trace: bool,
}

impl EpisodeSpec {
    /// A full, untraced episode.
    pub fn new(workload: Workload, seed: u64, threads: usize) -> Self {
        EpisodeSpec {
            workload,
            seed,
            threads,
            cycles: workload.cycles(),
            trace: false,
        }
    }
}

/// Everything one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// The driver's metrics (empty when the run errored).
    pub metrics: Option<RunMetrics>,
    /// Dataset synthesis share of the environment build.
    pub data_generate_s: f64,
    /// The `begin_run` hook alone.
    pub begin_run_s: f64,
    /// Host wall time of `RoundDriver::run`.
    pub run_wall_s: f64,
    /// Benchmark-side host spans.
    pub spans: Vec<Span>,
    /// Per-cycle observations from the wrapper.
    pub cycles: Vec<CycleObs>,
    /// Transport counters accumulated over the run (zero without a
    /// transport).
    pub net: TransportStats,
    /// Largest amount by which a span's children exceed it.
    pub children_overrun_s: f64,
    /// Per-kind trace event counts (traced episodes only).
    pub events: BTreeMap<&'static str, u64>,
    /// Digest of the metrics and the final global parameters.
    pub digest: u64,
    /// Cycles the episode set out to run.
    pub attempted: usize,
    /// Cycles lost to a driver error or failing an output check.
    pub failed: usize,
    /// Human-readable reasons for every failure.
    pub problems: Vec<String>,
}

impl Episode {
    /// Wall-clock duration of every cycle, in order.
    pub fn cycle_wall_s(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == "cycle")
            .map(|s| s.dur_s)
            .collect()
    }

    /// Wall-clock duration of every cycle less the time the hypervisor
    /// stole from each CPU meanwhile, in order.
    pub fn cycle_unstolen_s(&self) -> Vec<f64> {
        self.cycle_wall_s()
            .iter()
            .zip(&self.cycles)
            .map(|(wall, c)| wall - c.steal_s)
            .collect()
    }

    /// Total seconds spent in the hook spans named `name`.
    pub fn hook_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name)
    }

    /// The run profile recorded by the driver.
    pub fn profile(&self) -> RunProfile {
        self.metrics
            .as_ref()
            .map(|m| *m.profile())
            .unwrap_or_default()
    }
}

/// Builds the workload's environment.
fn build(spec: &EpisodeSpec) -> Result<Built, String> {
    spec.workload
        .build(spec.seed, spec.threads, spec.cycles)
        .map_err(|e| format!("environment build failed: {e}"))
}

/// Performs one set-up alone — the environment build plus the policy's
/// `begin_run`, as an episode performs them — and returns the process
/// CPU seconds it took.
///
/// # Errors
///
/// Returns the build or `begin_run` error.
pub fn time_setup(spec: &EpisodeSpec) -> Result<f64, String> {
    let _budget = ParallelismConfig::with_threads(spec.threads).scoped();
    let start = process_cpu_s();
    let mut env = build(spec)?.env;
    spec.workload
        .policy()
        .begin_run(&mut env)
        .map_err(|e| format!("begin_run failed: {e}"))?;
    Ok(process_cpu_s() - start)
}

/// FNV-1a digest of a run's per-cycle records and final global model.
/// Host-side counters (flops) are left out: they are process-global.
pub fn digest(metrics: &RunMetrics, global: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(global.len() * 4 + metrics.records().len() * 96);
    for r in metrics.records() {
        for v in [
            r.cycle as u64,
            r.sim_time.as_secs_f64().to_bits(),
            r.test_accuracy.to_bits(),
            r.test_loss.to_bits(),
            r.participants as u64,
            r.comm_bytes.to_bits(),
            r.phases.train_s.to_bits(),
            r.phases.comm_s.to_bits(),
            r.phases.wire_bytes,
            r.phases.retries,
            r.phases.missed as u64,
            r.phases.aggregated_updates as u64,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    for p in global {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    helios_obs::content_digest(&bytes)
}

/// Runs one episode. Never panics on program errors: a failed build or
/// driver error is recorded as failed cycles.
pub fn run_episode(spec: &EpisodeSpec) -> Episode {
    let _budget = ParallelismConfig::with_threads(spec.threads).scoped();
    let mut ep = Episode {
        attempted: spec.cycles,
        ..Episode::default()
    };
    let mut env = match build(spec) {
        Ok(b) => {
            ep.data_generate_s = b.data_generate_s;
            b.env
        }
        Err(e) => {
            ep.failed = spec.cycles;
            ep.problems.push(e);
            return ep;
        }
    };
    let net_before = env.transport().map(|t| *t.stats());
    let ring = spec
        .trace
        .then(|| RingBufferSink::with_capacity(RING_CAPACITY));
    let sink = ring
        .as_ref()
        .map(|r| helios_obs::install(Box::new(r.clone())));

    let mut policy = spec.workload.policy();
    let t = Instant::now();
    let mut timed = Timed::new(policy.as_mut());
    let result = RoundDriver::run(&mut timed, &mut env, spec.cycles);
    timed.finish();
    ep.spans = timed.spans().to_vec();
    ep.cycles = timed.cycles().to_vec();
    ep.begin_run_s = ep.hook_s("begin_run");
    ep.children_overrun_s = timed.children_overrun_s();
    ep.run_wall_s = t.elapsed().as_secs_f64();
    drop(sink);

    if let (Some(t), Some(before)) = (env.transport(), net_before) {
        ep.net = t.stats().since(&before);
    }
    if let Some(ring) = &ring {
        if ring.len() >= RING_CAPACITY {
            ep.problems
                .push(format!("trace ring filled ({RING_CAPACITY} records)"));
        }
        for rec in ring.records() {
            *ep.events.entry(rec.event.kind()).or_insert(0) += 1;
        }
    }
    match result {
        Ok(metrics) => {
            ep.digest = digest(&metrics, env.global());
            let failures = check_cycles(metrics.records(), &ep.cycles, spec.cycles);
            ep.failed = failures.len();
            ep.problems.extend(failures);
            ep.metrics = Some(metrics);
        }
        Err(e) => {
            // The cycle that was in progress failed, and so did every
            // cycle after it.
            let completed = ep.cycles.len().saturating_sub(1);
            ep.failed = spec.cycles - completed.min(spec.cycles);
            ep.problems.push(format!("driver error: {e}"));
        }
    }
    ep
}

/// Checks every cycle's outputs against the wrapper's observations and
/// returns one problem per failing cycle (a count mismatch fails every
/// cycle): finite global parameters and loss, `aggregated + missed`
/// equal to the cohort, and a simulated clock that never runs backwards.
pub fn check_cycles(records: &[RoundRecord], observed: &[CycleObs], cycles: usize) -> Vec<String> {
    if records.len() != cycles || observed.len() != cycles {
        let what = format!(
            "{} records and {} selections for {cycles} cycles",
            records.len(),
            observed.len()
        );
        return vec![what; cycles];
    }
    let mut problems = Vec::new();
    let mut prev_end = SimTime::ZERO;
    for (r, obs) in records.iter().zip(observed) {
        let mut bad = Vec::new();
        if !obs.global_finite {
            bad.push("non-finite global parameters");
        }
        if !r.test_loss.is_finite() {
            bad.push("non-finite test loss");
        }
        if r.phases.aggregated_updates + r.phases.missed != obs.cohort {
            bad.push("aggregated + missed != cohort");
        }
        if obs.sim_start < prev_end || r.sim_time < obs.sim_start {
            bad.push("simulated clock went backwards");
        }
        prev_end = r.sim_time;
        if !bad.is_empty() {
            problems.push(format!("cycle {}: {}", r.cycle, bad.join(", ")));
        }
    }
    problems
}
