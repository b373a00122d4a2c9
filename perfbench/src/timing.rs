//! A `RoundPolicy` wrapper that times every hook, stamps the cycle
//! boundaries, and records what the per-cycle output checks need —
//! without changing a single bit of what the wrapped policy computes.

use crate::host::{process_cpu_s, steal_s};
use helios_device::SimTime;
use helios_fl::{FlEnv, Result, RoundPolicy, RoutedCycle};
use serde::Serialize;
use std::time::Instant;

/// One timed host interval, relative to the wrapper's origin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Index of this span in [`Timed::spans`].
    pub id: usize,
    /// The enclosing span (`None` for the run itself).
    pub parent: Option<usize>,
    /// `run`, `cycle`, or the hook name.
    pub name: &'static str,
    /// The cycle the span belongs to (`None` for run-level spans).
    pub cycle: Option<usize>,
    /// Start, in seconds after the origin.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// Total seconds spent in the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_s)
        .sum()
}

/// Per-cycle observations the checks and metrics read after the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleObs {
    /// Participants the policy selected.
    pub cohort: usize,
    /// Local training samples the cohort held.
    pub samples: usize,
    /// Simulated clock when the cycle's selection ran.
    pub sim_start: SimTime,
    /// Whether every global parameter was finite after aggregation.
    pub global_finite: bool,
    /// Clients holding a soft-training mask after configuration.
    pub masked: usize,
    /// Sum over masked clients of their live-parameter fraction.
    pub keep_sum: f64,
    /// Materialized clients once the cohort was selected.
    pub materialized: usize,
    /// Devices offline (scenario churn) at selection.
    pub offline: usize,
    /// Process CPU seconds (all threads) the cycle consumed.
    pub cpu_s: f64,
    /// Per-CPU seconds the hypervisor stole from the machine during the
    /// cycle.
    pub steal_s: f64,
}

/// Wraps a policy, delegating every hook unchanged.
///
/// Hook spans are parented to their cycle span; a cycle runs from its
/// `select` hook to the next one, and the last cycle ends when
/// [`Timed::finish`] is called after the run returns.
pub struct Timed<'a, P: RoundPolicy + ?Sized> {
    inner: &'a mut P,
    origin: Instant,
    spans: Vec<Span>,
    cycles: Vec<CycleObs>,
    open_cycle: Option<usize>,
    cycle_cpu_start: f64,
    cycle_steal_start: f64,
}

/// Index of the run span, which [`Timed::new`] opens.
const RUN: usize = 0;

impl<'a, P: RoundPolicy + ?Sized> Timed<'a, P> {
    /// Wraps `inner`; the run span starts now.
    pub fn new(inner: &'a mut P) -> Self {
        Timed {
            inner,
            origin: Instant::now(),
            spans: vec![Span {
                id: RUN,
                parent: None,
                name: "run",
                cycle: None,
                start_s: 0.0,
                dur_s: 0.0,
            }],
            cycles: Vec::new(),
            open_cycle: None,
            cycle_cpu_start: 0.0,
            cycle_steal_start: 0.0,
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str, parent: usize, cycle: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            cycle,
            start_s,
            dur_s: 0.0,
        });
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_s();
        let span = &mut self.spans[id];
        span.dur_s = end - span.start_s;
    }

    /// Runs one hook inside a span under the current cycle.
    fn hook<T>(
        &mut self,
        name: &'static str,
        cycle: usize,
        f: impl FnOnce(&mut P) -> Result<T>,
    ) -> Result<T> {
        let parent = self.open_cycle.unwrap_or(RUN);
        let id = self.open(name, parent, Some(cycle));
        let out = f(self.inner);
        self.close(id);
        out
    }

    /// Closes the open cycle span and charges it its CPU and steal time.
    fn close_cycle(&mut self) {
        if let Some(c) = self.open_cycle.take() {
            self.close(c);
            let (cpu, steal) = (process_cpu_s(), steal_s());
            if let Some(obs) = self.cycles.last_mut() {
                obs.cpu_s = cpu - self.cycle_cpu_start;
                obs.steal_s = steal - self.cycle_steal_start;
            }
        }
    }

    /// Closes the last cycle and the run span at the run's end.
    pub fn finish(&mut self) {
        self.close_cycle();
        self.close(RUN);
    }

    /// Every span, in opening order; `spans()[0]` is the run.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-cycle observations, one per `select` call (so a cycle whose
    /// selection failed still has one).
    pub fn cycles(&self) -> &[CycleObs] {
        &self.cycles
    }

    /// Checks that every span's children fit inside it and returns the
    /// largest overrun found (0 when the tree is consistent).
    pub fn children_overrun_s(&self) -> f64 {
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur_s;
            }
        }
        self.spans
            .iter()
            .zip(&child_sum)
            .map(|(s, &c)| (c - s.dur_s).max(0.0))
            .fold(0.0, f64::max)
    }
}

impl<P: RoundPolicy + ?Sized> RoundPolicy for Timed<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        let id = self.open("begin_run", RUN, None);
        let out = self.inner.begin_run(env);
        self.close(id);
        out
    }

    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> Result<Vec<usize>> {
        self.close_cycle();
        self.cycle_cpu_start = process_cpu_s();
        self.cycle_steal_start = steal_s();
        self.open_cycle = Some(self.open("cycle", RUN, Some(cycle)));
        self.cycles.push(CycleObs {
            sim_start: env.clock().now(),
            ..CycleObs::default()
        });
        let participants = self.hook("select", cycle, |p| p.select(env, cycle))?;
        let mut samples = 0;
        for &i in &participants {
            samples += env.client(i)?.num_samples() * env.config().local_epochs;
        }
        if let Some(obs) = self.cycles.last_mut() {
            obs.cohort = participants.len();
            obs.samples = samples;
            obs.materialized = env.materialized_clients();
            obs.offline = env.offline_devices();
        }
        Ok(participants)
    }

    fn broadcast(&mut self, env: &mut FlEnv, cycle: usize, participants: &[usize]) -> Result<()> {
        self.hook("broadcast", cycle, |p| {
            p.broadcast(env, cycle, participants)
        })
    }

    fn configure_client(&mut self, env: &mut FlEnv, cycle: usize, client: usize) -> Result<()> {
        self.hook("configure", cycle, |p| {
            p.configure_client(env, cycle, client)
        })?;
        let c = env.client(client)?;
        if c.current_mask().is_some() {
            let live = c.active_param_count() as f64 / c.network().param_len() as f64;
            if let Some(obs) = self.cycles.last_mut() {
                obs.masked += 1;
                obs.keep_sum += live;
            }
        }
        Ok(())
    }

    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        self.hook("aggregate", cycle, |p| p.aggregate(env, cycle, routed))?;
        let finite = env.global().iter().all(|x| x.is_finite());
        if let Some(obs) = self.cycles.last_mut() {
            obs.global_finite = finite;
        }
        Ok(())
    }

    fn cycle_span(&mut self, env: &FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<SimTime> {
        self.hook("cycle_span", cycle, |p| p.cycle_span(env, cycle, routed))
    }

    fn post_cycle(&mut self, env: &mut FlEnv, cycle: usize) -> Result<()> {
        self.hook("post_cycle", cycle, |p| p.post_cycle(env, cycle))
    }
}
