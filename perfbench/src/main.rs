//! Benchmark entry point: runs one workload closed-loop for a given
//! number of seconds and prints one JSON result line.
//!
//! ```text
//! helios-perfbench --workload <paper_alexnet|fleet_100k|lossy_wire>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, and the spans, event
//! counts, and per-layer table are also written to
//! `.bench_out/<workload>-seed<n>.trace.json`.

use helios_perfbench::episode::{run_episode, time_setup, Episode, EpisodeSpec};
use helios_perfbench::host::{nproc, peak_rss_mb, Host};
use helios_perfbench::stats::{median, tail_at, tail_rank};
use helios_perfbench::timing::Span;
use helios_perfbench::workload::Workload;
use serde::value::Value;
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed before the measured episodes: at least this many, and
/// more until they have used `SETUP_MIN_CPU_S` together (at most
/// `SETUP_MAX_REPS`), so a set-up of a few milliseconds still has a
/// steady median.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MIN_CPU_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;
/// Cycles a run measures at least, whatever its time budget.
const MIN_CYCLES: usize = 40;
/// Cycles the tail percentile must leave beyond itself. The percentile
/// is fixed from `MIN_CYCLES`, so it is the same in every run whatever
/// number of episodes fits in the time budget.
const TAIL_BEYOND: usize = 10;
/// Where traced runs write their spans and per-layer table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-episode values of the per-layer metrics, in `BENCHMARK.json`
/// order. Event-derived entries are `None` for untraced episodes.
fn layer_values(ep: &Episode, threads: usize) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let p = ep.profile();
    let run_s = ep.spans.first().map_or(ep.run_wall_s, |s| s.dur_s);
    let attributed = [
        "begin_run",
        "select",
        "broadcast",
        "configure",
        "aggregate",
        "post_cycle",
    ]
    .iter()
    .map(|n| ep.hook_s(n))
    .sum::<f64>()
        + p.train_s
        + p.route_s
        + p.eval_s;
    let records = ep.metrics.as_ref().map_or(&[][..], |m| m.records());
    let nn_cpu_s = p.nn_forward_s + p.nn_backward_s + p.nn_step_s;
    let wall = ep.cycle_wall_s();
    let samples = ep.cycles.iter().map(|c| c.samples).sum::<usize>() as f64;
    let masked: usize = ep.cycles.iter().map(|c| c.masked).sum();
    let keep_share = if masked == 0 {
        1.0
    } else {
        ep.cycles.iter().map(|c| c.keep_sum).sum::<f64>() / masked as f64
    };
    let wire_mb = ep.net.bytes_on_wire as f64 / 1e6;
    let delivered_mb = ep.net.delivered_bytes as f64 / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced = !ep.events.is_empty();
    let event = |kind: &str| traced.then(|| ep.events.get(kind).copied().unwrap_or(0) as f64);
    let sum = |f: &dyn Fn(&helios_fl::RoundRecord) -> f64| records.iter().map(f).sum::<f64>();
    vec![
        ("fl.train_s", "s", Some(p.train_s)),
        ("fl.eval_s", "s", Some(p.eval_s)),
        ("fl.route_s", "s", Some(p.route_s)),
        ("fl.select_s", "s", Some(ep.hook_s("select"))),
        ("fl.broadcast_s", "s", Some(ep.hook_s("broadcast"))),
        ("fl.configure_s", "s", Some(ep.hook_s("configure"))),
        ("fl.aggregate_s", "s", Some(ep.hook_s("aggregate"))),
        ("fl.post_cycle_s", "s", Some(ep.hook_s("post_cycle"))),
        ("fl.unattributed_s", "s", Some(run_s - attributed)),
        ("fl.cycle_wall_p50_s", "s", Some(median(&wall))),
        (
            "fl.samples_per_wall_s",
            "samples/s",
            Some(ratio(samples, wall.iter().sum())),
        ),
        (
            "fl.clients_materialized",
            "count",
            Some(ep.cycles.iter().map(|c| c.materialized).max().unwrap_or(0) as f64),
        ),
        (
            "fl.updates_aggregated",
            "count",
            Some(sum(&|r| r.phases.aggregated_updates as f64)),
        ),
        (
            "fl.updates_missed",
            "count",
            Some(sum(&|r| r.phases.missed as f64)),
        ),
        (
            "fl.train_busy_share",
            "fraction",
            Some(ratio(nn_cpu_s, (p.train_s + p.eval_s) * threads as f64)),
        ),
        ("nn.forward_cpu_s", "s", Some(p.nn_forward_s)),
        ("nn.backward_cpu_s", "s", Some(p.nn_backward_s)),
        ("nn.step_cpu_s", "s", Some(p.nn_step_s)),
        (
            "tensor.train_flops",
            "flop",
            Some(sum(&|r| r.phases.train_flops as f64)),
        ),
        (
            "tensor.eval_flops",
            "flop",
            Some(sum(&|r| r.phases.eval_flops as f64)),
        ),
        ("tensor.elements", "count", Some(p.kernel_elements as f64)),
        (
            "tensor.gflops_per_cpu_s",
            "GFLOP/s",
            Some(ratio(p.kernel_flops as f64 / 1e9, nn_cpu_s)),
        ),
        ("helios.begin_run_s", "s", Some(ep.begin_run_s)),
        ("helios.straggler_keep_share", "fraction", Some(keep_share)),
        ("helios.masks_issued", "count", event("MaskIssued")),
        ("net.messages", "count", Some(ep.net.messages as f64)),
        ("net.attempts", "count", Some(ep.net.attempts as f64)),
        ("net.retries", "count", Some(ep.net.retries as f64)),
        ("net.drops", "count", Some(ep.net.drops as f64)),
        (
            "net.corruptions",
            "count",
            Some(ep.net.corruptions_detected as f64),
        ),
        ("net.failures", "count", Some(ep.net.failures as f64)),
        ("net.timeouts", "count", Some(ep.net.timeouts as f64)),
        ("net.wire_mb", "MB", Some(wire_mb)),
        ("net.delivered_mb", "MB", Some(delivered_mb)),
        (
            "net.goodput_share",
            "fraction",
            Some(ratio(delivered_mb, wire_mb)),
        ),
        (
            "net.route_s_per_wire_mb",
            "s/MB",
            Some(ratio(p.route_s, wire_mb)),
        ),
        ("data.generate_s", "s", Some(ep.data_generate_s)),
        (
            "device.sim_train_s",
            "sim_s",
            Some(sum(&|r| r.phases.train_s)),
        ),
        (
            "device.sim_comm_s",
            "sim_s",
            Some(sum(&|r| r.phases.comm_s)),
        ),
        ("scenario.events", "count", event("ScenarioEvent")),
        (
            "scenario.offline_devices_max",
            "count",
            Some(ep.cycles.iter().map(|c| c.offline).max().unwrap_or(0) as f64),
        ),
        (
            "obs.events",
            "count",
            traced.then(|| ep.events.values().sum::<u64>() as f64),
        ),
    ]
}

/// Medians over episodes of every per-layer metric, plus the tracing
/// overhead.
fn layer_metrics(episodes: &[Episode], threads: usize) -> Vec<Metric> {
    let per_episode: Vec<_> = episodes.iter().map(|e| layer_values(e, threads)).collect();
    let mut out = Vec::new();
    for (k, &(name, unit, _)) in per_episode[0].iter().enumerate() {
        let values: Vec<f64> = per_episode.iter().filter_map(|v| v[k].2).collect();
        out.push(metric(name, median(&values), unit));
    }
    // Each traced cycle's wall time over the median of the same cycle
    // in the untraced episodes; the overhead is the median ratio minus
    // 1. Pairing cycles by index keeps the cold first cycle of the first
    // (untraced) episode from reading as a saving.
    let walls = |traced: bool| -> Vec<Vec<f64>> {
        episodes
            .iter()
            .filter(|e| e.events.is_empty() != traced)
            .map(Episode::cycle_wall_s)
            .collect()
    };
    let (traced, untraced) = (walls(true), walls(false));
    let ratios: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.iter().enumerate())
        .filter_map(|(c, &wall)| {
            let same: Vec<f64> = untraced.iter().filter_map(|u| u.get(c).copied()).collect();
            let base = median(&same);
            (base > 0.0).then(|| wall / base)
        })
        .collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    };
    out.push(metric("obs.trace_overhead_share", overhead, "fraction"));
    out
}

/// `{"<name>": {"value": v, "unit": u}, ...}`, in the metrics' order.
fn metrics_json(metrics: &[Metric]) -> Value {
    let entry = |m: &Metric| {
        Value::Map(vec![
            ("value".into(), Value::Float(m.value)),
            ("unit".into(), Value::Str(m.unit.into())),
        ])
    };
    Value::Map(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), entry(m)))
            .collect(),
    )
}

/// Compact JSON of a value.
fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializing to a string cannot fail")
}

/// The result line the benchmark ends with.
#[derive(Serialize)]
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Value,
}

/// What a traced run writes out.
#[derive(Serialize)]
struct Trace {
    workload: String,
    host: Host,
    episodes: usize,
    traced_episodes: usize,
    layers: Value,
    /// Per-kind event counts of the last traced episode.
    events: Value,
    /// Spans of the last traced episode.
    spans: Vec<Span>,
}

/// Writes the traced run's spans (of its last traced episode), event
/// counts, and per-layer table.
fn write_trace(
    args: &Args,
    host: &Host,
    episodes: &[Episode],
    layers: &[Metric],
) -> std::io::Result<String> {
    let Some(ep) = episodes.iter().rev().find(|e| !e.events.is_empty()) else {
        return Ok(String::new());
    };
    let trace = Trace {
        workload: args.workload.name().into(),
        host: host.clone(),
        episodes: episodes.len(),
        traced_episodes: episodes.iter().filter(|e| !e.events.is_empty()).count(),
        layers: metrics_json(layers),
        events: Value::Map(
            ep.events
                .iter()
                .map(|(kind, &n)| (kind.to_string(), Value::UInt(n)))
                .collect(),
        ),
        spans: ep.spans.clone(),
    };
    let text = serde_json::to_string_pretty(&trace).expect("serializing to a string cannot fail");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, text + "\n")?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: helios-perfbench --workload <paper_alexnet|fleet_100k|lossy_wire> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    let host = Host::detect(Path::new("."), threads, args.seed);
    println!("host: {}", json(&host));
    let workload = args.workload;
    let spec = EpisodeSpec::new(workload, args.seed, threads);
    println!(
        "workload: {} ({} cycles per episode, target accuracy {}), {} s, trace {}",
        workload.name(),
        spec.cycles,
        workload.target_accuracy(),
        args.seconds,
        u8::from(args.trace)
    );

    let mut problems = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && setups.iter().sum::<f64>() >= SETUP_MIN_CPU_S {
            break;
        }
        match time_setup(&spec) {
            Ok(s) => setups.push(s),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }

    // Closed loop: episodes back to back until the time is up. A traced
    // run alternates untraced and traced episodes so the tracing
    // overhead is measured within the run.
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        let trace = args.trace && episodes.len() % 2 == 1;
        let ep = run_episode(&EpisodeSpec { trace, ..spec });
        let m = ep.metrics.as_ref();
        println!(
            "episode {}: traced {} wall {:.3}s begin_run {:.4}s final accuracy {:.4} target at cycle {} digest {:016x} failed {}",
            episodes.len(),
            u8::from(trace),
            ep.run_wall_s,
            ep.begin_run_s,
            m.map_or(0.0, |m| m.final_accuracy()),
            m.and_then(|m| m.cycles_to_reach(workload.target_accuracy()))
                .map_or("-".into(), |c| c.to_string()),
            ep.digest,
            ep.failed
        );
        problems.extend(ep.problems.iter().cloned());
        episodes.push(ep);
        // Stop once another episode would overrun the budget by more
        // than half an episode, but not before the tail percentile has
        // enough cycles (and a traced run has both kinds of episode).
        let elapsed = start.elapsed().as_secs_f64();
        let per_episode = elapsed / episodes.len() as f64;
        let attempted: usize = episodes.iter().map(|e| e.attempted).sum();
        let enough = attempted >= MIN_CYCLES && (!args.trace || episodes.len() >= 2);
        if enough && elapsed + per_episode / 2.0 >= args.seconds {
            break;
        }
    }

    let attempted: usize = episodes.iter().map(|e| e.attempted).sum();
    let failed: usize = episodes.iter().map(|e| e.failed).sum();
    let first = &episodes[0];
    if episodes.iter().any(|e| e.digest != first.digest) {
        problems.push("episodes of one seed disagree on the result digest".into());
    }
    if let Some(e) = episodes.iter().find(|e| e.children_overrun_s > 1e-6) {
        problems.push(format!(
            "child spans exceed their parent by {:.3e} s",
            e.children_overrun_s
        ));
    }
    let target = workload.target_accuracy();
    let metrics = first.metrics.as_ref();
    let time_to_target = metrics
        .and_then(|m| m.time_to_reach(target))
        .map(|t| t.as_secs_f64());
    if metrics.is_some() && time_to_target.is_none() {
        problems.push(format!("accuracy target {target} not reached"));
    }
    let final_accuracy = metrics.map_or(0.0, |m| m.final_accuracy());
    let peak_rss = peak_rss_mb();
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "run: final_accuracy {final_accuracy} fraction, sim_time_to_target_s {} sim_s, \
         peak_rss_mb {peak_rss} MB, failed_cycle_share {failed_share} fraction",
        time_to_target.unwrap_or(f64::NAN)
    );

    let result = if args.trace {
        let mut layers = layer_metrics(&episodes, threads);
        layers.push(metric("fl.peak_rss_mb", peak_rss, "MB"));
        layers.push(metric(
            "fl.sim_time_to_target_s",
            time_to_target.unwrap_or(0.0),
            "sim_s",
        ));
        if let Some(m) = layers.iter().find(|m| m.name == "fl.unattributed_s") {
            if m.value < -1e-6 {
                problems.push("phases sum to more than the run wall time".into());
            }
        }
        match write_trace(&args, &host, &episodes, &layers) {
            Ok(path) => println!("trace: wrote {path}"),
            Err(e) => problems.push(format!("trace write failed: {e}")),
        }
        layers
    } else {
        let cycles = || episodes.iter().flat_map(|e| e.cycles.iter());
        let samples = cycles().map(|c| c.samples).sum::<usize>() as f64;
        let cpu: Vec<f64> = cycles().map(|c| c.cpu_s).collect();
        let wall: Vec<f64> = episodes.iter().flat_map(Episode::cycle_wall_s).collect();
        let unstolen: Vec<f64> = episodes
            .iter()
            .flat_map(Episode::cycle_unstolen_s)
            .collect();
        let stolen: f64 = cycles().map(|c| c.steal_s).sum();
        let tail = tail_rank(MIN_CYCLES, TAIL_BEYOND);
        let cpu_tail = tail_at(&cpu, tail);
        let wall_tail = tail_at(&wall, tail);
        println!(
            "cycles: {} timed; the tails are p{} with {} cycles beyond; {} set-ups timed",
            cpu.len(),
            cpu_tail.percentile,
            cpu_tail.beyond,
            setups.len()
        );
        println!(
            "wall: cycle_p50_s {} s, cycle_tail_s {} s, samples_per_s {} samples/s, \
             {stolen} s stolen per CPU",
            median(&wall),
            wall_tail.value,
            samples / wall.iter().sum::<f64>()
        );
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("cycle_p50_s", median(&unstolen), "s"),
            metric("cycle_cpu_p50_s", median(&cpu), "s"),
            metric("cycle_cpu_tail_s", cpu_tail.value, "s"),
            metric(
                "samples_per_cpu_s",
                samples / cpu.iter().sum::<f64>(),
                "samples/s",
            ),
            metric("final_accuracy", final_accuracy, "fraction"),
            metric("cycle_success_share", 1.0 - failed_share, "fraction"),
        ]
    };
    if result.iter().any(|m| !m.value.is_finite()) {
        problems.push("a metric is not finite".into());
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("result digest: {:016x}", first.digest);
    let safe: Vec<Metric> = result
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let report = Report {
        correct,
        attempted,
        failed,
        metrics: metrics_json(&safe),
    };
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
