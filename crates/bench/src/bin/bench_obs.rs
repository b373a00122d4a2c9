//! **BENCH_obs** — cost and coverage of the observability layer.
//!
//! Runs a lossy-link Helios workload (the `bench_engine` fleet with the
//! `bench_net` fault profile) twice: once with no sink installed (the
//! production configuration — tracing disabled) and once with JSONL +
//! ring-buffer sinks attached. From the disabled run it measures the
//! workload wall time; a micro-benchmark then prices one disabled
//! `emit()` call, and the product `events × per_emit_cost` must stay
//! under 3% of the workload time — the "zero-cost when off" contract of
//! `helios-obs`. The enabled run writes `results/trace_obs.jsonl` and a
//! Chrome `trace_event` file (`results/trace_obs_chrome.json`, loadable
//! in Perfetto), and the trace is re-parsed to prove it round-trips.
//! Writes `results/BENCH_obs.json`, re-parses it, and exits nonzero
//! when any self-check fails.

use helios_bench::results_dir;
use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FaultConfig, FlConfig, FlEnv, LinkProfile, NetConfig, Strategy};
use helios_nn::models::ModelKind;
use helios_obs::{chrome_trace, RingBufferSink, TraceEvent};
use helios_tensor::TensorRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 42;
const CYCLES: usize = 3;
const CAPABLE: usize = 2;
const STRAGGLERS: usize = 2;
/// Disabled-`emit` micro-benchmark iterations.
const EMIT_REPS: u64 = 1_000_000;
/// Disabled-mode overhead budget: estimated emit cost over workload
/// wall time.
const OVERHEAD_BUDGET: f64 = 0.03;

/// Capable devices sit behind a fast, low-latency link.
const CAPABLE_LINK: LinkProfile = LinkProfile::constrained(50e6, 0.01);
/// Stragglers get the paper's constrained edge uplink.
const STRAGGLER_LINK: LinkProfile = LinkProfile::constrained(2e6, 0.05);

#[derive(Debug, Serialize, Deserialize)]
struct ObsBenchReport {
    seed: u64,
    cycles: usize,
    /// Wall time of the workload with tracing disabled (no sink).
    workload_disabled_s: f64,
    /// Wall time of the same workload with JSONL + ring sinks attached.
    workload_enabled_s: f64,
    /// Events the enabled run emitted.
    events_emitted: usize,
    /// Measured cost of one disabled `emit()` call, nanoseconds.
    disabled_emit_ns: f64,
    /// `events × per-emit cost` over the disabled workload time — the
    /// worst-case share tracing instrumentation costs when off.
    estimated_disabled_overhead: f64,
    /// The budget the estimate is checked against.
    overhead_budget: f64,
    /// FNV-1a digest of the JSONL trace bytes (the determinism pin the
    /// trace test asserts independently).
    trace_digest_fnv1a: String,
    /// Chrome `trace_event` objects exported.
    chrome_events: usize,
}

fn make_env() -> FlEnv {
    let clients = CAPABLE + STRAGGLERS;
    let mut rng = TensorRng::seed_from(SEED);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(40 * clients, 40, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    let mut env = FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(CAPABLE, STRAGGLERS),
        shards,
        test,
        FlConfig {
            seed: SEED,
            net: NetConfig {
                enabled: true,
                link: CAPABLE_LINK,
                faults: FaultConfig {
                    drop_prob: 0.05,
                    corrupt_prob: 0.05,
                    delay_prob: 0.10,
                    max_extra_delay_s: 0.25,
                },
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("env");
    // mixed_fleet puts capable devices first, stragglers after.
    for i in CAPABLE..clients {
        env.set_link(i, STRAGGLER_LINK).expect("set_link");
    }
    env
}

/// Runs the Helios strategy over a fresh environment, returning wall
/// seconds.
fn run_workload() -> f64 {
    let mut env = make_env();
    let mut strategy = HeliosStrategy::new(HeliosConfig::default());
    let start = Instant::now();
    strategy.run(&mut env, CYCLES).expect("strategy run");
    start.elapsed().as_secs_f64()
}

/// Prices one disabled `emit()` call in nanoseconds.
fn disabled_emit_ns() -> f64 {
    assert!(
        !helios_obs::enabled(),
        "micro-benchmark requires tracing off"
    );
    let start = Instant::now();
    for i in 0..EMIT_REPS {
        // The opaque barrier may write any memory, so the thread-local
        // enabled flag is re-read every iteration, as at a real call
        // site; without it the check is hoisted and the loop deleted.
        std::hint::black_box(i);
        helios_obs::emit(|| TraceEvent::Timeout { device: i });
    }
    start.elapsed().as_secs_f64() * 1e9 / EMIT_REPS as f64
}

fn main() {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");

    // 1. Production configuration: no sink, tracing disabled.
    let workload_disabled_s = run_workload();

    // 2. How much does the instrumentation cost while disabled?
    let emit_ns = disabled_emit_ns();

    // 3. Traced run: JSONL + ring sinks, same seed.
    let trace_path = dir.join("trace_obs.jsonl");
    let ring = RingBufferSink::with_capacity(1 << 20);
    let jsonl = helios_obs::JsonlSink::create(&trace_path).expect("trace file");
    let handle_ring = helios_obs::install(Box::new(ring.clone()));
    let handle_jsonl = helios_obs::install(Box::new(jsonl));
    let start = Instant::now();
    let workload_enabled_s = {
        let mut env = make_env();
        let mut strategy = HeliosStrategy::new(HeliosConfig::default());
        strategy.run(&mut env, CYCLES).expect("traced strategy run");
        start.elapsed().as_secs_f64()
    };
    drop(handle_jsonl); // detach + flush the file
    drop(handle_ring);

    let records = ring.records();
    assert!(!records.is_empty(), "traced run must emit events");

    // The JSONL file must round-trip to the in-memory record stream.
    let trace_bytes = std::fs::read(&trace_path).expect("read trace back");
    let parsed = helios_obs::parse_jsonl(&String::from_utf8(trace_bytes.clone()).expect("utf8"))
        .expect("trace parses");
    assert_eq!(parsed, records, "JSONL round-trips the emitted stream");
    let digest = helios_obs::content_digest(&trace_bytes);

    // 4. Chrome trace_event export for Perfetto (see EXPERIMENTS.md).
    let chrome = chrome_trace(&records);
    let chrome_path = dir.join("trace_obs_chrome.json");
    std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
    let chrome_json: serde::value::Value =
        serde_json::from_str(&chrome).expect("chrome JSON parses");
    let chrome_events = match &chrome_json {
        serde::value::Value::Map(pairs) => match serde::value::find(pairs, "traceEvents") {
            Some(serde::value::Value::Seq(events)) => events.len(),
            _ => 0,
        },
        _ => 0,
    };
    assert!(chrome_events > 0, "chrome export must contain events");

    let estimated = emit_ns * 1e-9 * records.len() as f64 / workload_disabled_s;

    println!("Observability cost — {CAPABLE} capable + {STRAGGLERS} stragglers, {CYCLES} cycles");
    println!("workload (tracing off) {workload_disabled_s:>9.3}s");
    println!("workload (traced)      {workload_enabled_s:>9.3}s");
    println!("events emitted         {:>9}", records.len());
    println!("disabled emit          {emit_ns:>9.2} ns/call");
    println!(
        "est. disabled overhead {:>9.4}% (budget {:.1}%)",
        estimated * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
    println!("trace digest           {digest:#018x}");
    println!("chrome events          {chrome_events:>9}");

    let report = ObsBenchReport {
        seed: SEED,
        cycles: CYCLES,
        workload_disabled_s,
        workload_enabled_s,
        events_emitted: records.len(),
        disabled_emit_ns: emit_ns,
        estimated_disabled_overhead: estimated,
        overhead_budget: OVERHEAD_BUDGET,
        trace_digest_fnv1a: format!("{digest:#018x}"),
        chrome_events,
    };
    let path = dir.join("BENCH_obs.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());
    println!("wrote {}", trace_path.display());
    println!("wrote {}", chrome_path.display());

    // Self-check against the artifact we just wrote: tracing must be
    // effectively free when no sink is installed.
    let parsed: ObsBenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_obs.json must parse");
    let overhead_ok = parsed.estimated_disabled_overhead < parsed.overhead_budget;
    println!(
        "check: disabled overhead {:.4}% < {:.1}% — {}",
        parsed.estimated_disabled_overhead * 100.0,
        parsed.overhead_budget * 100.0,
        if overhead_ok { "ok" } else { "FAIL" }
    );
    if !overhead_ok {
        eprintln!("observability self-check failed");
        std::process::exit(1);
    }
}
