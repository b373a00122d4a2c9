//! **BENCH_engine** — per-phase cost breakdown of the round-lifecycle
//! engine.
//!
//! Runs one straggler-heavy workload (constrained uplinks, networking
//! enabled) through all five strategies and records what the unified
//! [`helios_fl::RoundDriver`] measured for every cycle: simulated train
//! and communication time, wire bytes and retries, missed deliveries,
//! and kernel flops. Writes `results/BENCH_engine.json`, then re-parses
//! its own output and asserts the paper's headline effect — under
//! Helios, soft-trained stragglers shrink the train phase's share of
//! the round versus synchronous FedAvg — exiting nonzero otherwise.

use helios_bench::results_dir;
use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{
    Afo, AsyncFl, FlConfig, FlEnv, LinkProfile, NetConfig, RandomPartial, Strategy, SyncFedAvg,
};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;
use serde::{Deserialize, Serialize};

const SEED: u64 = 42;
const CYCLES: usize = 3;
const CAPABLE: usize = 2;
const STRAGGLERS: usize = 2;

/// Capable devices sit behind a fast, low-latency link.
const CAPABLE_LINK: LinkProfile = LinkProfile::constrained(50e6, 0.01);
/// Stragglers get the paper's constrained edge uplink.
const STRAGGLER_LINK: LinkProfile = LinkProfile::constrained(2e6, 0.05);

#[derive(Debug, Serialize, Deserialize)]
struct CycleReport {
    cycle: usize,
    train_s: f64,
    comm_s: f64,
    comm_bytes: f64,
    wire_bytes: u64,
    retries: u64,
    missed: usize,
    aggregated_updates: usize,
    train_flops: u64,
    eval_flops: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct RunReport {
    strategy: String,
    total_sim_time_s: f64,
    total_train_s: f64,
    total_comm_s: f64,
    /// Fraction of simulated round time spent in the train phase.
    train_share: f64,
    /// Simulated local-training time of each device under its final
    /// mask state (capable devices first, stragglers after).
    device_train_s: Vec<f64>,
    /// The slowest straggler's local-training time as a fraction of the
    /// mean cycle span — how much of the round the straggler spends
    /// training. Helios shrinks this by soft-training stragglers.
    straggler_train_share: f64,
    total_wire_bytes: u64,
    cycles: Vec<CycleReport>,
}

#[derive(Debug, Serialize, Deserialize)]
struct EngineBenchReport {
    seed: u64,
    cycles: usize,
    capable: usize,
    stragglers: usize,
    runs: Vec<RunReport>,
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

fn run_report(strategy: &mut dyn Strategy) -> RunReport {
    let mut env = make_env();
    let metrics = strategy.run(&mut env, CYCLES).expect("strategy run");
    let cycles: Vec<CycleReport> = metrics
        .records()
        .iter()
        .map(|r| CycleReport {
            cycle: r.cycle,
            train_s: r.phases.train_s,
            comm_s: r.phases.comm_s,
            comm_bytes: r.comm_bytes,
            wire_bytes: r.phases.wire_bytes,
            retries: r.phases.retries,
            missed: r.phases.missed,
            aggregated_updates: r.phases.aggregated_updates,
            train_flops: r.phases.train_flops,
            eval_flops: r.phases.eval_flops,
        })
        .collect();
    let total_train_s: f64 = cycles.iter().map(|c| c.train_s).sum();
    let total_comm_s: f64 = cycles.iter().map(|c| c.comm_s).sum();
    let span = total_train_s + total_comm_s;
    let device_train_s: Vec<f64> = (0..CAPABLE + STRAGGLERS)
        .map(|i| env.client(i).expect("client").cycle_time().as_secs_f64())
        .collect();
    let slowest_straggler = device_train_s[CAPABLE..]
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    let mean_cycle_span = metrics.total_time().as_secs_f64() / CYCLES as f64;
    RunReport {
        strategy: metrics.strategy().to_string(),
        total_sim_time_s: metrics.total_time().as_secs_f64(),
        total_train_s,
        total_comm_s,
        train_share: if span > 0.0 {
            total_train_s / span
        } else {
            0.0
        },
        device_train_s,
        straggler_train_share: if mean_cycle_span > 0.0 {
            slowest_straggler / mean_cycle_span
        } else {
            0.0
        },
        total_wire_bytes: cycles.iter().map(|c| c.wire_bytes).sum(),
        cycles,
    }
}

fn main() {
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(SyncFedAvg::new()),
        Box::new(RandomPartial::new(vec![None, None, Some(0.4), Some(0.4)])),
        Box::new(AsyncFl::new(vec![2, 3])),
        Box::new(Afo::new(vec![2, 3])),
        Box::new(HeliosStrategy::new(HeliosConfig::default())),
    ];

    println!(
        "Per-phase round breakdown — {CAPABLE} capable + {STRAGGLERS} stragglers, {CYCLES} cycles"
    );
    let mut runs = Vec::new();
    for mut s in strategies {
        let run = run_report(s.as_mut());
        println!(
            "{:<16} sim_time {:>8.2}s  train {:>8.2}s  comm {:>7.2}s  share {:>5.3}  \
             straggler-share {:>5.3}  wire {:>9} B",
            run.strategy,
            run.total_sim_time_s,
            run.total_train_s,
            run.total_comm_s,
            run.train_share,
            run.straggler_train_share,
            run.total_wire_bytes,
        );
        for c in &run.cycles {
            println!(
                "  cycle {}  train {:>8.2}s  comm {:>7.2}s  wire {:>9} B  retries {:>2}  missed {}  agg {}",
                c.cycle, c.train_s, c.comm_s, c.wire_bytes, c.retries, c.missed, c.aggregated_updates,
            );
        }
        runs.push(run);
    }

    let report = EngineBenchReport {
        seed: SEED,
        cycles: CYCLES,
        capable: CAPABLE,
        stragglers: STRAGGLERS,
        runs,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_engine.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());

    // Self-check against the artifact we just wrote: soft-trained
    // stragglers must shrink both the absolute train-phase time and the
    // train phase's share of the round relative to synchronous FedAvg.
    let parsed: EngineBenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_engine.json must parse");
    let by_name = |n: &str| {
        parsed
            .runs
            .iter()
            .find(|r| r.strategy == n)
            .unwrap_or_else(|| panic!("{n} run present"))
    };
    let sync = by_name("sync_fedavg");
    let helios = by_name("helios");
    let time_ok = helios.total_train_s < sync.total_train_s;
    let share_ok = helios.straggler_train_share < sync.straggler_train_share;
    println!(
        "check: helios train {:.2}s < sync {:.2}s — {}",
        helios.total_train_s,
        sync.total_train_s,
        if time_ok { "ok" } else { "FAIL" }
    );
    println!(
        "check: helios straggler train share {:.3} < sync {:.3} — {}",
        helios.straggler_train_share,
        sync.straggler_train_share,
        if share_ok { "ok" } else { "FAIL" }
    );
    if !(time_ok && share_ok) {
        eprintln!("train-phase self-check failed");
        std::process::exit(1);
    }
}
