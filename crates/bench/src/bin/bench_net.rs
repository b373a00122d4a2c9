//! **BENCH_net** — simulated-network cost of a federated round.
//!
//! Runs the same mixed fleet twice through the simulated transport with
//! constrained straggler links and mild fault injection: once under
//! synchronous FedAvg (every device uploads the full model) and once
//! under Helios (stragglers soft-train and upload the compact masked
//! wire layout). On top of that baseline pair it sweeps every wire-v2
//! compression mode through the same Helios workload, producing an
//! accuracy-vs-bytes tradeoff curve. Writes `results/BENCH_net.json`
//! with per-device bytes on the wire, retry/timeout counts, round
//! times, and the curve, then re-parses its own output and asserts:
//!
//! - every straggler's upload frame is genuinely smaller than the
//!   full-model frame;
//! - every *lossy* v2 mode strictly shrinks the straggler upload frame
//!   below the v1 masked layout while keeping final accuracy within its
//!   per-mode tolerance of the uncompressed reference;
//! - the lossless delta mode never exceeds the masked frame size.
//!
//! Exits nonzero if any check fails.

use helios_bench::results_dir;
use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{
    CompressionConfig, CompressionMode, FaultConfig, FlConfig, FlEnv, LinkProfile, NetConfig,
    Strategy, SyncFedAvg, WireSize,
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
/// Stragglers get the paper's constrained edge uplink, with jitter.
const STRAGGLER_LINK: LinkProfile = LinkProfile::constrained(2e6, 0.05).with_jitter(0.01);

#[derive(Debug, Serialize, Deserialize)]
struct DeviceReport {
    client: usize,
    straggler: bool,
    upload_bytes: u64,
    download_bytes: u64,
    retries: u64,
    missed_cycles: u64,
    /// Size of one upload frame under this device's final mask state.
    upload_frame_bytes: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct RunReport {
    strategy: String,
    cycles: usize,
    total_sim_time_s: f64,
    bytes_on_wire: u64,
    delivered_bytes: u64,
    retries: u64,
    corruptions_detected: u64,
    timeouts: u64,
    failures: u64,
    devices: Vec<DeviceReport>,
}

/// One point on the wire-v2 accuracy-vs-bytes tradeoff curve: the same
/// Helios workload run under one compression mode.
#[derive(Debug, Serialize, Deserialize)]
struct ModePoint {
    mode: String,
    lossless: bool,
    /// Per-mode tolerance on `accuracy_delta_vs_reference` (0 for
    /// lossless modes — they must match the reference exactly).
    accuracy_tolerance: f64,
    final_accuracy: f64,
    final_loss: f64,
    accuracy_delta_vs_reference: f64,
    /// Planned upload frame size for a straggler under its final mask.
    straggler_upload_frame_bytes: usize,
    /// Straggler frame size relative to the v1 masked layout.
    bytes_vs_masked_ratio: f64,
    /// Measured upload bytes across the run (includes retries).
    total_upload_bytes: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct NetBenchReport {
    seed: u64,
    cycles: usize,
    param_count: usize,
    /// Wire size of one full-model frame — the baseline every masked
    /// upload is compared against.
    full_frame_bytes: usize,
    runs: Vec<RunReport>,
    /// Wire-v2 accuracy-vs-bytes tradeoff curve (Helios workload, one
    /// point per compression mode; mode "none" is the reference).
    compression_curve: Vec<ModePoint>,
}

fn make_env(compression: CompressionConfig) -> FlEnv {
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
                compression,
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

/// Runs `strategy` on `env` and reports the transport's ledger plus the
/// final cycle's `(accuracy, loss)`.
fn run_report(name: &str, strategy: &mut dyn Strategy, env: &mut FlEnv) -> (RunReport, f64, f64) {
    let metrics = strategy.run(env, CYCLES).expect("strategy run");
    let last = metrics.records().last().expect("at least one cycle");
    let (final_accuracy, final_loss) = (last.test_accuracy, last.test_loss);
    let transport = env.transport().expect("networking enabled");
    let stats = *transport.stats();
    let devices = (0..transport.num_devices())
        .map(|i| {
            let d = transport.device_stats(i);
            DeviceReport {
                client: i,
                straggler: i >= CAPABLE,
                upload_bytes: d.upload_bytes,
                download_bytes: d.download_bytes,
                retries: d.retries,
                missed_cycles: d.missed_cycles,
                upload_frame_bytes: env
                    .client(i)
                    .expect("client")
                    .upload_wire_size()
                    .total_bytes(),
            }
        })
        .collect();
    let report = RunReport {
        strategy: name.to_string(),
        cycles: metrics.records().len(),
        total_sim_time_s: metrics.total_time().as_secs_f64(),
        bytes_on_wire: stats.bytes_on_wire,
        delivered_bytes: stats.delivered_bytes,
        retries: stats.retries,
        corruptions_detected: stats.corruptions_detected,
        timeouts: stats.timeouts,
        failures: stats.failures,
        devices,
    };
    (report, final_accuracy, final_loss)
}

/// Per-mode accuracy tolerance for the curve's self-check. Lossless
/// modes get 0.0 — they must reproduce the reference exactly.
fn mode_tolerance(mode: CompressionMode) -> f64 {
    match mode {
        CompressionMode::None | CompressionMode::Delta => 0.0,
        CompressionMode::QuantF16 => 0.10,
        CompressionMode::TopK | CompressionMode::QuantInt8 => 0.20,
    }
}

/// Runs the Helios workload under one compression mode and condenses it
/// to a tradeoff-curve point. `reference_accuracy`/`masked_frame_bytes`
/// come from the mode-none run.
fn curve_point(
    mode: CompressionMode,
    reference_accuracy: f64,
    masked_frame_bytes: usize,
) -> ModePoint {
    let compression = CompressionConfig {
        mode,
        ..CompressionConfig::default()
    };
    let mut env = make_env(compression);
    let (run, final_accuracy, final_loss) = run_report(
        compression.mode.as_str(),
        &mut HeliosStrategy::new(HeliosConfig::default()),
        &mut env,
    );
    let straggler_frame = env
        .client(CAPABLE)
        .expect("straggler client")
        .upload_wire_size_with(&compression)
        .total_bytes();
    let total_upload_bytes = run.devices.iter().map(|d| d.upload_bytes).sum();
    ModePoint {
        mode: compression.mode.as_str().to_string(),
        lossless: compression.mode.is_lossless(),
        accuracy_tolerance: mode_tolerance(mode),
        final_accuracy,
        final_loss,
        accuracy_delta_vs_reference: final_accuracy - reference_accuracy,
        straggler_upload_frame_bytes: straggler_frame,
        bytes_vs_masked_ratio: straggler_frame as f64 / masked_frame_bytes as f64,
        total_upload_bytes,
    }
}

fn main() {
    let mut sync_env = make_env(CompressionConfig::default());
    let mut helios_env = make_env(CompressionConfig::default());
    let param_count = sync_env.global().len();
    let full_frame_bytes = WireSize::full(param_count).total_bytes();

    let (sync_run, _, _) = run_report("sync_fedavg_full", &mut SyncFedAvg::new(), &mut sync_env);
    let (helios_run, helios_acc, helios_loss) = run_report(
        "helios_soft_trained",
        &mut HeliosStrategy::new(HeliosConfig::default()),
        &mut helios_env,
    );
    // The v1 masked layout a straggler settles on — the byte baseline
    // every v2 mode is measured against.
    let masked_frame_bytes = helios_env
        .client(CAPABLE)
        .expect("straggler client")
        .upload_wire_size()
        .total_bytes();

    println!("Simulated network — full vs soft-trained exchange ({CYCLES} cycles)");
    for run in [&sync_run, &helios_run] {
        println!(
            "{:<22} sim_time {:>8.2}s  wire {:>9} B  retries {:>3}  corrupt {:>3}  \
             timeouts {:>2}  failures {:>2}",
            run.strategy,
            run.total_sim_time_s,
            run.bytes_on_wire,
            run.retries,
            run.corruptions_detected,
            run.timeouts,
            run.failures,
        );
        for d in &run.devices {
            println!(
                "  client {} ({}) up {:>9} B  down {:>9} B  frame {:>7} B  retries {:>2}  missed {}",
                d.client,
                if d.straggler { "straggler" } else { "capable " },
                d.upload_bytes,
                d.download_bytes,
                d.upload_frame_bytes,
                d.retries,
                d.missed_cycles,
            );
        }
    }

    // Wire-v2 accuracy-vs-bytes curve: the mode-none Helios run above is
    // the reference point; each v2 mode reruns the same seeded workload.
    let mut compression_curve = vec![ModePoint {
        mode: CompressionMode::None.as_str().to_string(),
        lossless: true,
        accuracy_tolerance: 0.0,
        final_accuracy: helios_acc,
        final_loss: helios_loss,
        accuracy_delta_vs_reference: 0.0,
        straggler_upload_frame_bytes: masked_frame_bytes,
        bytes_vs_masked_ratio: 1.0,
        total_upload_bytes: helios_run.devices.iter().map(|d| d.upload_bytes).sum(),
    }];
    for mode in [
        CompressionMode::Delta,
        CompressionMode::TopK,
        CompressionMode::QuantF16,
        CompressionMode::QuantInt8,
    ] {
        compression_curve.push(curve_point(mode, helios_acc, masked_frame_bytes));
    }

    println!("\naccuracy-vs-bytes tradeoff (helios workload, straggler upload frame):");
    for p in &compression_curve {
        println!(
            "  {:<6} frame {:>7} B  ({:>5.1}% of masked)  acc {:.3}  Δacc {:+.3}  loss {:.3}",
            p.mode,
            p.straggler_upload_frame_bytes,
            p.bytes_vs_masked_ratio * 100.0,
            p.final_accuracy,
            p.accuracy_delta_vs_reference,
            p.final_loss,
        );
    }

    let report = NetBenchReport {
        seed: SEED,
        cycles: CYCLES,
        param_count,
        full_frame_bytes,
        runs: vec![sync_run, helios_run],
        compression_curve,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_net.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());

    // Self-check against the artifact we just wrote: parse it back and
    // verify the headline claim — a soft-trained straggler's upload
    // frame is smaller than the full-model frame.
    let parsed: NetBenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_net.json must parse");
    let helios = parsed
        .runs
        .iter()
        .find(|r| r.strategy == "helios_soft_trained")
        .expect("helios run present");
    let mut ok = true;
    for d in helios.devices.iter().filter(|d| d.straggler) {
        let smaller = d.upload_frame_bytes < parsed.full_frame_bytes;
        println!(
            "check: straggler {} frame {} B < full {} B — {}",
            d.client,
            d.upload_frame_bytes,
            parsed.full_frame_bytes,
            if smaller { "ok" } else { "FAIL" }
        );
        ok &= smaller;
    }

    // Wire-v2 curve checks: lossless modes must sit on the reference
    // (zero accuracy delta, never above the masked frame size); lossy
    // modes must strictly shrink the straggler upload while staying
    // inside their accuracy tolerance.
    for p in &parsed.compression_curve {
        if p.mode == "none" {
            continue;
        }
        let (bytes_ok, acc_ok) = if p.lossless {
            (
                p.bytes_vs_masked_ratio <= 1.0,
                p.accuracy_delta_vs_reference == 0.0,
            )
        } else {
            (
                p.bytes_vs_masked_ratio < 1.0,
                p.accuracy_delta_vs_reference.abs() <= p.accuracy_tolerance,
            )
        };
        println!(
            "check: mode {} bytes ratio {:.3} — {}; Δacc {:+.3} within ±{:.2} — {}",
            p.mode,
            p.bytes_vs_masked_ratio,
            if bytes_ok { "ok" } else { "FAIL" },
            p.accuracy_delta_vs_reference,
            p.accuracy_tolerance,
            if acc_ok { "ok" } else { "FAIL" },
        );
        ok &= bytes_ok && acc_ok;
    }

    if !ok {
        eprintln!("wire-size / compression-curve checks failed");
        std::process::exit(1);
    }
}
