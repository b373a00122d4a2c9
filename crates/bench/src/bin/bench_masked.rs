//! **BENCH_masked** — packed sub-model execution: does a masked model
//! actually cost less?
//!
//! Trains LeNet at keep ratios 1.0 / 0.5 / 0.25 (leading-units mask on
//! every maskable layer) and records the train-phase kernel flops and
//! wall time under both execution strategies: packed (gather → compact
//! kernels → scatter) and the legacy zeroing path (full-width kernels
//! over mostly-zero operands). Writes `results/BENCH_masked.json`, then
//! re-parses its own output and asserts the tentpole effect — packed
//! flops shrink roughly with the active parameter fraction, and the
//! keep=0.25 sub-model costs at most 40% of the full model — exiting
//! nonzero otherwise.

use helios_bench::results_dir;
use helios_nn::{models, set_packed_execution, CrossEntropyLoss, ModelMask, Network, Sgd};
use helios_tensor::{host_counters, uniform_init, Tensor, TensorRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 42;
const BATCH: usize = 32;
const STEPS: usize = 8;
const KEEPS: [f64; 3] = [1.0, 0.5, 0.25];

#[derive(Debug, Serialize, Deserialize)]
struct KeepReport {
    keep: f64,
    /// Fraction of model parameters live under the mask.
    active_param_fraction: f64,
    /// Train-phase kernel flops with packed execution.
    packed_flops: u64,
    /// Same steps through the legacy zeroing path.
    zeroing_flops: u64,
    packed_wall_s: f64,
    zeroing_wall_s: f64,
    /// `packed_flops` relative to the unmasked model's.
    packed_flops_ratio: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct MaskedBenchReport {
    seed: u64,
    batch: usize,
    steps: usize,
    runs: Vec<KeepReport>,
}

/// First-⌈keep·n⌉-units-active mask over every maskable layer.
fn leading_units_mask(net: &mut Network, keep: f64) -> ModelMask {
    let units = net.maskable_units();
    let mut mask = ModelMask::all_active(&units);
    for (i, &n) in units.0.iter().enumerate() {
        let k = ((keep * n as f64).ceil() as usize).clamp(1, n);
        mask.set_layer(i, Some((0..n).map(|j| j < k).collect()));
    }
    mask
}

/// Runs [`STEPS`] SGD steps and returns `(kernel flops, wall seconds)`.
fn train_cost(net: &mut Network, x: &Tensor, labels: &[usize]) -> (u64, f64) {
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let before = host_counters();
    let start = Instant::now();
    for _ in 0..STEPS {
        net.zero_grad();
        let logits = net.forward(x).expect("forward");
        let (_, grad) = loss.forward_backward(&logits, labels).expect("loss");
        net.backward(&grad).expect("backward");
        opt.step(net).expect("step");
    }
    (
        host_counters().since(&before).flops,
        start.elapsed().as_secs_f64(),
    )
}

fn main() {
    let mut rng = TensorRng::seed_from(SEED);
    let template = models::lenet(10, &mut rng);
    let x = uniform_init(&[BATCH, 1, 16, 16], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();

    println!("Packed sub-model train cost — LeNet, batch {BATCH}, {STEPS} steps");
    let mut runs = Vec::new();
    for keep in KEEPS {
        let mut net = template.clone();
        let mask = leading_units_mask(&mut net, keep);
        let live = net.layout().param_mask(&mask);
        let active_param_fraction =
            live.iter().filter(|&&b| b).count() as f64 / live.len().max(1) as f64;

        let mut packed_net = net.clone();
        packed_net.set_masks(&mask).expect("masks");
        set_packed_execution(true);
        let (packed_flops, packed_wall_s) = train_cost(&mut packed_net, &x, &labels);

        let mut zeroing_net = net;
        zeroing_net.set_masks(&mask).expect("masks");
        set_packed_execution(false);
        let (zeroing_flops, zeroing_wall_s) = train_cost(&mut zeroing_net, &x, &labels);
        set_packed_execution(true);

        println!(
            "keep {keep:>4}  params {:>5.1}%  packed {packed_flops:>12} flops {packed_wall_s:>7.3}s  \
             zeroing {zeroing_flops:>12} flops {zeroing_wall_s:>7.3}s",
            100.0 * active_param_fraction,
        );
        runs.push(KeepReport {
            keep,
            active_param_fraction,
            packed_flops,
            zeroing_flops,
            packed_wall_s,
            zeroing_wall_s,
            packed_flops_ratio: 0.0, // filled against the keep=1.0 baseline below
        });
    }
    let full_flops = runs[0].packed_flops;
    for r in &mut runs {
        r.packed_flops_ratio = r.packed_flops as f64 / full_flops.max(1) as f64;
    }

    let report = MaskedBenchReport {
        seed: SEED,
        batch: BATCH,
        steps: STEPS,
        runs,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_masked.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());

    // Self-check against the artifact we just wrote.
    let parsed: MaskedBenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_masked.json must parse");
    let by_keep = |k: f64| {
        parsed
            .runs
            .iter()
            .find(|r| (r.keep - k).abs() < 1e-9)
            .unwrap_or_else(|| panic!("keep={k} run present"))
    };
    let full = by_keep(1.0);
    let half = by_keep(0.5);
    let quarter = by_keep(0.25);

    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        println!("check: {what} — {}", if cond { "ok" } else { "FAIL" });
        ok &= cond;
    };
    // Flops must be strictly monotone in the keep ratio.
    check(
        "packed flops monotone in keep",
        quarter.packed_flops < half.packed_flops && half.packed_flops < full.packed_flops,
    );
    // The acceptance bar: a quarter-volume sub-model costs well under
    // half of the full model.
    check(
        &format!(
            "keep=0.25 flops ratio {:.3} <= 0.40",
            quarter.packed_flops_ratio
        ),
        quarter.packed_flops_ratio <= 0.40,
    );
    // Packed flops scale with the live parameter fraction: at least the
    // masked parameters' kernels disappear (conv layers masked on both
    // channel axes save even more — compute shrinks quadratically in
    // keep while the fraction counts each parameter once), so the ratio
    // must not exceed the fraction, with a sanity floor against a
    // miscounting kernel.
    for r in [half, quarter] {
        check(
            &format!(
                "keep={} flops ratio {:.3} within [{:.3}, {:.3}]",
                r.keep,
                r.packed_flops_ratio,
                0.25 * r.active_param_fraction,
                r.active_param_fraction + 0.05
            ),
            r.packed_flops_ratio >= 0.25 * r.active_param_fraction
                && r.packed_flops_ratio <= r.active_param_fraction + 0.05,
        );
    }
    // The zeroing path never gets cheaper: identical math, full shapes.
    check(
        "zeroing flops are mask-independent",
        half.zeroing_flops == full.zeroing_flops && quarter.zeroing_flops == full.zeroing_flops,
    );
    if !ok {
        eprintln!("packed-execution self-check failed");
        std::process::exit(1);
    }
}
