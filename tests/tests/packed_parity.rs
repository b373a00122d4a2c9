//! Packed-vs-zeroing execution parity suite.
//!
//! Masked layers have two execution strategies: the legacy *zeroing*
//! path (full-width kernels, masked outputs/gradients zeroed) and the
//! *packed* path (gather active units, run compact kernels, scatter
//! back). The packed path must be **bitwise identical** — same logits,
//! same loss, same post-SGD parameters — because the full-width matmul
//! kernel skips zero operands term-by-term, so packing removes exactly
//! the terms the zeroing path never accumulated, in the same order.
//!
//! These tests flip the process-wide `set_packed_execution` switch, so
//! every test in this binary serializes on one lock and restores the
//! default (packed on) before releasing it.

use helios_nn::{
    models, set_packed_execution, Conv2d, CrossEntropyLoss, Dense, Flatten, Layer, MaxPool2d,
    ModelMask, Network, ParallelismConfig, Relu, Sgd,
};
use helios_tensor::{host_counters, uniform_init, ConvSpec, Tensor, TensorRng};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests in this binary around the global packed-execution
/// flag, restoring the packed default on drop even if an assertion
/// fails mid-test.
struct ExecGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ExecGuard {
    fn lock() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            // A previous test panicked while holding the lock; the flag
            // is restored by that test's ExecGuard drop, so the state
            // is still clean.
            Err(poisoned) => poisoned.into_inner(),
        };
        ExecGuard(guard)
    }
}

impl Drop for ExecGuard {
    fn drop(&mut self) {
        set_packed_execution(true);
    }
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ParallelismConfig::with_threads(n).scoped();
    f()
}

/// Runs two SGD-with-momentum training steps and captures every
/// observable bit: per-step logits, per-step loss, and the final
/// parameter vector.
fn train_twice(net: &mut Network, x: &Tensor, labels: &[usize]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let mut logit_bits = Vec::new();
    let mut loss_bits = Vec::new();
    for _ in 0..2 {
        net.zero_grad();
        let logits = net.forward(x).expect("forward");
        let (l, grad) = loss.forward_backward(&logits, labels).expect("loss");
        net.backward(&grad).expect("backward");
        opt.step(net).expect("step");
        logit_bits.extend(logits.as_slice().iter().map(|v| v.to_bits()));
        loss_bits.push(l.to_bits());
    }
    let params = net.param_vector().iter().map(|v| v.to_bits()).collect();
    (logit_bits, loss_bits, params)
}

fn mlp(in_features: usize, hidden: usize, classes: usize, seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    let layers = vec![
        Layer::Dense(Dense::new(in_features, hidden, &mut rng)),
        Layer::Relu(Relu::new()),
        Layer::Dense(Dense::new(hidden, hidden, &mut rng)),
        Layer::Relu(Relu::new()),
        Layer::Dense(Dense::new(hidden, classes, &mut rng).non_maskable()),
    ];
    Network::new("mlp", layers, &[in_features], classes)
}

fn conv_net(channels: usize, conv_out: usize, hidden: usize, classes: usize, seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    // 8×8 input → conv(3, pad 1) → pool 2 → flatten: conv_out·4·4.
    let layers = vec![
        Layer::Conv2d(Conv2d::new(
            ConvSpec::new(channels, conv_out, 3, 1, 1),
            &mut rng,
        )),
        Layer::Relu(Relu::new()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(conv_out * 4 * 4, hidden, &mut rng)),
        Layer::Relu(Relu::new()),
        Layer::Dense(Dense::new(hidden, classes, &mut rng).non_maskable()),
    ];
    Network::new("convnet", layers, &[channels, 8, 8], classes)
}

/// Asserts packed and zeroing runs of `net` agree bit-for-bit, and
/// returns the (packed, zeroing) train-step flop counts.
fn assert_packed_parity(
    net: &Network,
    mask: &ModelMask,
    x: &Tensor,
    labels: &[usize],
) -> (u64, u64) {
    let mut packed = net.clone();
    packed.set_masks(mask).expect("set masks (packed)");
    set_packed_execution(true);
    let before = host_counters();
    let got_packed = train_twice(&mut packed, x, labels);
    let packed_flops = host_counters().since(&before).flops;

    let mut zeroing = net.clone();
    zeroing.set_masks(mask).expect("set masks (zeroing)");
    set_packed_execution(false);
    let before = host_counters();
    let got_zeroing = train_twice(&mut zeroing, x, labels);
    let zeroing_flops = host_counters().since(&before).flops;
    set_packed_execution(true);

    assert_eq!(got_packed.0, got_zeroing.0, "logit bits diverged");
    assert_eq!(got_packed.1, got_zeroing.1, "loss bits diverged");
    assert_eq!(got_packed.2, got_zeroing.2, "parameter bits diverged");
    (packed_flops, zeroing_flops)
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

proptest! {
    /// Forward, backward, and two SGD steps of a masked MLP agree
    /// bit-for-bit between packed and zeroing execution, for arbitrary
    /// shapes, batch sizes, and masks (including all-true / all-false
    /// layers, which exercise the legacy fallback).
    #[test]
    fn dense_parity_over_random_shapes_and_masks(
        in_features in 2usize..16,
        hidden in 3usize..20,
        batch in 1usize..6,
        seed in 0u64..500,
        mask_seed in 0u64..500,
    ) {
        let _exec = ExecGuard::lock();
        let net = mlp(in_features, hidden, 4, seed);
        let mut mask_rng = TensorRng::seed_from(mask_seed);
        let bits = uniform_init(&[2 * hidden], 0.0, 1.0, &mut mask_rng);
        let layer_mask = |off: usize| -> Vec<bool> {
            (0..hidden).map(|j| bits.as_slice()[off + j] < 0.6).collect()
        };
        let mask = ModelMask::from_layers(vec![Some(layer_mask(0)), Some(layer_mask(hidden))]);
        let mut rng = TensorRng::seed_from(seed ^ 0x9e37);
        let x = uniform_init(&[batch, in_features], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();
        assert_packed_parity(&net, &mask, &x, &labels);
    }

    /// Same bitwise parity over a conv → pool → flatten → dense
    /// pipeline, which additionally exercises channel gather/scatter
    /// and the input-mask propagation across pooling and flatten.
    #[test]
    fn conv_parity_over_random_shapes_and_masks(
        channels in 1usize..4,
        conv_out in 2usize..7,
        hidden in 4usize..14,
        batch in 1usize..4,
        seed in 0u64..500,
        mask_seed in 0u64..500,
    ) {
        let _exec = ExecGuard::lock();
        let net = conv_net(channels, conv_out, hidden, 3, seed);
        let mut mask_rng = TensorRng::seed_from(mask_seed);
        let bits = uniform_init(&[conv_out + hidden], 0.0, 1.0, &mut mask_rng);
        let conv_mask: Vec<bool> = (0..conv_out).map(|j| bits.as_slice()[j] < 0.6).collect();
        let dense_mask: Vec<bool> =
            (0..hidden).map(|j| bits.as_slice()[conv_out + j] < 0.6).collect();
        let mask = ModelMask::from_layers(vec![Some(conv_mask), Some(dense_mask)]);
        let mut rng = TensorRng::seed_from(seed ^ 0x51f3);
        let x = uniform_init(&[batch, channels, 8, 8], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
        assert_packed_parity(&net, &mask, &x, &labels);
    }
}

/// Packed execution stays bitwise identical to the serial zeroing
/// baseline at every thread width — the packed kernels partition work
/// the same way the full-width ones do.
#[test]
fn packed_parity_holds_at_every_thread_width() {
    let _exec = ExecGuard::lock();
    let net = conv_net(3, 6, 12, 3, 77);
    let mut probe = net.clone();
    let mask = leading_units_mask(&mut probe, 0.5);
    let mut rng = TensorRng::seed_from(78);
    let x = uniform_init(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
    let labels = vec![0, 1, 2, 0];

    set_packed_execution(false);
    let mut baseline_net = net.clone();
    baseline_net.set_masks(&mask).expect("masks");
    let baseline = with_threads(1, || train_twice(&mut baseline_net, &x, &labels));
    set_packed_execution(true);

    for threads in [1, 2, 4, 8] {
        let mut packed = net.clone();
        packed.set_masks(&mask).expect("masks");
        let got = with_threads(threads, || train_twice(&mut packed, &x, &labels));
        assert_eq!(got, baseline, "packed run at {threads} threads diverged");
    }
}

/// Recorded kernel flops are strictly monotone in the keep ratio: the
/// packed path does proportionally less work, which is the entire point
/// of sub-model soft-training.
#[test]
fn packed_flops_are_monotone_in_keep_ratio() {
    let _exec = ExecGuard::lock();
    let mut rng = TensorRng::seed_from(5);
    let net = models::lenet(10, &mut rng);
    let x = uniform_init(&[8, 1, 16, 16], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();

    let mut flops = Vec::new();
    for keep in [0.25, 0.5, 1.0] {
        let mut run = net.clone();
        let mask = leading_units_mask(&mut run, keep);
        run.set_masks(&mask).expect("masks");
        let before = host_counters();
        train_twice(&mut run, &x, &labels);
        flops.push(host_counters().since(&before).flops);
    }
    assert!(
        flops[0] < flops[1] && flops[1] < flops[2],
        "flops must grow with keep ratio: {flops:?}"
    );
    assert!(
        (flops[0] as f64) < 0.4 * flops[2] as f64,
        "keep=0.25 must cost well under 40% of the full model ({} vs {})",
        flops[0],
        flops[2]
    );
}
