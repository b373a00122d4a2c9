//! Golden-metrics regression suite for the round-lifecycle engine.
//!
//! The constants below were captured from fixed-seed runs of the five
//! strategies *before* the strategies were re-expressed as
//! [`helios_fl::RoundPolicy`] hooks on the shared
//! [`helios_fl::RoundDriver`]. Every tuple is the exact bit pattern of
//! `(sim_time, accuracy, loss, participants, comm_bytes)` for one cycle:
//! the refactored engine must reproduce the historical per-strategy
//! loops bit-for-bit, not approximately.
//!
//! On top of the frozen curves, the suite checks the engine's new
//! per-phase instrumentation: the phase timings of every record must sum
//! to that cycle's clock advance (also verified as a property over
//! random fleets/strategies), and the breakdown must be populated
//! identically for every strategy.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{Afo, AsyncFl, FlConfig, FlEnv, RandomPartial, RunMetrics, Strategy, SyncFedAvg};
use helios_nn::models::ModelKind;
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;

const SEED: u64 = 9099;
const CYCLES: usize = 3;

/// `(sim_time bits, accuracy bits, loss bits, participants, comm_bytes
/// bits)` per cycle, captured from the pre-refactor strategy loops.
type GoldenCycle = (u64, u64, u64, usize, u64);

const GOLDEN: &[(&str, &[GoldenCycle])] = &[
    (
        "sync_fedavg",
        &[
            (
                0x401b147a3b1b0d32,
                0x3fcdddddddddddde,
                0x4001d8e540000000,
                3,
                0x411adfc000000000,
            ),
            (
                0x402b147a3b1b0d32,
                0x3fd3333333333333,
                0x3ffec0ee80000000,
                3,
                0x411adfc000000000,
            ),
            (
                0x40344f5bac5449e6,
                0x3fe0000000000000,
                0x3ff9f1ea00000000,
                3,
                0x411adfc000000000,
            ),
        ],
    ),
    (
        "random_partial",
        &[
            (
                0x400115bfc5525a15,
                0x3fcdddddddddddde,
                0x4001c8b060000000,
                3,
                0x411851d000000000,
            ),
            (
                0x401115bfc5525a15,
                0x3fd3333333333333,
                0x400020e5a0000000,
                3,
                0x411851d000000000,
            ),
            (
                0x4019a09fa7fb8720,
                0x3fd7777777777777,
                0x3ffc1d89e0000000,
                3,
                0x411851d000000000,
            ),
        ],
    ),
    (
        "async_fl",
        &[
            (
                0x400115bfc5525a15,
                0x3fd1111111111111,
                0x4001a649a0000000,
                2,
                0x4111ea8000000000,
            ),
            (
                0x401115bfc5525a15,
                0x3fd7777777777777,
                0x3fff121900000000,
                2,
                0x4111ea8000000000,
            ),
            (
                0x4019a09fa7fb8720,
                0x3fddddddddddddde,
                0x3ff9e06b80000000,
                2,
                0x4111ea8000000000,
            ),
        ],
    ),
    (
        "afo",
        &[
            (
                0x400115bfc5525a15,
                0x3fb999999999999a,
                0x4002191dc0000000,
                2,
                0x4111ea8000000000,
            ),
            (
                0x401115bfc5525a15,
                0x3fc5555555555555,
                0x4000e0b880000000,
                2,
                0x4111ea8000000000,
            ),
            (
                0x4019a09fa7fb8720,
                0x3fd7777777777777,
                0x3fff130ba0000000,
                2,
                0x4111ea8000000000,
            ),
        ],
    ),
    (
        "helios",
        &[
            (
                0x400115bfc5525a15,
                0x3fc5555555555555,
                0x4001ba7100000000,
                3,
                0x4118b6c000000000,
            ),
            (
                0x401115bfc5525a15,
                0x3fd5555555555555,
                0x4000149340000000,
                3,
                0x4118b6c000000000,
            ),
            (
                0x4019a09fa7fb8720,
                0x3fd999999999999a,
                0x3ffc788320000000,
                3,
                0x4118b6c000000000,
            ),
        ],
    ),
];

/// `(train_flops, eval_flops)` per cycle of each golden run.
const GOLDEN_FLOPS: &[(&str, &[(u64, u64)])] = &[
    ("sync_fedavg", &[(59304960, 6643200); 3]),
    ("random_partial", &[(45999840, 6643200); 3]),
    ("async_fl", &[(39536640, 6643200); 3]),
    ("afo", &[(39536640, 6643200); 3]),
    ("helios", &[(46794240, 6643200); 3]),
];

fn build_env(
    seed: u64,
    clients: usize,
    per_client: usize,
    test_n: usize,
    threads: Option<usize>,
) -> FlEnv {
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(per_client * clients, test_n, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(clients - 1, 1),
        shards,
        test,
        FlConfig {
            seed,
            parallelism: ParallelismConfig { threads },
            ..FlConfig::default()
        },
    )
    .expect("env")
}

fn golden_strategy(name: &str) -> Box<dyn Strategy> {
    match name {
        "sync_fedavg" => Box::new(SyncFedAvg::new()),
        "random_partial" => Box::new(RandomPartial::new(vec![None, None, Some(0.4)])),
        "async_fl" => Box::new(AsyncFl::new(vec![2])),
        "afo" => Box::new(Afo::new(vec![2])),
        "helios" => Box::new(HeliosStrategy::new(HeliosConfig::default())),
        other => panic!("no golden strategy named {other}"),
    }
}

/// Asserts the per-phase invariants the driver guarantees for every
/// strategy: timings partition each cycle's clock advance, participation
/// counts agree, and (networking disabled here) the wire counters stay
/// zero while the flop counters prove the instrumentation is live.
fn assert_phases_consistent(m: &RunMetrics) {
    let mut prev = 0.0f64;
    for r in m.records() {
        let span = r.sim_time.as_secs_f64() - prev;
        prev = r.sim_time.as_secs_f64();
        let sum = r.phases.train_s + r.phases.comm_s;
        assert!(
            (sum - span).abs() <= 1e-9 * span.max(1.0),
            "{}: cycle {} phases {sum} != span {span}",
            m.strategy(),
            r.cycle
        );
        assert!(r.phases.train_s >= 0.0 && r.phases.comm_s >= 0.0);
        assert_eq!(r.phases.aggregated_updates, r.participants);
        assert_eq!(r.phases.wire_bytes, 0, "networking is disabled");
        assert_eq!(r.phases.retries, 0);
        assert_eq!(r.phases.missed, 0);
        assert!(r.phases.train_flops > 0, "training ran kernels");
        assert!(r.phases.eval_flops > 0, "evaluation ran kernels");
    }
}

/// The tentpole regression: every strategy's fixed-seed curve is
/// bit-identical to its pre-refactor capture, and the serialized form
/// (accuracy/time intact, new fields populated) round-trips.
#[test]
fn fixed_seed_runs_match_pre_refactor_golden_metrics() {
    for (name, golden) in GOLDEN {
        let mut env = build_env(SEED, 3, 30, 30, None);
        let mut strategy = golden_strategy(name);
        let m = strategy.run(&mut env, CYCLES).expect("golden run");
        assert_eq!(m.strategy(), *name);
        assert_eq!(m.records().len(), golden.len());
        for (r, &(time_bits, acc_bits, loss_bits, participants, bytes_bits)) in
            m.records().iter().zip(*golden)
        {
            assert_eq!(
                r.sim_time.as_secs_f64().to_bits(),
                time_bits,
                "{name}: cycle {} sim_time drifted",
                r.cycle
            );
            assert_eq!(
                r.test_accuracy.to_bits(),
                acc_bits,
                "{name}: cycle {} accuracy drifted",
                r.cycle
            );
            assert_eq!(
                r.test_loss.to_bits(),
                loss_bits,
                "{name}: cycle {} loss drifted",
                r.cycle
            );
            assert_eq!(r.participants, participants, "{name}: cycle {}", r.cycle);
            assert_eq!(
                r.comm_bytes.to_bits(),
                bytes_bits,
                "{name}: cycle {} comm_bytes drifted",
                r.cycle
            );
        }
        assert_phases_consistent(&m);
        // The engine profiled the run: host phase timers and the nn/kernel
        // instrumentation all saw work.
        let p = m.profile();
        assert!(p.train_s > 0.0 && p.eval_s > 0.0);
        assert!(p.nn_forward_s > 0.0 && p.nn_backward_s > 0.0 && p.nn_step_s > 0.0);
        assert!(p.kernel_flops > 0 && p.kernel_elements > 0);
        // And the records survive a serialization round-trip unchanged.
        let json = serde_json::to_string(&m).expect("serialize");
        let back: RunMetrics = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, m, "{name}: JSON round-trip drifted");
    }
}

/// The per-cycle `(train_flops, eval_flops)` of the golden runs, at one
/// and at four threads. The driver's counters see exactly its own run —
/// fan-out workers fold their counts into the driving thread on join —
/// so the counts are exact and independent of the thread width.
#[test]
fn fixed_seed_runs_match_golden_flop_counts() {
    for (name, golden) in GOLDEN_FLOPS {
        for threads in [1, 4] {
            let mut env = build_env(SEED, 3, 30, 30, Some(threads));
            let m = golden_strategy(name)
                .run(&mut env, CYCLES)
                .expect("golden run");
            let flops: Vec<(u64, u64)> = m
                .records()
                .iter()
                .map(|r| (r.phases.train_flops, r.phases.eval_flops))
                .collect();
            assert_eq!(flops, *golden, "{name}: flops at {threads} threads");
        }
    }
}

proptest! {
    /// For arbitrary small fleets, strategies, and cycle counts, the
    /// per-phase timings of every cycle sum to exactly that cycle's
    /// clock advance — the driver's accounting invariant.
    #[test]
    fn phase_timings_sum_to_cycle_time(
        strategy_idx in 0usize..5,
        cycles in 1usize..3,
        seed in 0u64..1000,
    ) {
        let (name, _) = GOLDEN[strategy_idx];
        let mut env = build_env(seed, 3, 8, 8, None);
        let mut strategy = golden_strategy(name);
        let m = strategy.run(&mut env, cycles).expect("run");
        prop_assert_eq!(m.records().len(), cycles);
        assert_phases_consistent(&m);
    }
}
