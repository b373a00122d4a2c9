//! The timing wrapper must not change what it measures, the result
//! digest must not depend on the thread budget or on tracing, and the
//! output checks must catch a broken cycle.

use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv, Result, RoundDriver, RoundPolicy, RoutedCycle, SyncFedAvg};
use helios_nn::models::ModelKind;
use helios_perfbench::episode::{check_cycles, digest, run_episode, EpisodeSpec};
use helios_perfbench::timing::Timed;
use helios_perfbench::workload::Workload;
use helios_tensor::{ParallelismConfig, TensorRng};

const SEED: u64 = 7;

/// A short episode of `workload` (the `lossy_wire` scenario timeline
/// scales down with it, so churn and throttling still happen).
fn short(workload: Workload, threads: usize) -> EpisodeSpec {
    let cycles = match workload {
        Workload::PaperAlexnet => 3,
        Workload::Fleet100k => 2,
        Workload::LossyWire => 8,
    };
    EpisodeSpec {
        cycles,
        ..EpisodeSpec::new(workload, SEED, threads)
    }
}

#[test]
fn wrapping_is_bitwise_transparent() {
    for workload in Workload::ALL {
        let spec = short(workload, 2);
        let (bare, bare_digest) = {
            let _budget = ParallelismConfig::with_threads(spec.threads).scoped();
            let mut env = workload.build(SEED, spec.threads, spec.cycles).unwrap().env;
            let metrics =
                RoundDriver::run(workload.policy().as_mut(), &mut env, spec.cycles).unwrap();
            let d = digest(&metrics, env.global());
            (metrics, d)
        };
        let timed = run_episode(&spec);
        assert!(timed.problems.is_empty(), "{:?}", timed.problems);
        assert_eq!(Some(bare), timed.metrics, "{}", workload.name());
        assert_eq!(bare_digest, timed.digest, "{}", workload.name());
        assert_eq!(timed.cycles.len(), timed.attempted);
    }
}

#[test]
fn digest_ignores_threads_and_tracing() {
    for workload in Workload::ALL {
        let serial = run_episode(&short(workload, 1));
        let traced = run_episode(&EpisodeSpec {
            trace: true,
            ..short(workload, 2)
        });
        assert_eq!(serial.failed, 0, "{:?}", serial.problems);
        assert_eq!(traced.failed, 0, "{:?}", traced.problems);
        assert!(!traced.events.is_empty());
        assert_eq!(serial.digest, traced.digest, "{}", workload.name());
    }
}

/// FedAvg that corrupts the global model after aggregating `cycle`.
struct Poison {
    inner: SyncFedAvg,
    cycle: usize,
}

impl RoundPolicy for Poison {
    fn name(&self) -> &str {
        "poison"
    }

    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        self.inner.aggregate(env, cycle, routed)?;
        if cycle == self.cycle {
            let mut global = env.global().to_vec();
            global[0] = f32::NAN;
            env.set_global(global)?;
        }
        Ok(())
    }
}

#[test]
fn output_checks_fail_the_broken_cycle() {
    let mut rng = TensorRng::seed_from(SEED);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(64, 32, &mut rng)
        .unwrap();
    let shards = partition::iid(train.len(), 2, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx))
        .collect::<std::result::Result<Vec<Dataset>, _>>()
        .unwrap();
    let mut env = FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(1, 1),
        shards,
        test,
        FlConfig {
            seed: SEED,
            ..FlConfig::default()
        },
    )
    .unwrap();
    let mut policy = Poison {
        inner: SyncFedAvg::new(),
        cycle: 1,
    };
    let mut timed = Timed::new(&mut policy);
    let metrics = RoundDriver::run(&mut timed, &mut env, 3).unwrap();
    timed.finish();
    let problems = check_cycles(metrics.records(), timed.cycles(), 3);
    assert!(!problems.is_empty());
    assert!(problems[0].starts_with("cycle 1:"), "{problems:?}");
    assert!(problems[0].contains("non-finite global parameters"));
    assert_eq!(timed.children_overrun_s(), 0.0);
    // A count mismatch fails every cycle.
    assert_eq!(check_cycles(metrics.records(), timed.cycles(), 4).len(), 4);
}
