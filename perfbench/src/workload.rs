//! The three benchmark workloads: how each builds its environment and
//! policy from a seed, how many cycles one episode runs, and the
//! accuracy target it must reach.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, ShardSynthesizer, SyntheticVision};
use helios_device::{presets, ProfileSynthesizer};
use helios_fl::{
    ChurnAction, ChurnEvent, CompressionConfig, CompressionMode, FaultConfig, FlConfig, FlEnv,
    FleetSpec, LinkProfile, NetConfig, ParallelismConfig, RoundPolicy, SamplerConfig,
    ScenarioConfig, SyncFedAvg, ThrottleRule,
};
use helios_nn::models::ModelKind;
use helios_tensor::TensorRng;
use std::error::Error;
use std::time::Instant;

/// Seed of the synthetic datasets. Like a real benchmark dataset, the
/// data stays fixed; the workload seed varies everything else (model
/// initialization, shuffling and partitioning, device profiles, cohort
/// sampling, fault draws).
const DATA_SEED: u64 = 2021;

/// Megabits per second expressed in the link model's bytes per second.
const fn mbps(m: f64) -> f64 {
    m * 1e6 / 8.0
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 5 setup: AlexNet on CIFAR-10-like data, 2 capable
    /// devices and 2 stragglers on clean constrained links, Helios.
    PaperAlexnet,
    /// 100k lazily enrolled devices, 500-device uniform cohorts, LeNet,
    /// synchronous FedAvg, networking off.
    Fleet100k,
    /// 2,000 lazy devices, 64-device cohorts, Helios on LeNet over a
    /// faulty network with top-k uploads, a deadline, a bandwidth
    /// throttle ramp, and one device that leaves and returns.
    LossyWire,
}

/// A freshly built environment plus the host time its data took.
pub struct Built {
    /// The environment, ready for `begin_run`.
    pub env: FlEnv,
    /// Host seconds spent synthesizing datasets (and partitioning them).
    pub data_generate_s: f64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAlexnet,
        Workload::Fleet100k,
        Workload::LossyWire,
    ];

    /// Parses a workload name as passed to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAlexnet => "paper_alexnet",
            Workload::Fleet100k => "fleet_100k",
            Workload::LossyWire => "lossy_wire",
        }
    }

    /// Aggregation cycles in one full episode.
    pub fn cycles(self) -> usize {
        match self {
            Workload::PaperAlexnet => 25,
            Workload::Fleet100k => 20,
            Workload::LossyWire => 50,
        }
    }

    /// Test accuracy the global model must reach within an episode;
    /// `sim_time_to_target_s` is the simulated time until it first does.
    pub fn target_accuracy(self) -> f64 {
        match self {
            Workload::PaperAlexnet => 0.55,
            Workload::Fleet100k => 0.50,
            Workload::LossyWire => 0.75,
        }
    }

    /// A fresh policy for one episode.
    pub fn policy(self) -> Box<dyn RoundPolicy> {
        match self {
            Workload::PaperAlexnet | Workload::LossyWire => {
                Box::new(HeliosStrategy::new(HeliosConfig::default()))
            }
            Workload::Fleet100k => Box::new(SyncFedAvg::new()),
        }
    }

    /// Builds the environment for an episode of `cycles` cycles (the
    /// scenario timeline of `lossy_wire` scales with the episode).
    ///
    /// # Errors
    ///
    /// Propagates data-synthesis and environment-construction errors.
    pub fn build(self, seed: u64, threads: usize, cycles: usize) -> Result<Built, Box<dyn Error>> {
        let parallelism = ParallelismConfig::with_threads(threads);
        match self {
            Workload::PaperAlexnet => paper_alexnet(seed, parallelism),
            Workload::Fleet100k => fleet_100k(seed, parallelism),
            Workload::LossyWire => lossy_wire(seed, parallelism, cycles),
        }
    }
}

/// Fig 5: 2 capable + 2 straggler devices, 120 samples each, 300 test
/// samples; capable devices on 50 Mbps links, stragglers on 2 Mbps, no
/// faults, v1 masked frames.
fn paper_alexnet(seed: u64, parallelism: ParallelismConfig) -> Result<Built, Box<dyn Error>> {
    const CAPABLE: usize = 2;
    const STRAGGLERS: usize = 2;
    const PER_CLIENT: usize = 120;
    const TEST_SAMPLES: usize = 300;
    let clients = CAPABLE + STRAGGLERS;
    let t = Instant::now();
    let spec = SyntheticVision {
        noise_std: 1.5,
        ..SyntheticVision::cifar10_like()
    };
    let (train, test) = spec.generate(
        PER_CLIENT * clients,
        TEST_SAMPLES,
        &mut TensorRng::seed_from(DATA_SEED),
    )?;
    let shards = partition::iid(train.len(), clients, &mut TensorRng::seed_from(seed))
        .into_iter()
        .map(|idx| train.subset(&idx))
        .collect::<Result<Vec<Dataset>, _>>()?;
    let data_generate_s = t.elapsed().as_secs_f64();
    let mut env = FlEnv::new(
        ModelKind::AlexNet,
        presets::mixed_fleet(CAPABLE, STRAGGLERS),
        shards,
        test,
        FlConfig {
            seed,
            learning_rate: 0.04,
            parallelism,
            net: NetConfig {
                enabled: true,
                link: LinkProfile::constrained(mbps(50.0), 0.0),
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )?;
    for straggler in CAPABLE..clients {
        env.set_link(straggler, LinkProfile::constrained(mbps(2.0), 0.0))?;
    }
    Ok(Built {
        env,
        data_generate_s,
    })
}

/// 100k lazily enrolled LeNet devices with 8-sample shards, uniform
/// 500-device cohorts, eviction on, networking off.
fn fleet_100k(seed: u64, parallelism: ParallelismConfig) -> Result<Built, Box<dyn Error>> {
    const POPULATION: usize = 100_000;
    const COHORT: usize = 500;
    const SHARD_SAMPLES: usize = 8;
    const TEST_SAMPLES: usize = 512;
    let t = Instant::now();
    let shards = ShardSynthesizer::new(SyntheticVision::mnist_like(), SHARD_SAMPLES, DATA_SEED)?;
    let test = shards.test_set(TEST_SAMPLES)?;
    let data_generate_s = t.elapsed().as_secs_f64();
    let spec =
        FleetSpec::new(POPULATION, ProfileSynthesizer::new(seed, 0.3), shards).evict_unsampled();
    let env = FlEnv::new_lazy(
        ModelKind::LeNet,
        spec,
        test,
        FlConfig {
            seed,
            parallelism,
            sampling: SamplerConfig::uniform(COHORT),
            ..FlConfig::default()
        },
    )?;
    Ok(Built {
        env,
        data_generate_s,
    })
}

/// 2,000 lazy LeNet devices with 16-sample shards of noisy MNIST-like
/// data, 64-device cohorts, learning rate 0.1, Helios over a faulty
/// network: 5% drops, 5% corruptions, 10% delays, top-k (0.25) uploads,
/// a round deadline, a fleet-wide bandwidth throttle ramp, and device 0
/// leaving for the middle of the episode.
fn lossy_wire(
    seed: u64,
    parallelism: ParallelismConfig,
    cycles: usize,
) -> Result<Built, Box<dyn Error>> {
    const POPULATION: usize = 2_000;
    const COHORT: usize = 64;
    const SHARD_SAMPLES: usize = 16;
    const TEST_SAMPLES: usize = 512;
    let t = Instant::now();
    // Noisier than the MNIST-like default, so accuracy plateaus near
    // 0.93 rather than at 1.0 and can move either way.
    let data = SyntheticVision {
        noise_std: 1.2,
        ..SyntheticVision::mnist_like()
    };
    let shards = ShardSynthesizer::new(data, SHARD_SAMPLES, DATA_SEED)?;
    let test = shards.test_set(TEST_SAMPLES)?;
    let data_generate_s = t.elapsed().as_secs_f64();
    let spec =
        FleetSpec::new(POPULATION, ProfileSynthesizer::new(seed, 0.3), shards).evict_unsampled();
    let churn = |cycle: usize, action: ChurnAction| ChurnEvent {
        cycle,
        action,
        device: 0,
        count: 1,
    };
    let scenario = ScenarioConfig {
        throttle: vec![ThrottleRule {
            start_cycle: cycles / 4,
            device: None,
            compute_decay: 0.0,
            bandwidth_decay: 0.05,
            floor: 0.5,
        }],
        churn: vec![
            churn(cycles / 4, ChurnAction::Leave),
            churn(cycles * 5 / 8, ChurnAction::Return),
        ],
        ..ScenarioConfig::default()
    };
    let env = FlEnv::new_lazy(
        ModelKind::LeNet,
        spec,
        test,
        FlConfig {
            seed,
            parallelism,
            sampling: SamplerConfig::uniform(COHORT),
            learning_rate: 0.1,
            net: NetConfig {
                enabled: true,
                link: LinkProfile::constrained(mbps(8.0), 0.02).with_jitter(0.01),
                faults: FaultConfig {
                    drop_prob: 0.05,
                    corrupt_prob: 0.05,
                    delay_prob: 0.10,
                    max_extra_delay_s: 0.5,
                },
                round_timeout_s: Some(1.8),
                compression: CompressionConfig {
                    mode: CompressionMode::TopK,
                    topk_ratio: 0.25,
                },
                ..NetConfig::default()
            },
            scenario,
            ..FlConfig::default()
        },
    )?;
    Ok(Built {
        env,
        data_generate_s,
    })
}
