//! Scenario-engine contract: every dynamics axis — churn, diurnal
//! availability, throttling, drift — is driven purely from the
//! declarative [`ScenarioConfig`] timeline, replays bitwise at any
//! thread width, and leaves empty-scenario runs untouched.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, ShardSynthesizer, SyntheticVision};
use helios_device::{presets, ProfileSynthesizer};
use helios_fl::{
    AvailabilityModel, FlConfig, FlEnv, FleetSpec, NetConfig, SamplerConfig, Strategy, SyncFedAvg,
};
use helios_nn::models::ModelKind;
use helios_obs::TraceEvent;
use helios_scenario::{
    ChurnAction, ChurnEvent, DiurnalWave, DriftEvent, DriftKind, EventKind, OutageWindow,
    ScenarioConfig, ThrottleRule,
};
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// Thread widths every axis must replay bitwise across.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A lazy fleet whose devices (initial population *and* scenario
/// joiners) come from the same pure per-device generators.
fn lazy_env(
    population: usize,
    seed: u64,
    threads: usize,
    sampling: SamplerConfig,
    scenario: ScenarioConfig,
    availability: AvailabilityModel,
) -> FlEnv {
    let spec = FleetSpec::new(
        population,
        ProfileSynthesizer::new(seed, 0.3),
        ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, seed).expect("shards"),
    )
    .with_availability(availability);
    let test = spec.shards.test_set(24).expect("test set");
    FlEnv::new_lazy(
        ModelKind::LeNet,
        spec,
        test,
        FlConfig {
            seed,
            sampling,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("lazy env")
}

/// A two-device eager environment (one capable, one straggler-class).
fn eager_env(seed: u64, threads: usize, scenario: ScenarioConfig) -> FlEnv {
    let clients = 2;
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(1, 1),
        shards,
        test,
        FlConfig {
            seed,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("eager env")
}

/// A two-device eager environment routed through the simulated
/// transport (ideal links, a generous per-round deadline).
fn netted_env(seed: u64, threads: usize, scenario: ScenarioConfig) -> FlEnv {
    let clients = 2;
    let mut rng = TensorRng::seed_from(seed);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(30 * clients, 30, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(1, 1),
        shards,
        test,
        FlConfig {
            seed,
            scenario,
            parallelism: ParallelismConfig::with_threads(threads),
            net: NetConfig {
                enabled: true,
                // Generous against any compute span, hopeless against
                // an outage's microbit-per-second trickle link.
                round_timeout_s: Some(1e9),
                ..NetConfig::default()
            },
            ..FlConfig::default()
        },
    )
    .expect("netted env")
}

/// A scheduled link outage blacks out the targeted device for exactly
/// the half-open window — it misses those cycles at the round deadline,
/// emits an `outage` trace event per blacked-out cycle, and gets its
/// configured link back the first cycle after the window closes. The
/// whole run replays byte-identically at every thread width.
#[test]
fn link_outage_window_blacks_out_device_then_restores() {
    let scenario = ScenarioConfig {
        outages: vec![OutageWindow {
            from_cycle: 1,
            until_cycle: 3,
            device: Some(1),
        }],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize| -> (Vec<u8>, Vec<u64>, Option<f64>) {
        use std::io::Write;
        use std::sync::Arc;
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let handle =
            helios_obs::install(Box::new(helios_obs::JsonlSink::new(Box::new(buf.clone()))));
        let mut env = netted_env(41, threads, scenario.clone());
        SyncFedAvg::new().run(&mut env, 5).expect("outage run");
        drop(handle);
        let transport = env.transport().expect("transport");
        let missed = (0..2).map(|d| transport.device_stats(d).missed_cycles);
        let restored = transport.link(1).expect("link 1").bandwidth_bps;
        let mut captured = buf.0.lock().unwrap_or_else(PoisonError::into_inner);
        (std::mem::take(&mut *captured), missed.collect(), restored)
    };
    let (reference, missed, restored) = run(1);
    assert_eq!(
        missed,
        vec![0, 2],
        "device 1 misses exactly the two windowed cycles, device 0 none"
    );
    assert_eq!(
        restored, None,
        "after the window the device is back on its configured (ideal) link"
    );
    // The trace carries one targeted `outage` event per blacked-out
    // cycle — at cycles 1 and 2 and nowhere else.
    let text = String::from_utf8(reference.clone()).expect("utf8");
    let outage_cycles: Vec<u64> = helios_obs::parse_jsonl(&text)
        .expect("trace parses")
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ScenarioEvent {
                cycle,
                kind,
                device,
                value,
            } if kind == "outage" => {
                assert_eq!(*device, Some(1), "the window targets device 1");
                assert_eq!(*value, 0.0);
                Some(*cycle)
            }
            _ => None,
        })
        .collect();
    assert_eq!(outage_cycles, vec![1, 2], "one event per windowed cycle");
    for threads in &WIDTHS[1..] {
        let (bytes, m, r) = run(*threads);
        assert_eq!(m, missed);
        assert_eq!(r, restored);
        assert_eq!(
            bytes, reference,
            "outage run must replay byte-identically at {threads} threads"
        );
    }
}

fn churn_scenario() -> ScenarioConfig {
    ScenarioConfig {
        churn: vec![
            ChurnEvent {
                cycle: 1,
                action: ChurnAction::Join,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 2,
                action: ChurnAction::Leave,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 4,
                action: ChurnAction::Return,
                device: 0,
                count: 1,
            },
        ],
        ..ScenarioConfig::default()
    }
}

#[test]
fn churn_timeline_drives_population_and_replays_bitwise() {
    let run = |threads: usize| {
        let mut env = lazy_env(
            4,
            91,
            threads,
            SamplerConfig::default(),
            churn_scenario(),
            AvailabilityModel::always_on(),
        );
        let m = SyncFedAvg::new().run(&mut env, 5).expect("churn run");
        (m, env.num_clients(), env.offline_devices())
    };
    let (reference, population, offline) = run(1);
    assert_eq!(population, 5, "the join grew the enrolled population");
    assert_eq!(offline, 0, "the departed device returned");
    let participants: Vec<usize> = reference.records().iter().map(|r| r.participants).collect();
    assert_eq!(
        participants,
        vec![4, 5, 4, 4, 5],
        "join at 1, leave at 2, return at 4 shape each cycle's cohort"
    );
    for threads in &WIDTHS[1..] {
        let (m, p, o) = run(*threads);
        assert_eq!((p, o), (population, offline));
        assert_eq!(
            m.records(),
            reference.records(),
            "churn run must replay bitwise at {threads} threads"
        );
    }
}

#[test]
fn helios_classifies_scenario_joiners_mid_run() {
    let mut env = lazy_env(
        4,
        91,
        2,
        SamplerConfig::default(),
        churn_scenario(),
        AvailabilityModel::always_on(),
    );
    let mut helios = HeliosStrategy::new(HeliosConfig::default());
    let m = helios.run(&mut env, 5).expect("helios churn run");
    assert_eq!(env.num_clients(), 5);
    assert_eq!(
        m.records().last().expect("records").participants,
        5,
        "the returned device and the joiner both train in the last cycle"
    );
    // The joiner (id 4) was classified when it first appeared: it either
    // carries a fitted volume (straggler) or explicitly none (capable) —
    // never an unclassified full model racing the deadline.
    let keep = helios.keep_ratio(4);
    if helios.stragglers().contains(&4) {
        assert!(keep.expect("straggler volume") < 1.0);
    } else {
        assert!(keep.is_none());
    }
}

#[test]
fn diurnal_wave_biases_weighted_cohorts_and_replays_bitwise() {
    let wave = DiurnalWave {
        period_cycles: 4,
        min_scale: 0.05,
        phase_spread: 1.0,
    };
    let scenario = ScenarioConfig {
        diurnal: Some(wave),
        ..ScenarioConfig::default()
    };
    let avail = AvailabilityModel::new(17, 0.25);
    let cohorts = |scenario: ScenarioConfig| -> Vec<Vec<usize>> {
        let mut env = lazy_env(40, 17, 1, SamplerConfig::weighted(6), scenario, avail);
        (0..8)
            .map(|c| env.select_cohort(c).expect("cohort"))
            .collect()
    };
    let waved = cohorts(scenario.clone());
    assert_eq!(waved, cohorts(scenario.clone()), "cohort draws are pure");
    assert_ne!(
        waved,
        cohorts(ScenarioConfig::default()),
        "the wave must bias the weighted draw"
    );
    // Every selected device is awake (positive weight) that cycle.
    let model = avail.with_wave(wave);
    for (cycle, cohort) in waved.iter().enumerate() {
        for &d in cohort {
            assert!(model.availability(d, cycle) > 0.0);
        }
    }
    // Full runs replay bitwise at every width.
    let run = |threads: usize| {
        let mut env = lazy_env(
            40,
            17,
            threads,
            SamplerConfig::weighted(6),
            scenario.clone(),
            avail,
        );
        SyncFedAvg::new().run(&mut env, 4).expect("diurnal run")
    };
    let reference = run(1);
    for threads in &WIDTHS[1..] {
        assert_eq!(
            run(*threads).records(),
            reference.records(),
            "diurnal run must replay bitwise at {threads} threads"
        );
    }
}

#[test]
fn throttle_ramp_slows_rounds_and_replays_bitwise() {
    let scenario = ScenarioConfig {
        throttle: vec![ThrottleRule {
            start_cycle: 1,
            device: Some(1),
            compute_decay: 0.25,
            bandwidth_decay: 0.0,
            floor: 0.2,
        }],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize, scenario: ScenarioConfig| {
        let mut env = eager_env(23, threads, scenario);
        let m = SyncFedAvg::new().run(&mut env, 4).expect("throttle run");
        let scale = env.client(1).expect("client 1").compute_scale();
        (m, scale)
    };
    let (reference, scale) = run(1, scenario.clone());
    let (plain, plain_scale) = run(1, ScenarioConfig::default());
    assert!(scale < 1.0, "the ramp reduced device 1's compute scale");
    assert_eq!(plain_scale, 1.0, "no scenario, no throttling");
    assert!(
        reference.total_time() > plain.total_time(),
        "a throttled straggler extends the simulated rounds"
    );
    // The decay is monotone: each post-onset cycle is no faster than
    // the last, and the final cycle is strictly slower than the first.
    let spans: Vec<f64> = reference
        .records()
        .iter()
        .map(|r| r.phases.train_s + r.phases.comm_s)
        .collect();
    assert!(spans.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    assert!(spans[3] > spans[0], "the ramp must bite within the run");
    for threads in &WIDTHS[1..] {
        let (m, s) = run(*threads, scenario.clone());
        assert_eq!(s.to_bits(), scale.to_bits());
        assert_eq!(
            m.records(),
            reference.records(),
            "throttle run must replay bitwise at {threads} threads"
        );
    }
}

#[test]
fn drift_timeline_shifts_data_and_replays_bitwise() {
    let scenario = ScenarioConfig {
        drift: vec![
            DriftEvent {
                cycle: 1,
                kind: DriftKind::LabelRotate,
                amount: 3.0,
            },
            DriftEvent {
                cycle: 2,
                kind: DriftKind::InputShift,
                amount: 0.4,
            },
        ],
        ..ScenarioConfig::default()
    };
    let run = |threads: usize, scenario: ScenarioConfig| {
        let mut env = eager_env(29, threads, scenario);
        let m = SyncFedAvg::new().run(&mut env, 4).expect("drift run");
        let applied: Vec<usize> = env.clients().map(|c| c.drift_applied()).collect();
        (m, applied)
    };
    let (reference, applied) = run(1, scenario.clone());
    assert_eq!(
        applied,
        vec![2, 2],
        "every participant replayed both drift events"
    );
    let (plain, plain_applied) = run(1, ScenarioConfig::default());
    assert_eq!(plain_applied, vec![0, 0]);
    assert_ne!(
        reference.records(),
        plain.records(),
        "drift must change the learning trajectory"
    );
    // Pre-drift cycles are untouched: the divergence starts at cycle 1.
    assert_eq!(reference.records()[0], plain.records()[0]);
    for threads in &WIDTHS[1..] {
        let (m, a) = run(*threads, scenario.clone());
        assert_eq!(a, applied);
        assert_eq!(
            m.records(),
            reference.records(),
            "drift run must replay bitwise at {threads} threads"
        );
    }
}

/// A combined multi-axis timeline for the trace tests.
fn combined_scenario() -> ScenarioConfig {
    ScenarioConfig {
        churn: vec![
            ChurnEvent {
                cycle: 1,
                action: ChurnAction::Join,
                device: 0,
                count: 1,
            },
            ChurnEvent {
                cycle: 2,
                action: ChurnAction::Leave,
                device: 1,
                count: 1,
            },
            ChurnEvent {
                cycle: 3,
                action: ChurnAction::Return,
                device: 1,
                count: 1,
            },
        ],
        throttle: vec![ThrottleRule {
            start_cycle: 1,
            device: None,
            compute_decay: 0.1,
            bandwidth_decay: 0.0,
            floor: 0.5,
        }],
        drift: vec![DriftEvent {
            cycle: 2,
            kind: DriftKind::LabelRotate,
            amount: 2.0,
        }],
        ..ScenarioConfig::default()
    }
}

/// Runs the combined scenario at `threads` and returns the raw JSONL
/// trace bytes.
fn traced_scenario_bytes(threads: usize, scenario: ScenarioConfig) -> Vec<u8> {
    use std::io::Write;
    use std::sync::Arc;
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = SharedBuf::default();
    let sink = helios_obs::JsonlSink::new(Box::new(buf.clone()));
    let handle = helios_obs::install(Box::new(sink));
    let mut env = lazy_env(
        4,
        37,
        threads,
        SamplerConfig::default(),
        scenario,
        AvailabilityModel::always_on(),
    );
    SyncFedAvg::new().run(&mut env, 4).expect("traced run");
    drop(handle); // detach + flush
    let mut captured = buf.0.lock().unwrap_or_else(PoisonError::into_inner);
    std::mem::take(&mut *captured)
}

#[test]
fn scenario_traces_are_byte_identical_across_widths() {
    let reference = traced_scenario_bytes(1, combined_scenario());
    assert!(!reference.is_empty());
    for threads in &WIDTHS[1..] {
        assert_eq!(
            traced_scenario_bytes(*threads, combined_scenario()),
            reference,
            "scenario trace must be byte-identical at {threads} threads"
        );
    }
    let text = String::from_utf8(reference).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    let mut kinds = BTreeSet::new();
    for r in &records {
        if let TraceEvent::ScenarioEvent { kind, .. } = &r.event {
            kinds.insert(kind.clone());
        }
    }
    for expected in ["join", "leave", "return", "throttle", "drift_label_rotate"] {
        assert!(kinds.contains(expected), "missing scenario kind {expected}");
    }
}

#[test]
fn empty_scenario_is_bitwise_inert_and_emits_no_events() {
    let mut env = lazy_env(
        4,
        37,
        1,
        SamplerConfig::default(),
        ScenarioConfig::default(),
        AvailabilityModel::always_on(),
    );
    assert!(!env.scenario_active(), "empty scenario installs no runtime");
    let bytes = traced_scenario_bytes(1, ScenarioConfig::default());
    let text = String::from_utf8(bytes).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    assert!(
        !records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::ScenarioEvent { .. })),
        "an empty scenario must emit no scenario events"
    );
    // And explicitly: the hooks are no-ops on the metrics too.
    let mut a = lazy_env(
        4,
        37,
        1,
        SamplerConfig::default(),
        ScenarioConfig::default(),
        AvailabilityModel::always_on(),
    );
    let ma = SyncFedAvg::new().run(&mut a, 3).expect("run a");
    let mb = SyncFedAvg::new().run(&mut env, 3).expect("run b");
    assert_eq!(ma.records(), mb.records());
}

proptest! {
    /// Valid-by-construction timelines always validate, compile
    /// deterministically into a schedule sorted by simulated time, and
    /// every compiled churn event references a device enrolled at (and
    /// live for the action at) its fire time.
    #[test]
    fn compiled_schedules_are_deterministic_sorted_and_reference_live_devices(
        initial in 1usize..6,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 1usize..3, 0usize..64),
            0..16,
        ),
    ) {
        let mut cycle = 0usize;
        let mut population = initial;
        let mut offline: BTreeSet<usize> = BTreeSet::new();
        let mut churn = Vec::new();
        let mut drift = Vec::new();
        for (op, delta, count, pick) in ops {
            cycle += delta;
            match op {
                0 => {
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Join,
                        device: 0,
                        count,
                    });
                    population += count;
                }
                1 => {
                    let online: Vec<usize> =
                        (0..population).filter(|d| !offline.contains(d)).collect();
                    if online.is_empty() {
                        continue;
                    }
                    let device = online[pick % online.len()];
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Leave,
                        device,
                        count: 1,
                    });
                    offline.insert(device);
                }
                2 => {
                    let offs: Vec<usize> = offline.iter().copied().collect();
                    if offs.is_empty() {
                        continue;
                    }
                    let device = offs[pick % offs.len()];
                    churn.push(ChurnEvent {
                        cycle,
                        action: ChurnAction::Return,
                        device,
                        count: 1,
                    });
                    offline.remove(&device);
                }
                _ => drift.push(DriftEvent {
                    cycle,
                    kind: if pick % 2 == 0 {
                        DriftKind::LabelRotate
                    } else {
                        DriftKind::InputShift
                    },
                    amount: (pick % 5) as f64,
                }),
            }
        }
        let cfg = ScenarioConfig {
            churn,
            drift,
            ..ScenarioConfig::default()
        };
        prop_assert!(cfg.validate(initial).is_ok(), "constructed timeline must validate");
        let a = cfg.compile();
        let b = cfg.compile();
        prop_assert_eq!(a.events(), b.events(), "compilation is deterministic");
        prop_assert!(
            a.events()
                .windows(2)
                .all(|w| (w[0].cycle, w[0].seq) <= (w[1].cycle, w[1].seq)),
            "schedule must be sorted by simulated time"
        );
        // Replaying the compiled schedule only ever touches devices that
        // exist (and are in the right liveness state) at event time.
        let mut pop = initial;
        let mut off: BTreeSet<usize> = BTreeSet::new();
        for e in a.events() {
            match e.kind {
                EventKind::Join { count } => pop += count,
                EventKind::Leave { device } => {
                    prop_assert!(device < pop, "leave of unenrolled device {}", device);
                    prop_assert!(off.insert(device), "double leave of {}", device);
                }
                EventKind::Return { device } => {
                    prop_assert!(device < pop);
                    prop_assert!(off.remove(&device), "return of online device {}", device);
                }
                EventKind::Drift { .. } => {}
            }
        }
    }
}
