//! Determinism contract of the observability layer: a fixed-seed lossy
//! Helios run emits a **byte-identical** JSONL trace at every thread
//! width, pinned by content digest, and every frame-level fault event
//! is eventually settled by a terminal outcome.

use helios_core::{HeliosConfig, HeliosStrategy};
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FaultConfig, FlConfig, FlEnv, LinkProfile, NetConfig, Strategy};
use helios_net::transport::Direction;
use helios_net::{codec, SimTransport};
use helios_nn::models::ModelKind;
use helios_obs::{chrome_trace, RingBufferSink, TraceEvent};
use helios_tensor::{ParallelismConfig, TensorRng};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

const SEED: u64 = 2024;
const CYCLES: usize = 3;

/// The pinned FNV-1a digest of the lossy reference trace. Any change to
/// the event taxonomy, serializer, or simulated outcome moves this
/// constant — bump it deliberately, never to paper over a thread-width
/// divergence (the cross-width equality assertion catches those first).
/// Last bump: fleet-scaling PR — `RoundStart` gained `population` and
/// `DeviceSelected` gained `cohort`.
const PINNED_TRACE_DIGEST: u64 = 0xd81d_f18e_ab35_4978;

/// Shared byte buffer standing in for a trace file.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

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

fn lossy_net() -> NetConfig {
    NetConfig {
        enabled: true,
        link: LinkProfile::constrained(2e6, 0.05).with_jitter(0.02),
        faults: FaultConfig {
            drop_prob: 0.25,
            corrupt_prob: 0.15,
            delay_prob: 0.2,
            max_extra_delay_s: 0.5,
        },
        max_retries: 2,
        ..NetConfig::default()
    }
}

fn make_env(seed: u64, threads: usize, net: NetConfig) -> FlEnv {
    let clients = 3;
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
        presets::mixed_fleet(2, 1),
        shards,
        test,
        FlConfig {
            seed,
            parallelism: ParallelismConfig::with_threads(threads),
            net,
            ..FlConfig::default()
        },
    )
    .expect("env")
}

/// Runs the lossy reference workload at `threads`, returning the raw
/// JSONL trace bytes and each cycle's `(train_flops, eval_flops)`.
fn traced_run(threads: usize) -> (Vec<u8>, Vec<(u64, u64)>) {
    let buf = SharedBuf::default();
    let sink = helios_obs::JsonlSink::new(Box::new(buf.clone()));
    let handle = helios_obs::install(Box::new(sink));
    let mut env = make_env(SEED, threads, lossy_net());
    let metrics = HeliosStrategy::new(HeliosConfig::default())
        .run(&mut env, CYCLES)
        .expect("helios run");
    drop(handle); // detach + flush
    let flops = metrics
        .records()
        .iter()
        .map(|r| (r.phases.train_flops, r.phases.eval_flops))
        .collect();
    (buf.take(), flops)
}

/// Asserts the frame-settlement invariant on an event stream: every
/// `FrameSent` / `FrameDropped` / `FrameCorrupted` / `Retry` for a
/// device is eventually followed by a terminal `Delivered`,
/// `SendFailed`, or `Timeout` for that device.
fn assert_faults_settle(records: &[helios_obs::TraceRecord]) {
    let mut pending: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for rec in records {
        match &rec.event {
            TraceEvent::FrameSent { device, .. }
            | TraceEvent::FrameDropped { device, .. }
            | TraceEvent::FrameCorrupted { device, .. }
            | TraceEvent::Retry { device, .. } => {
                pending.insert(*device);
            }
            TraceEvent::Delivered { device, .. }
            | TraceEvent::SendFailed { device, .. }
            | TraceEvent::Timeout { device } => {
                pending.remove(device);
            }
            _ => {}
        }
    }
    assert!(
        pending.is_empty(),
        "devices with unsettled frame events: {pending:?}"
    );
}

/// The tentpole guarantee: byte-identical JSONL at 1/2/4/8 threads,
/// pinned by content digest so a silent serializer or outcome change
/// cannot slip through.
#[test]
fn lossy_trace_is_byte_identical_across_thread_widths() {
    let (reference, _) = traced_run(1);
    assert!(!reference.is_empty(), "traced run must emit events");
    for threads in [2usize, 4, 8] {
        let (bytes, _) = traced_run(threads);
        assert_eq!(
            bytes, reference,
            "JSONL trace must be byte-identical at {threads} threads"
        );
    }
    assert_eq!(
        helios_obs::content_digest(&reference),
        PINNED_TRACE_DIGEST,
        "reference trace digest moved — the event stream changed"
    );
    // The trace parses, carries the expected fault traffic, and every
    // fault settles.
    let text = String::from_utf8(reference).expect("utf8");
    let records = helios_obs::parse_jsonl(&text).expect("trace parses");
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::FrameDropped { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Retry { .. })));
    assert_faults_settle(&records);
}

/// Runs sharing a process cannot see each other's instrumentation: the
/// same traced run on four threads at once (each at its own kernel
/// width) reproduces the serial run's trace bytes and per-cycle flop
/// counts exactly.
#[test]
fn concurrent_traced_runs_match_the_serial_run() {
    let (reference, reference_flops) = traced_run(1);
    assert!(reference_flops
        .iter()
        .all(|&(train, eval)| train > 0 && eval > 0));
    let runs: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|threads| scope.spawn(move || (threads, traced_run(threads))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("concurrent run"))
            .collect()
    });
    for (threads, (bytes, flops)) in runs {
        assert!(
            bytes == reference,
            "concurrent run at {threads} threads: trace bytes differ from the serial run"
        );
        assert_eq!(
            flops, reference_flops,
            "concurrent run at {threads} threads: per-cycle flops differ"
        );
    }
}

/// The Chrome exporter produces valid JSON with a `traceEvents` array
/// and one named track per device.
#[test]
fn chrome_export_is_valid_json_with_device_tracks() {
    let ring = RingBufferSink::with_capacity(1 << 20);
    let handle = helios_obs::install(Box::new(ring.clone()));
    let mut env = make_env(SEED, 2, lossy_net());
    HeliosStrategy::new(HeliosConfig::default())
        .run(&mut env, CYCLES)
        .expect("helios run");
    drop(handle);

    let json = chrome_trace(&ring.records());
    let value: serde::value::Value = serde_json::from_str(&json).expect("chrome JSON parses");
    let serde::value::Value::Map(pairs) = &value else {
        panic!("chrome trace must be a JSON object");
    };
    let Some(serde::value::Value::Seq(events)) = serde::value::find(pairs, "traceEvents") else {
        panic!("chrome trace must contain a traceEvents array");
    };
    assert!(!events.is_empty());
    // Per-device tracks appear as thread_name metadata events.
    let device_tracks = events
        .iter()
        .filter(|e| {
            let serde::value::Value::Map(ev) = e else {
                return false;
            };
            serde::value::find(ev, "name")
                == Some(&serde::value::Value::Str("thread_name".to_string()))
                && matches!(
                    serde::value::find(ev, "tid"),
                    Some(serde::value::Value::UInt(tid)) if *tid >= 1
                )
        })
        .count();
    assert!(
        device_tracks >= 3,
        "expected one named track per device, saw {device_tracks}"
    );
}

proptest! {
    /// Transport-level settlement: whatever the fault mix, every frame
    /// attempt sequence terminates in `Delivered` or `SendFailed`.
    #[test]
    fn every_fault_event_reaches_a_terminal_outcome(
        seed in 0u64..1_000,
        drop_prob in 0.0f64..0.9,
        corrupt_prob in 0.0f64..0.9,
        max_retries in 0u32..4,
        frames in 1usize..6,
    ) {
        let cfg = NetConfig {
            enabled: true,
            link: LinkProfile::constrained(1e6, 0.01),
            faults: FaultConfig {
                drop_prob,
                corrupt_prob,
                delay_prob: 0.1,
                max_extra_delay_s: 0.2,
            },
            max_retries,
            ..NetConfig::default()
        };
        let ring = RingBufferSink::with_capacity(1 << 16);
        let handle = helios_obs::install(Box::new(ring.clone()));
        let mut transport = SimTransport::new(2, &cfg, seed).expect("transport");
        let frame = codec::encode_full(0, 0, &[1.0, 2.0, 3.0, 4.0]).expect("frame");
        for i in 0..frames {
            let dir = if i % 2 == 0 { Direction::Upload } else { Direction::Download };
            transport.transmit(i % 2, &frame, dir).expect("transmit");
        }
        drop(handle);
        let records = ring.records();
        prop_assert!(!records.is_empty());
        assert_faults_settle(&records);
    }
}
