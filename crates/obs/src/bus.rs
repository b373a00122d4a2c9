//! The per-thread deterministic event bus.
//!
//! The bus is **off by default** and zero-cost when off: [`emit`] takes
//! a closure and checks one thread-local flag before building the
//! event, so an uninstrumented run pays a single predictable branch per
//! call site. Installing a sink flips the bus on; dropping the returned
//! [`SinkHandle`] detaches it again (the bus turns back off when the
//! last sink detaches).
//!
//! ## One bus per thread
//!
//! Sinks, the on/off switch and the sim-time stamp all belong to the
//! thread that called [`install`]: a run traces into the sinks its own
//! thread installed, and runs on other threads of the same process
//! (concurrent tests, a bench sweeping configurations on workers) can
//! neither see nor disturb them.
//!
//! ## Timestamps
//!
//! Events are stamped with **simulated** time, published by the round
//! driver via [`set_sim_time`] as the sim-clock advances. Host
//! wall-clock never enters a trace, which is the property that makes
//! traces bitwise reproducible across thread widths. There is no
//! sequence counter either, so the record order *is* the sequence.
//!
//! ## Determinism contract
//!
//! Every emission point in the workspace sits on the serial path of the
//! thread driving the run (driver phases, post-join fan-in, transport
//! send loop); nothing emits from inside a parallel worker — a worker's
//! emission would reach no sink. That keeps the record stream
//! byte-identical regardless of `ParallelismConfig`.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use helios_device::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;

thread_local! {
    /// Fast-path switch: true iff at least one sink is installed.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Current simulated time, in seconds.
    static SIM_TIME_S: Cell<f64> = const { Cell::new(0.0) };
    /// Installed sinks, keyed by handle id so detach removes the right
    /// one.
    static SINKS: RefCell<Vec<(u64, Box<dyn TraceSink>)>> = const { RefCell::new(Vec::new()) };
    /// Id source for [`SinkHandle`]s.
    static NEXT_HANDLE: Cell<u64> = const { Cell::new(0) };
}

/// Whether any sink is currently installed on this thread.
///
/// Call sites may use this to skip *argument* computation that the
/// [`emit`] closure cannot capture cheaply; `emit` itself already
/// checks it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Publishes the current simulated time for subsequent events.
///
/// The driver calls this as the sim-clock advances; emission points
/// never read the clock themselves. The value is stored raw (no
/// monotone clamping) so back-to-back runs each start from their own
/// t=0; [`trace-report`'s] `--validate` checks per-trace monotonicity
/// instead.
///
/// [`trace-report`'s]: crate
#[inline]
pub fn set_sim_time(now: SimTime) {
    if enabled() {
        SIM_TIME_S.with(|t| t.set(now.as_secs_f64()));
    }
}

/// The simulated timestamp events are currently stamped with.
#[inline]
pub fn sim_time_s() -> f64 {
    SIM_TIME_S.with(Cell::get)
}

/// Emits an event to every sink installed on this thread.
///
/// The closure only runs when a sink is installed, so call sites can
/// pass payload construction (formatting, mask counting) without
/// penalising untraced runs.
#[inline]
pub fn emit(event: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    let record = TraceRecord {
        t: sim_time_s(),
        event: event(),
    };
    SINKS.with_borrow_mut(|sinks| {
        for (_, sink) in sinks.iter_mut() {
            sink.record(&record);
        }
    });
}

/// Detaches its sink (and flushes it) when dropped.
///
/// Returned by [`install`]; hold it for the duration of the traced run.
/// It is tied to the installing thread and cannot be sent elsewhere.
#[must_use = "dropping the handle immediately uninstalls the sink"]
pub struct SinkHandle {
    id: u64,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for SinkHandle {
    fn drop(&mut self) {
        let detached = SINKS.with_borrow_mut(|sinks| {
            let pos = sinks.iter().position(|(id, _)| *id == self.id);
            let detached = pos.map(|pos| sinks.remove(pos).1);
            if sinks.is_empty() {
                ENABLED.with(|e| e.set(false));
                SIM_TIME_S.with(|t| t.set(0.0));
            }
            detached
        });
        if let Some(mut sink) = detached {
            sink.flush();
        }
    }
}

/// Installs a sink on the calling thread and switches its bus on.
///
/// Sinks receive records in emission order. The sink is detached (and
/// flushed) when the returned handle drops.
pub fn install(sink: Box<dyn TraceSink>) -> SinkHandle {
    let id = NEXT_HANDLE.with(|n| n.replace(n.get() + 1));
    SINKS.with_borrow_mut(|sinks| sinks.push((id, sink)));
    ENABLED.with(|e| e.set(true));
    SinkHandle {
        id,
        _thread_bound: PhantomData,
    }
}

/// Flushes every sink installed on this thread (e.g. before reading a
/// trace file that is still being written).
pub fn flush() {
    SINKS.with_borrow_mut(|sinks| {
        for (_, sink) in sinks.iter_mut() {
            sink.flush();
        }
    });
}

/// Emits `PhaseStart` on construction and `PhaseEnd` on drop.
///
/// ```
/// # use helios_obs::PhaseGuard;
/// {
///     let _phase = PhaseGuard::new(3, "train");
///     // ... run the phase ...
/// } // PhaseEnd emitted here
/// ```
pub struct PhaseGuard {
    cycle: u64,
    phase: &'static str,
}

impl PhaseGuard {
    /// Opens a phase span for `cycle`.
    pub fn new(cycle: u64, phase: &'static str) -> Self {
        emit(|| TraceEvent::PhaseStart {
            cycle,
            phase: phase.to_string(),
        });
        PhaseGuard { cycle, phase }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let (cycle, phase) = (self.cycle, self.phase);
        emit(|| TraceEvent::PhaseEnd {
            cycle,
            phase: phase.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    #[test]
    fn disabled_bus_skips_payload_construction() {
        let mut built = false;
        emit(|| {
            built = true;
            TraceEvent::Timeout { device: 0 }
        });
        assert!(!built, "closure must not run with no sink installed");
        assert!(!enabled());
    }

    #[test]
    fn install_emit_detach_round_trip() {
        let ring = RingBufferSink::with_capacity(16);
        let handle = install(Box::new(ring.clone()));
        assert!(enabled());

        set_sim_time(SimTime::from_secs(2.5));
        emit(|| TraceEvent::RoundStart {
            cycle: 1,
            population: 4,
        });
        emit(|| TraceEvent::Timeout { device: 7 });

        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t, 2.5);
        assert_eq!(
            records[0].event,
            TraceEvent::RoundStart {
                cycle: 1,
                population: 4
            }
        );
        assert_eq!(records[1].event, TraceEvent::Timeout { device: 7 });

        drop(handle);
        assert!(!enabled());
        emit(|| TraceEvent::RoundStart {
            cycle: 2,
            population: 4,
        });
        assert_eq!(ring.records().len(), 2, "detached sink stays quiet");
        assert_eq!(sim_time_s(), 0.0, "time resets when the bus empties");
    }

    #[test]
    fn phase_guard_brackets_its_span() {
        let ring = RingBufferSink::with_capacity(16);
        let handle = install(Box::new(ring.clone()));
        {
            let _phase = PhaseGuard::new(4, "route");
            emit(|| TraceEvent::Timeout { device: 1 });
        }
        drop(handle);
        let kinds: Vec<&str> = ring.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["PhaseStart", "Timeout", "PhaseEnd"]);
    }

    #[test]
    fn multiple_sinks_each_receive_records() {
        let a = RingBufferSink::with_capacity(4);
        let b = RingBufferSink::with_capacity(4);
        let ha = install(Box::new(a.clone()));
        let hb = install(Box::new(b.clone()));
        emit(|| TraceEvent::RoundStart {
            cycle: 9,
            population: 4,
        });
        drop(ha);
        emit(|| TraceEvent::RoundEnd {
            cycle: 9,
            span_s: 1.0,
            train_s: 0.5,
            comm_s: 0.5,
            aggregated: 1,
            missed: 0,
        });
        drop(hb);
        assert_eq!(a.records().len(), 1);
        assert_eq!(b.records().len(), 2, "surviving sink keeps recording");
    }

    #[test]
    fn sinks_and_sim_time_belong_to_the_installing_thread() {
        let ring = RingBufferSink::with_capacity(4);
        let handle = install(Box::new(ring.clone()));
        set_sim_time(SimTime::from_secs(1.5));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!enabled(), "another thread's bus stays off");
                assert_eq!(sim_time_s(), 0.0);
                emit(|| TraceEvent::Timeout { device: 1 });
            });
        });
        emit(|| TraceEvent::Timeout { device: 2 });
        drop(handle);
        let records = ring.records();
        assert_eq!(records.len(), 1, "only the installing thread records");
        assert_eq!(
            (records[0].t, &records[0].event),
            (1.5, &TraceEvent::Timeout { device: 2 })
        );
    }
}
