//! Per-thread host counters: kernel work and training hot-path time.
//!
//! Every leaf compute kernel ([`Tensor::matmul`](crate::Tensor::matmul)
//! and the pooling family; convolution inherits its counts from the GEMM
//! it lowers to) records the floating-point operations and output
//! elements it produced. The counts are derived from the operand
//! *shapes*, once per kernel entry on the calling thread, so they are
//! identical at every parallelism width — unlike wall-clock time they
//! measure the work itself, not how it was scheduled. The same
//! accumulator carries the wall time [`timed`] charges to the training
//! hot paths (`helios-nn` wraps forward, backward and the optimizer
//! step).
//!
//! The counters belong to the calling thread. Every fan-out primitive
//! ([`map_items_mut`](crate::map_items_mut),
//! [`for_each_block`](crate::for_each_block) and their siblings) folds
//! each worker's share back into the thread that spawned it when the
//! workers join, so a snapshot delta taken around a region counts
//! exactly the work that region caused — however it was parallelized,
//! and whatever other threads of the process are doing at the same
//! time.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_tensor::{host_counters, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let before = host_counters();
//! let a = Tensor::from_vec(vec![1.0; 6], &[2, 3])?;
//! let b = Tensor::from_vec(vec![1.0; 12], &[3, 4])?;
//! let _ = a.matmul(&b)?;
//! let spent = host_counters().since(&before);
//! assert_eq!(spent.flops, 2 * 2 * 3 * 4);
//! assert_eq!(spent.elements, 2 * 4);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// This thread's totals, including the shares of every worker it
    /// has joined.
    static COUNTERS: Cell<HostCounters> = const { Cell::new(HostCounters::ZERO) };
}

/// A snapshot of the calling thread's host counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Floating-point operations executed by the counted kernels
    /// (a fused multiply-add counts as two).
    pub flops: u64,
    /// Output elements produced by the counted kernels.
    pub elements: u64,
    /// Wall nanoseconds charged to [`Hotpath::Forward`].
    pub forward_ns: u64,
    /// Wall nanoseconds charged to [`Hotpath::Backward`].
    pub backward_ns: u64,
    /// Wall nanoseconds charged to [`Hotpath::Step`].
    pub step_ns: u64,
}

impl HostCounters {
    const ZERO: HostCounters = HostCounters {
        flops: 0,
        elements: 0,
        forward_ns: 0,
        backward_ns: 0,
        step_ns: 0,
    };

    /// The counters accumulated since an `earlier` snapshot.
    ///
    /// Saturating: swapped arguments yield zero rather than wrapping.
    pub fn since(&self, earlier: &HostCounters) -> HostCounters {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(&self, other: &HostCounters, op: fn(u64, u64) -> u64) -> HostCounters {
        HostCounters {
            flops: op(self.flops, other.flops),
            elements: op(self.elements, other.elements),
            forward_ns: op(self.forward_ns, other.forward_ns),
            backward_ns: op(self.backward_ns, other.backward_ns),
            step_ns: op(self.step_ns, other.step_ns),
        }
    }
}

/// Reads the calling thread's current totals.
pub fn host_counters() -> HostCounters {
    COUNTERS.with(Cell::get)
}

/// Adds `delta` to the calling thread's totals: kernels record their
/// work here, and the fan-out primitives fold joined workers' shares.
pub(crate) fn add(delta: HostCounters) {
    COUNTERS.with(|c| c.set(c.get().zip(&delta, u64::saturating_add)));
}

/// Records one kernel invocation with shape-derived counts.
pub(crate) fn record_kernel(flops: u64, elements: u64) {
    add(HostCounters {
        flops,
        elements,
        ..HostCounters::ZERO
    });
}

/// A training hot path whose wall time [`timed`] accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hotpath {
    /// A network forward pass.
    Forward,
    /// A network backward pass.
    Backward,
    /// An optimizer step.
    Step,
}

/// Runs `f` and charges its wall time to `path` on the calling thread.
///
/// The times are host observability data: they vary run to run, and a
/// fan-out of eight clients folds eight forward passes' worth per batch
/// into its parent. They never feed simulated time.
pub fn timed<T>(path: Hotpath, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut delta = HostCounters::ZERO;
    *match path {
        Hotpath::Forward => &mut delta.forward_ns,
        Hotpath::Backward => &mut delta.backward_ns,
        Hotpath::Step => &mut delta.step_ns,
    } = ns;
    add(delta);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_and_saturate() {
        let before = host_counters();
        record_kernel(100, 10);
        record_kernel(1, 2);
        let spent = host_counters().since(&before);
        assert_eq!(spent.flops, 101);
        assert_eq!(spent.elements, 12);
        // Swapped arguments saturate to zero instead of wrapping.
        assert_eq!(before.since(&host_counters()), HostCounters::default());
    }

    #[test]
    fn timed_sections_charge_their_hot_path() {
        let before = host_counters();
        let out = timed(Hotpath::Forward, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        let spent = host_counters().since(&before);
        assert!(spent.forward_ns >= 2_000_000);
        assert_eq!((spent.backward_ns, spent.step_ns, spent.flops), (0, 0, 0));
    }

    #[test]
    fn other_threads_do_not_touch_this_threads_counters() {
        let before = host_counters();
        std::thread::spawn(|| record_kernel(1_000, 1_000))
            .join()
            .expect("recorder thread");
        assert_eq!(
            host_counters(),
            before,
            "an unjoined-into thread is invisible"
        );
        record_kernel(3, 1);
        assert_eq!(host_counters().since(&before).flops, 3);
    }
}
