//! Scoped-thread parallel execution engine for the tensor kernels.
//!
//! Everything here is std-only (`std::thread::scope` + `split_at_mut`)
//! and safe: output buffers are partitioned into disjoint per-thread
//! chunks along an "item" axis (rows for matmul, batch entries for the
//! convolution relayouts, `N*C` planes for pooling), and every element
//! is computed by exactly one thread in exactly the order the serial
//! loop would use. That structural property is what makes parallel
//! results **bitwise identical** to serial ones — no atomics, no
//! reductions across threads, no reordered float accumulation.
//!
//! The thread count is ambient: kernels consult [`current_threads`],
//! which reads a thread-local override installed by
//! [`ParallelismConfig::scoped`] (falling back to the hardware count).
//! This keeps kernel signatures unchanged and lets callers — tests,
//! trainers, the FL strategies — force serial or fixed-width execution
//! for any region of code without plumbing a parameter through every
//! call site. The override is thread-local, so concurrently running
//! tests (or FL client workers) cannot race on each other's setting.
//!
//! The host counters ([`host_counters`](crate::host_counters)) are
//! thread-local for the same reason. Each primitive here folds every
//! worker's accumulated share back into the spawning thread when the
//! workers join, so a caller's snapshot deltas cover the work it fanned
//! out and nothing else.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::thread::ScopedJoinHandle;

use crate::instrument::{self, host_counters, HostCounters};

/// How many worker threads the tensor kernels and FL client rounds may
/// use.
///
/// `threads: None` means "auto": use every hardware thread the OS
/// reports. `Some(1)` forces serial execution; `Some(n)` caps the
/// worker count at `n`. Results are bitwise identical for every
/// setting — the knob trades wall-clock time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Worker-thread cap; `None` = auto-detect from the hardware.
    pub threads: Option<usize>,
}

impl ParallelismConfig {
    /// Auto-detect: one worker per hardware thread.
    pub const fn auto() -> Self {
        ParallelismConfig { threads: None }
    }

    /// Force single-threaded execution.
    pub const fn serial() -> Self {
        ParallelismConfig { threads: Some(1) }
    }

    /// Cap workers at `n` (0 is treated as 1).
    pub const fn with_threads(n: usize) -> Self {
        ParallelismConfig { threads: Some(n) }
    }

    /// The concrete thread count this config resolves to.
    pub fn resolve(&self) -> usize {
        self.threads.unwrap_or_else(hardware_threads).max(1)
    }

    /// Installs this config as the calling thread's ambient setting
    /// until the returned guard drops. Guards nest; the previous
    /// setting is restored on drop.
    #[must_use = "the setting is reverted when the guard drops"]
    pub fn scoped(&self) -> ParallelismGuard {
        let prev = OVERRIDE.with(|o| o.replace(Some(self.resolve())));
        ParallelismGuard { prev }
    }
}

thread_local! {
    /// Per-thread override of the kernel worker count.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Reverts the ambient thread-count override installed by
/// [`ParallelismConfig::scoped`] when dropped.
#[derive(Debug)]
pub struct ParallelismGuard {
    prev: Option<usize>,
}

impl Drop for ParallelismGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.prev));
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count kernels on this thread currently use.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(hardware_threads)
        .max(1)
}

/// Minimum per-thread share of work (in elementary operations) below
/// which spawning a thread costs more than it saves.
const MIN_WORK_PER_THREAD: usize = 16 * 1024;

/// Number of worker threads for `items` items of `item_work` operations
/// each, under the ambient setting.
fn plan_threads(items: usize, item_work: usize) -> usize {
    let by_work = (items.saturating_mul(item_work.max(1)) / MIN_WORK_PER_THREAD).max(1);
    current_threads().min(items.max(1)).min(by_work)
}

/// Runs `f` over disjoint chunks of `data`, partitioned on an item axis.
///
/// `data` is treated as `data.len() / item_len` contiguous items of
/// `item_len` elements; items are split into one contiguous block per
/// worker and `f(first_item, chunk)` runs on each block (`first_item`
/// is the index of the block's first item). With one worker this
/// degenerates to `f(0, data)` on the calling thread, so parallel and
/// serial execution perform identical per-element computations.
///
/// `item_work` estimates the elementary operations per item and only
/// gates how many threads are worth spawning.
pub fn for_each_block<T, F>(data: &mut [T], item_len: usize, item_work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_block_aligned(data, item_len, item_work, 1, f);
}

/// Like [`for_each_block`], but rounds each worker's item share up to a
/// multiple of `align`, so worker blocks start and end on tile
/// boundaries (the blocked GEMM passes its microkernel height so no
/// worker splits a register tile). Alignment only moves the partition
/// points *between* workers; every element is still computed by exactly
/// one thread in serial order, so results remain bitwise identical at
/// any width. The final block absorbs the remainder.
pub fn for_each_block_aligned<T, F>(
    data: &mut [T],
    item_len: usize,
    item_work: usize,
    align: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut unit = vec![(); data.len() / item_len.max(1)];
    run_blocks(
        data,
        item_len,
        &mut unit,
        1,
        item_work,
        align,
        |first, chunk, _| f(first, chunk),
    );
}

/// Like [`for_each_block`], but partitions two output buffers in
/// lockstep (e.g. max-pool values and argmax indices): item `i` spans
/// `a[i*a_len..]` and `b[i*b_len..]`, and both chunks for a block go to
/// the same worker.
pub fn for_each_block2<A, B, F>(
    a: &mut [A],
    a_len: usize,
    b: &mut [B],
    b_len: usize,
    item_work: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    run_blocks(a, a_len, b, b_len, item_work, 1, f);
}

/// The one block-partitioning engine behind the `for_each_block*`
/// family: items go to workers in contiguous runs of a multiple of
/// `align`, each worker's host counters fold back into the caller.
fn run_blocks<A, B, F>(
    a: &mut [A],
    a_len: usize,
    b: &mut [B],
    b_len: usize,
    item_work: usize,
    align: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a_len == 0 || b_len == 0 || a.is_empty() {
        return;
    }
    debug_assert_eq!(a.len() % a_len, 0, "a must be whole items");
    debug_assert_eq!(a.len() / a_len, b.len() / b_len, "item counts must match");
    let items = a.len() / a_len;
    let threads = plan_threads(items, item_work);
    if threads <= 1 {
        f(0, a, b);
        return;
    }
    let per_thread = items.div_ceil(threads).next_multiple_of(align.max(1));
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = a
            .chunks_mut(per_thread * a_len)
            .zip(b.chunks_mut(per_thread * b_len))
            .enumerate()
            .map(|(w, (chunk_a, chunk_b))| {
                scope.spawn(move || counted(|| f(w * per_thread, chunk_a, chunk_b)))
            })
            .collect();
        workers.into_iter().for_each(join_counted);
    });
}

/// Runs `f` on a worker thread and pairs its result with the host
/// counters it accumulated, for the parent to fold in after the join.
fn counted<T>(f: impl FnOnce() -> T) -> (T, HostCounters) {
    let before = host_counters();
    let out = f();
    (out, host_counters().since(&before))
}

/// Joins one worker, folding its host counters into the calling thread
/// (a worker panic resumes on the caller).
fn join_counted<T>(worker: ScopedJoinHandle<'_, (T, HostCounters)>) -> T {
    match worker.join() {
        Ok((out, spent)) => {
            instrument::add(spent);
            out
        }
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Splits a total thread budget between a fan-out of `count` items and
/// the kernels running inside each item: the fan-out width is capped at
/// the budget, and whatever budget is left over per worker is granted
/// to that worker's kernels. `budget = 1` therefore means fully serial;
/// `budget = 8` over 2 items means 2 workers running 4-thread kernels.
fn split_budget(count: usize, budget: usize) -> (usize, ParallelismConfig) {
    let budget = budget.max(1);
    let width = budget.min(count.max(1));
    (width, ParallelismConfig::with_threads(budget / width))
}

/// Runs one closure per index in `0..count` on worker threads and
/// returns the results in index order. Used for coarse-grained fan-out;
/// see [`map_items_mut`] for the budget split.
pub fn map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_items_mut(&mut vec![(); count], threads, |i, _| f(i))
}

/// Runs one closure per item of `items` on worker threads, giving each
/// call exclusive mutable access to its item — the primitive behind the
/// FL layer's parallel client rounds, where item `i` is client `i` and
/// the closure runs its local training. Output order matches item order
/// regardless of which worker ran which item. `threads` is the *total*
/// budget — it caps the fan-out width, and any surplus per worker is
/// granted to that worker's kernels (the budget split). Results are
/// bitwise identical for every budget because the kernels themselves
/// are deterministic at any width.
pub fn map_items_mut<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let count = items.len();
    let (width, per_worker) = split_budget(count, threads);
    // Kernels get the budget left after the fan-out, so nested kernels
    // never oversubscribe; the serial path grants the single "worker"
    // (this thread) the same share.
    let run = |first: usize, chunk: &mut [T]| -> Vec<U> {
        let _guard = per_worker.scoped();
        chunk
            .iter_mut()
            .enumerate()
            .map(|(off, item)| f(first + off, item))
            .collect()
    };
    if width <= 1 || count <= 1 {
        return run(0, items);
    }
    let per_thread = count.div_ceil(width);
    std::thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> = items
            .chunks_mut(per_thread)
            .enumerate()
            .map(|(w, chunk)| scope.spawn(move || counted(|| run(w * per_thread, chunk))))
            .collect();
        workers.into_iter().flat_map(join_counted).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution() {
        assert_eq!(ParallelismConfig::serial().resolve(), 1);
        assert_eq!(ParallelismConfig::with_threads(3).resolve(), 3);
        assert_eq!(ParallelismConfig::with_threads(0).resolve(), 1);
        assert!(ParallelismConfig::auto().resolve() >= 1);
    }

    #[test]
    fn scoped_override_nests_and_restores() {
        let outer = current_threads();
        {
            let _g = ParallelismConfig::with_threads(5).scoped();
            assert_eq!(current_threads(), 5);
            {
                let _g2 = ParallelismConfig::serial().scoped();
                assert_eq!(current_threads(), 1);
            }
            assert_eq!(current_threads(), 5);
        }
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn for_each_block_covers_every_item_once() {
        let _g = ParallelismConfig::with_threads(4).scoped();
        let mut data = vec![0u32; 24];
        // Large item_work defeats the small-work cutoff.
        for_each_block(&mut data, 3, usize::MAX / 64, |first, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (first * 3 + i) as u32 + 1;
            }
        });
        let expected: Vec<u32> = (1..=24).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn for_each_block2_keeps_buffers_in_lockstep() {
        let _g = ParallelismConfig::with_threads(3).scoped();
        let mut a = vec![0usize; 10];
        let mut b = vec![0usize; 20];
        for_each_block2(&mut a, 1, &mut b, 2, usize::MAX / 64, |first, ca, cb| {
            for i in 0..ca.len() {
                ca[i] = first + i;
                cb[2 * i] = 10 * (first + i);
                cb[2 * i + 1] = 10 * (first + i) + 1;
            }
        });
        for i in 0..10 {
            assert_eq!(a[i], i);
            assert_eq!(b[2 * i], 10 * i);
            assert_eq!(b[2 * i + 1], 10 * i + 1);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 5, 16] {
            let out = map_indexed(11, threads, |i| i * i);
            assert_eq!(out, (0..11).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_workers_run_kernels_serial() {
        let flags = map_indexed(4, 2, |_| current_threads());
        assert!(flags.iter().all(|&t| t == 1));
    }

    #[test]
    fn surplus_budget_flows_to_kernels() {
        // 8-thread budget over 2 items: 2 workers × 4 kernel threads.
        let flags = map_indexed(2, 8, |_| current_threads());
        assert_eq!(flags, vec![4, 4]);
        // Serial budget stays serial all the way down.
        let flags = map_indexed(2, 1, |_| current_threads());
        assert_eq!(flags, vec![1, 1]);
    }

    #[test]
    fn workers_fold_their_host_counters_into_the_caller() {
        let before = host_counters();
        // 8-thread budget over 2 items: each worker's 4-thread kernel
        // fan-out folds into the worker, which folds into this thread.
        map_indexed(2, 8, |_| {
            let mut data = vec![0u32; 8];
            for_each_block(&mut data, 1, usize::MAX / 64, |_, chunk| {
                instrument::record_kernel(10, chunk.len() as u64);
            });
        });
        let spent = host_counters().since(&before);
        assert_eq!((spent.flops, spent.elements), (2 * 4 * 10, 2 * 8));
    }

    #[test]
    fn map_items_mut_mutates_in_place_and_preserves_order() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<usize> = (0..9).collect();
            let out = map_items_mut(&mut items, threads, |i, v| {
                *v += 100;
                i * 10
            });
            assert_eq!(items, (100..109).collect::<Vec<_>>());
            assert_eq!(out, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        }
        let mut empty: Vec<usize> = Vec::new();
        assert!(map_items_mut(&mut empty, 4, |_, _| 0).is_empty());
    }
}
