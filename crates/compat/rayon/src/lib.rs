//! Vendored, dependency-free stand-in for the [`rayon`](https://crates.io/crates/rayon)
//! crate so the workspace builds without network access.
//!
//! The subset provided is what the workspace uses: `into_par_iter()` /
//! `par_iter()` on vectors and slices, with `map`, `min_by`, `collect`, `for_each`,
//! `sum` and `count` combinators.  Each parallel call runs on `std::thread::scope`
//! threads, one per available core, the calling thread among them.  The workers
//! claim small blocks of items from a shared atomic index, so a few expensive items
//! do not leave the other cores idle; results come back in item order, which keeps
//! `collect` ordered and order-insensitive reductions deterministic.
//!
//! Nested parallelism is guarded with a thread-local flag: a parallel combinator
//! invoked from inside a worker runs sequentially instead of oversubscribing,
//! mirroring how rayon keeps one pool.  A panicking item re-raises its own payload
//! on the calling thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod iter;

pub mod prelude {
    //! Glob-importable traits, mirroring `rayon::prelude`.
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Blocks per worker: enough that the last block to finish is a small share of a
/// call's work, few enough that claiming costs nothing next to the items.
const BLOCKS_PER_THREAD: usize = 16;

/// Number of threads parallel combinators will use (the machine's available
/// parallelism, read once per process; 1 when called from inside a worker).
pub fn current_num_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
    }
}

/// Marks the current thread as a worker until dropped, then restores its flag, also
/// when an item panics on it.
struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard(IN_WORKER.with(|flag| flag.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(self.0));
    }
}

/// Apply `f` to every item, in parallel, preserving order.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Cut the items into blocks that workers claim in order through `next`.
    let block_len = (items.len() / (threads * BLOCKS_PER_THREAD)).max(1);
    let mut blocks: Vec<Mutex<Vec<T>>> = Vec::new();
    let mut rest = items.into_iter();
    loop {
        let block: Vec<T> = rest.by_ref().take(block_len).collect();
        if block.is_empty() {
            break;
        }
        blocks.push(Mutex::new(block));
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = WorkerGuard::enter();
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            // the index publishes nothing: each block's items sit behind its own mutex
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = blocks.get(index) else {
                return done;
            };
            let block = std::mem::take(
                &mut *slot
                    .lock()
                    .expect("a block's mutex is only held to take the block"),
            );
            done.push((index, block.into_iter().map(f).collect()));
        }
    };

    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(blocks) => done.extend(blocks),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().flat_map(|(_, results)| results).collect()
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let doubled: Vec<i64> = (0..10_000i64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        assert_eq!(doubled, (0..10_000i64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_min_by_matches_sequential() {
        let values: Vec<f64> = (0..5000).map(|i| ((i * 37 % 101) as f64).sin()).collect();
        let par = values.clone().into_par_iter().min_by(|a, b| a.total_cmp(b));
        let seq = values.into_iter().min_by(|a, b| a.total_cmp(b));
        assert_eq!(par, seq);
    }

    #[test]
    fn par_iter_over_slices_and_sum() {
        let values: Vec<u64> = (1..=100).collect();
        let total: u64 = values.par_iter().map(|&v| v).sum();
        assert_eq!(total, 5050);
        let count = values.par_iter().count();
        assert_eq!(count, 100);
    }

    #[test]
    fn nested_parallelism_degrades_gracefully() {
        let out: Vec<usize> = vec![vec![1usize; 50]; 8]
            .into_par_iter()
            .map(|inner| inner.into_par_iter().map(|v| v + 1).sum::<usize>())
            .collect();
        assert_eq!(out, vec![100usize; 8]);
    }

    #[test]
    fn uneven_items_run_once_each_and_come_back_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // descending costs: the first items are the expensive ones, as in the
        // convergence study's largest-budget-first batches
        let len = 200usize;
        let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let out: Vec<u64> = (0..len)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                let spins = (len - i) * 2_000;
                let mut acc = i as u64;
                for step in 0..spins as u64 {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(step));
                }
                std::hint::black_box(acc);
                i as u64
            })
            .collect();
        assert_eq!(out, (0..len as u64).collect::<Vec<_>>());
        assert!(runs.iter().all(|count| count.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_panicking_item_propagates_and_the_shim_stays_parallel() {
        let before = crate::current_num_threads();
        // every item panics, so the calling thread's own item panics too
        let caught = std::panic::catch_unwind(|| {
            (0..8usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|i| -> usize { panic!("item {i} failed") })
                .collect::<Vec<_>>()
        });
        let payload = caught.expect_err("a panicking item must propagate");
        let message = payload
            .downcast_ref::<String>()
            .expect("the item's own payload is re-raised");
        assert!(
            message.starts_with("item ") && message.ends_with(" failed"),
            "{message}"
        );
        assert_eq!(crate::current_num_threads(), before);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        (0..257usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        assert_eq!(counter.into_inner(), 257);
    }
}
