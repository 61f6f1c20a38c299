//! A persistent thread pool executing the parallel loops of compiled
//! code.
//!
//! Each lowered parallel loop becomes one `parallel_for` call; the pool
//! is created once per engine, mirroring the OpenMP-style runtime the
//! original system relies on. Every `parallel_for` ends with an implicit
//! barrier — the synchronization the paper's coarse-grain fusion
//! eliminates by merging loops.
//!
//! Scheduling hands out *contiguous index chunks* of a configurable
//! grain, claimed from a shared atomic cursor. Workers are long-lived:
//! a parallel region publishes one task and wakes them; nothing is
//! spawned per call. The caller participates in the loop itself, so a
//! pool of `t` threads keeps `t` cores busy (`t - 1` workers + caller)
//! and nested `parallel_for` calls degrade to serial execution on the
//! nested caller instead of deadlocking.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One published parallel region: a chunk-claiming cursor over `0..n`
/// plus a completion counter.
struct Task {
    /// Chunk body, lifetime-erased. Only dereferenced for claims with
    /// `start < n`, and the publishing caller blocks until `pending`
    /// hits zero, so the pointee outlives every dereference.
    job: *const (dyn Fn(usize, usize) + Sync),
    n: usize,
    grain: usize,
    /// Next unclaimed index.
    cursor: AtomicUsize,
    /// Iterations not yet completed.
    pending: AtomicUsize,
}

// SAFETY: `job` is only ever dereferenced while the publishing caller
// keeps the closure alive (see `Task::job`); the raw pointer itself is
// freely sendable.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Claim and run chunks until the cursor is exhausted. Returns the
    /// number of chunks executed.
    fn work(&self) -> u64 {
        let mut chunks = 0u64;
        loop {
            let start = self.cursor.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.n {
                return chunks;
            }
            let end = (start + self.grain).min(self.n);
            // SAFETY: start < n, so the caller is still blocked in
            // `run_task` waiting for these iterations.
            unsafe { (*self.job)(start, end) };
            chunks += 1;
            self.pending.fetch_sub(end - start, Ordering::Release);
        }
    }
}

#[derive(Default)]
struct Slot {
    /// Monotonic region counter; bumped when a new task is published.
    epoch: u64,
    task: Option<Arc<Task>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    wake: Condvar,
}

/// A fixed-size pool of worker threads.
///
/// # Examples
///
/// ```
/// use gc_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(2);
/// let sum = AtomicUsize::new(0);
/// pool.parallel_for(100, |i| { sum.fetch_add(i, Ordering::Relaxed); });
/// assert_eq!(sum.into_inner(), 4950);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    barriers: AtomicU64,
    chunks: AtomicU64,
}

impl ThreadPool {
    /// Build a pool that keeps `threads` cores busy (minimum 1): the
    /// caller of a parallel region counts as one, so `threads - 1`
    /// workers are spawned.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot::default()),
            wake: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gc-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
            barriers: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        }
    }

    /// Pool sized to the host's available parallelism.
    pub fn with_host_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    }

    /// Number of cores this pool keeps busy (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body(start, end)` over contiguous chunks of `0..n`, each at
    /// most `grain` long. Blocks until all indices complete (implicit
    /// barrier). Chunks are claimed dynamically, so uneven chunk costs
    /// still balance.
    ///
    /// With one thread (or `n <= grain`) the body runs inline on the
    /// caller with no allocation or synchronization beyond counters.
    pub fn parallel_for_grained<F>(&self, n: usize, grain: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        self.barriers.fetch_add(1, Ordering::Relaxed);
        if self.workers.is_empty() || n <= grain {
            body(0, n);
            self.chunks.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: erases the borrow lifetime of `body`. The pointer is
        // only dereferenced for claims made before the cursor passes `n`,
        // and this frame blocks below until every such claim completed.
        let job: *const (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(&body as &(dyn Fn(usize, usize) + Sync)) };
        let task = Arc::new(Task {
            job,
            n,
            grain,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
        });
        {
            let mut slot = self.shared.slot.lock().expect("pool poisoned");
            slot.epoch += 1;
            slot.task = Some(Arc::clone(&task));
        }
        self.shared.wake.notify_all();
        // Participate, then wait out stragglers still in their last chunk.
        task.work();
        let mut spins = 0u32;
        while task.pending.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Retire the task so idle workers stop holding it alive.
        {
            let mut slot = self.shared.slot.lock().expect("pool poisoned");
            if slot.task.as_ref().is_some_and(|t| Arc::ptr_eq(t, &task)) {
                slot.task = None;
            }
        }
        // Claims tile 0..n exactly, so the region dispatched ceil(n/grain)
        // chunks regardless of which thread ran each one.
        self.chunks
            .fetch_add(n.div_ceil(grain) as u64, Ordering::Relaxed);
    }

    /// Run `body(i)` for every `i in 0..n` with an automatically chosen
    /// grain (a few chunks per thread). Blocks until all indices
    /// complete (implicit barrier).
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let grain = self.default_grain(n);
        self.parallel_for_grained(n, grain, |start, end| {
            for i in start..end {
                body(i);
            }
        });
    }

    /// The grain `parallel_for` would pick for an `n`-iteration loop:
    /// roughly four chunks per thread so dynamic claiming can balance
    /// uneven iteration costs without shrinking chunks to single
    /// indices.
    pub fn default_grain(&self, n: usize) -> usize {
        n.div_ceil(self.threads * 4).max(1)
    }

    /// Total `parallel_for` barriers executed so far — the
    /// synchronization count that coarse-grain fusion reduces.
    pub fn barrier_count(&self) -> u64 {
        self.barriers.load(Ordering::Relaxed)
    }

    /// Total contiguous chunks dispatched across all parallel regions.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut slot = shared.slot.lock().expect("pool poisoned");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if let Some(t) = slot.task.clone() {
                        break t;
                    }
                }
                slot = shared.wake.wait(slot).expect("pool poisoned");
            }
        };
        task.work();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool poisoned");
            slot.shutdown = true;
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_all_indices_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(1000, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_iterations_no_barrier_hang() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(0, |_| panic!("must not run"));
        assert_eq!(pool.barrier_count(), 0);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(10, |i| {
            sum.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(sum.into_inner(), 55);
    }

    #[test]
    fn counts_barriers() {
        let pool = ThreadPool::new(2);
        for _ in 0..5 {
            pool.parallel_for(4, |_| {});
        }
        assert_eq!(pool.barrier_count(), 5);
    }

    #[test]
    fn more_threads_than_work() {
        let pool = ThreadPool::new(8);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(3, |i| {
            sum.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(sum.into_inner(), 6);
    }

    #[test]
    fn grained_chunks_are_contiguous_and_bounded() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(Vec::new());
        pool.parallel_for_grained(103, 10, |start, end| {
            assert!(end - start <= 10);
            seen.lock().unwrap().push((start, end));
        });
        let mut chunks = seen.into_inner().unwrap();
        chunks.sort();
        // Chunks tile 0..103 exactly.
        let mut next = 0;
        for (s, e) in chunks {
            assert_eq!(s, next);
            next = e;
        }
        assert_eq!(next, 103);
    }

    #[test]
    fn grained_serial_when_fits_one_chunk() {
        let pool = ThreadPool::new(4);
        let before = pool.chunk_count();
        let count = AtomicUsize::new(0);
        pool.parallel_for_grained(7, 16, |start, end| {
            assert_eq!((start, end), (0, 7));
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.into_inner(), 1);
        assert_eq!(pool.chunk_count() - before, 1);
    }

    #[test]
    fn reuses_workers_across_many_regions() {
        let pool = ThreadPool::new(4);
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            pool.parallel_for_grained(64, 8, |start, end| {
                sum.fetch_add((start..end).sum::<usize>(), Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 2016, "round {round}");
        }
        assert_eq!(pool.barrier_count(), 200);
    }

    #[test]
    fn nested_parallel_for_completes() {
        let pool = Arc::new(ThreadPool::new(4));
        let total = AtomicUsize::new(0);
        let p2 = Arc::clone(&pool);
        pool.parallel_for(4, |_| {
            p2.parallel_for(8, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.into_inner(), 32);
    }
}
