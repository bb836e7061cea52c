//! Persistent worker-pool primitives replacing `rayon` in the workspace's
//! hot paths (Monte-Carlo diffusion, RR-set sampling, per-sample gradients,
//! tensor kernels).
//!
//! Work is split into contiguous index chunks, one per worker, dispatched
//! to a **lazily-initialized persistent pool** (a global job queue drained
//! by detached worker threads), and re-assembled in input order — so every
//! result is bit-identical to the sequential run regardless of the thread
//! count (`tests/determinism.rs` pins this end to end). Earlier revisions
//! spawned and joined fresh OS threads inside every call via
//! `std::thread::scope`; the pool amortises that cost to a queue push, which
//! is what makes parallelism affordable *inside* tensor kernels rather than
//! only around whole batches.
//!
//! ## Scheduling model
//!
//! * One global FIFO of jobs (`Mutex<VecDeque>` + `Condvar`). Workers are
//!   spawned on demand, up to the largest width any call has requested
//!   (capped), and then live for the process lifetime.
//! * The calling thread always executes chunk 0 itself, then **helps**:
//!   while its remaining chunks are unfinished it drains jobs from the
//!   queue (its own or foreign) instead of blocking. This keeps a 1-core
//!   box truthful (no forced context switches), and keeps concurrent
//!   callers on different threads deadlock-free.
//! * A parallel call issued from inside a chunk (a pool job, or the
//!   caller's own chunk 0) runs all its chunks inline on that thread. The
//!   outer call already occupies the pool, so splitting again would only
//!   add queue traffic, and a thread waiting on its sub-jobs could pick up
//!   an unrelated outer chunk meanwhile. A thread-local flag, set around
//!   every chunk, makes the nested call split for one thread.
//! * Completion is tracked by a per-call latch; a panicking chunk is
//!   caught, recorded, and re-raised on the calling thread after every
//!   sibling chunk has finished (so borrowed data is never freed while a
//!   worker can still touch it).
//!
//! Which thread runs a chunk never affects results: chunk boundaries
//! depend only on `n` and the resolved thread count, and reductions
//! combine chunk results in chunk order.
//!
//! Thread-count resolution order (re-read on every call, so the pool
//! survives `set_threads` changes mid-process):
//! 1. [`set_threads`] override (tests, embedders),
//! 2. the `PRIVIM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! `PRIVIM_THREADS=1` (or a single-core box) short-circuits to a plain
//! sequential loop with zero thread overhead.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on pool size; callers asking for more still get correct
/// results (the caller helps drain the queue), just not more OS threads.
const MAX_WORKERS: usize = 192;

/// Force the worker count (`0` clears the override and returns to
/// `PRIVIM_THREADS` / detected parallelism). Takes effect for subsequent
/// calls; in-flight calls are unaffected. Already-spawned pool workers are
/// kept parked, not torn down — lowering the count only narrows chunking.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count the next parallel call will use.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("PRIVIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    work_available: Condvar,
    /// Workers spawned so far (monotone, ≤ MAX_WORKERS).
    spawned: AtomicUsize,
    /// Serialises spawning so two racing calls don't over-spawn.
    spawn_lock: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_available: Condvar::new(),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

/// Poison-tolerant lock: jobs are wrapped in `catch_unwind`, so a poisoned
/// mutex can only mean a panic *between* jobs, where the protected state is
/// still consistent — recover the guard instead of propagating.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Grow the pool (best-effort) so at least `target` workers exist. Spawn
/// failure is tolerated: correctness never depends on workers existing,
/// because the caller drains its own jobs while waiting.
fn ensure_workers(target: usize) {
    let p = pool();
    let target = target.min(MAX_WORKERS);
    if p.spawned.load(Ordering::Relaxed) >= target {
        return;
    }
    let _g = lock(&p.spawn_lock);
    while p.spawned.load(Ordering::Relaxed) < target {
        let spawned = std::thread::Builder::new()
            .name("privim-par".to_string())
            .spawn(worker_loop);
        match spawned {
            Ok(_handle) => {
                p.spawned.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => break, // resource exhaustion: run with what we have
        }
    }
}

/// Detached worker: pop a job or park on the condvar, forever. Jobs carry
/// their own panic handling, so this loop cannot unwind.
fn worker_loop() {
    let p = pool();
    loop {
        let job = {
            let mut q = lock(&p.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = p
                    .work_available
                    .wait(q)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        job();
    }
}

/// Per-call completion latch. Counts outstanding *pool-dispatched* chunks
/// (the caller's own chunk 0 is not counted — it runs inline).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete(&self) {
        let mut r = lock(&self.remaining);
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock(&self.remaining) == 0
    }

    /// Block until every dispatched chunk finished (no helping; callers
    /// only reach this once the queue holds none of their jobs).
    fn wait(&self) {
        let mut r = lock(&self.remaining);
        while *r > 0 {
            r = self
                .done
                .wait(r)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.panic).take()
    }
}

thread_local! {
    /// True while this thread runs a chunk of a parallel call.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a chunk until dropped, restoring
/// the previous state even when the chunk unwinds.
struct ChunkMark(bool);

impl ChunkMark {
    fn enter() -> ChunkMark {
        ChunkMark(IN_CHUNK.with(|c| c.replace(true)))
    }
}

impl Drop for ChunkMark {
    fn drop(&mut self) {
        let prev = self.0;
        let _ = IN_CHUNK.try_with(|c| c.set(prev));
    }
}

/// Execute `run_chunk(t)` for every `t in 0..chunks`: chunk 0 inline on the
/// caller, chunks 1.. on the pool. Returns only after *every* chunk has
/// finished, so `run_chunk` may borrow from the caller's stack. A panic in
/// any chunk is re-raised here once all siblings are done.
fn run_on_pool<F>(chunks: usize, run_chunk: F)
where
    F: Fn(usize) + Sync,
{
    if chunks <= 1 {
        run_chunk(0);
        return;
    }
    ensure_workers(chunks - 1);
    let latch = Latch::new(chunks - 1);

    // SAFETY: the borrowed closure and latch are promoted to 'static only
    // for the queue's benefit; this function does not return until the
    // latch confirms every dispatched job has run to completion (panicking
    // or not), so no job can outlive the borrows it captures.
    let f_ref: &(dyn Fn(usize) + Sync) = &run_chunk;
    let f_static: &'static (dyn Fn(usize) + Sync) =
        // privim-lint: allow(unsafe, reason = "lifetime erasure only, no type change: the closure ref outlives every queued job because the latch below blocks this frame until all jobs finish, panicking or not")
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f_ref) };
    // privim-lint: allow(unsafe, reason = "same promotion as f_static: workers' last touch of the latch is the count_down this frame's wait() blocks on, so the borrow cannot dangle")
    let latch_static: &'static Latch = unsafe { std::mem::transmute::<&Latch, _>(&latch) };

    {
        let p = pool();
        let mut q = lock(&p.queue);
        for t in 1..chunks {
            q.push_back(Box::new(move || {
                let _mark = ChunkMark::enter();
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f_static(t))) {
                    latch_static.record_panic(payload);
                }
                latch_static.complete();
            }));
        }
        p.work_available.notify_all();
    }

    // The caller's own chunk. Deferring the unwind keeps the safety
    // argument intact: siblings still borrow the stack.
    let mine = catch_unwind(AssertUnwindSafe(|| {
        let _mark = ChunkMark::enter();
        run_chunk(0)
    }));

    // Help-then-wait: drain queued jobs (ours or another caller's) while our
    // chunks are outstanding; once the queue is empty every remaining chunk
    // of ours is already running on some thread, so blocking is safe.
    while !latch.is_done() {
        let job = lock(&pool().queue).pop_front();
        match job {
            Some(job) => job(),
            None => latch.wait(),
        }
    }

    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    if let Some(payload) = latch.take_panic() {
        resume_unwind(payload);
    }
}

/// The `(threads, chunk_len)` split a parallel call over `n` items uses —
/// shared by every primitive so the partition (and therefore the reduction
/// order) is identical everywhere. Inside a chunk it is one thread: the
/// nested call runs inline.
fn split(n: usize) -> (usize, usize) {
    let threads = if IN_CHUNK.with(Cell::get) {
        1
    } else {
        num_threads().min(n.max(1))
    };
    (threads, n.div_ceil(threads.max(1)))
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// `(0..n).map(f)` evaluated on the pool; results in index order.
pub fn map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let (threads, chunk) = split(n);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<Vec<U>>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    run_on_pool(threads, |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        let part: Vec<U> = (lo..hi).map(&f).collect();
        *lock(&slots[t]) = Some(part);
    });
    let mut out: Vec<U> = Vec::with_capacity(n);
    for slot in slots {
        // Chunk-order reassembly; a missing slot is impossible because a
        // panicking chunk was already re-raised by `run_on_pool`.
        if let Some(part) = lock(&slot).take() {
            out.extend(part);
        }
    }
    out
}

/// Parallel map over a slice; results in input order.
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_range(items.len(), |i| f(&items[i]))
}

/// Parallel `(0..n).map(f).sum()` — each worker folds its chunk locally,
/// the chunk sums are added in chunk order (deterministic for a fixed
/// thread count; exactly associative reductions — integers — are identical
/// at *any* thread count).
pub fn sum_range<U, F>(n: usize, f: F) -> U
where
    U: Send + std::iter::Sum<U>,
    F: Fn(usize) -> U + Sync,
{
    sum_chunks(n, |range| range.map(&f).sum())
}

/// Chunk-level parallel sum: `f` folds one contiguous index range and may
/// keep per-chunk scratch state alive across its items (the Monte-Carlo
/// loops reuse their visited-buffers this way). Chunk sums are combined in
/// chunk order. The partition depends on the thread count, so use this only
/// for reductions that are exactly associative (integer sums) or tolerant
/// of regrouping.
pub fn sum_chunks<U, F>(n: usize, f: F) -> U
where
    U: Send + std::iter::Sum<U>,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    let (threads, chunk) = split(n);
    if threads <= 1 || n <= 1 {
        return f(0..n);
    }
    let slots: Vec<Mutex<Option<U>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    run_on_pool(threads, |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        *lock(&slots[t]) = Some(f(lo..hi));
    });
    slots
        .into_iter()
        .filter_map(|slot| lock(&slot).take())
        .sum()
}

/// Partition a mutable row-major buffer (`data.len() == rows · row_len`)
/// into contiguous row chunks, one per worker, and run
/// `f(first_row, chunk)` on each. Every row is written by exactly one
/// worker, and the row ranges are identical to the serial traversal — the
/// disjointness that keeps row-parallel kernels bit-identical at any
/// thread count.
pub fn for_each_row_chunk<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % row_len, 0, "ragged row buffer");
    let rows = data.len() / row_len;
    let (threads, chunk) = split(rows);
    if threads <= 1 || rows <= 1 {
        f(0, data);
        return;
    }
    // Pre-split into disjoint &mut chunks; each job takes its own slot.
    let mut parts: Vec<Mutex<Option<(usize, &mut [T])>>> = Vec::with_capacity(threads);
    let mut rest = data;
    let mut row0 = 0usize;
    for t in 0..threads {
        let hi = ((t + 1) * chunk).min(rows);
        let take = (hi - row0) * row_len;
        let (head, tail) = rest.split_at_mut(take);
        parts.push(Mutex::new(Some((row0, head))));
        rest = tail;
        row0 = hi;
    }
    run_on_pool(threads, |t| {
        if let Some((first_row, chunk_data)) = lock(&parts[t]).take() {
            f(first_row, chunk_data);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // `set_threads` is process-global; serialise the tests that poke it so
    // they don't race under the parallel test runner.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn map_range_preserves_order() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let v = map_range(1000, |i| i * i);
        set_threads(0);
        assert_eq!(v, (0..1000).map(|i| i * i).collect::<Vec<usize>>());
    }

    #[test]
    fn map_matches_sequential() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..257).collect();
        set_threads(3);
        let par: Vec<u64> = map(&items, |&x| x * 3 + 1);
        set_threads(0);
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn sum_range_matches_sequential() {
        let _g = LOCK.lock().unwrap();
        for threads in [1usize, 2, 7] {
            set_threads(threads);
            let s: u64 = sum_range(10_001, |i| i as u64);
            assert_eq!(s, 10_001 * 10_000 / 2, "threads = {threads}");
        }
        set_threads(0);
    }

    #[test]
    fn sum_chunks_sees_every_index_once() {
        let _g = LOCK.lock().unwrap();
        for threads in [1usize, 2, 5, 13] {
            set_threads(threads);
            let s: u64 = sum_chunks(1234, |range| {
                // per-chunk scratch state is the point of this API
                let mut local = 0u64;
                for i in range {
                    local += i as u64;
                }
                local
            });
            assert_eq!(s, 1233 * 1234 / 2, "threads = {threads}");
        }
        set_threads(0);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let _g = LOCK.lock().unwrap();
        set_threads(8);
        assert!(map_range(0, |i| i).is_empty());
        assert_eq!(map_range(1, |i| i), vec![0]);
        assert_eq!(sum_range(0, |i| i), 0);
        for_each_row_chunk(&mut [] as &mut [u64], 4, |_, _| {});
        set_threads(0);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let _g = LOCK.lock().unwrap();
        set_threads(64);
        assert_eq!(map_range(3, |i| i + 1), vec![1, 2, 3]);
        set_threads(0);
    }

    #[test]
    fn override_wins_over_env() {
        let _g = LOCK.lock().unwrap();
        set_threads(2);
        assert_eq!(num_threads(), 2);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn for_each_row_chunk_writes_every_row_once() {
        let _g = LOCK.lock().unwrap();
        for threads in [1usize, 2, 3, 7, 16] {
            set_threads(threads);
            let mut data = vec![0u64; 33 * 5];
            for_each_row_chunk(&mut data, 5, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(5).enumerate() {
                    for (c, x) in row.iter_mut().enumerate() {
                        *x += ((first_row + r) * 10 + c) as u64;
                    }
                }
            });
            for r in 0..33 {
                for c in 0..5 {
                    assert_eq!(data[r * 5 + c], (r * 10 + c) as u64, "threads={threads}");
                }
            }
        }
        set_threads(0);
    }

    #[test]
    fn nested_parallel_calls_complete() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        // inner parallel map issued from inside pool jobs: the caller-helps
        // loop must keep making progress even with every worker occupied.
        let outer = map_range(8, |i| {
            let inner: u64 = sum_range(100, |j| (i * j) as u64);
            inner
        });
        set_threads(0);
        let expect: Vec<u64> = (0..8).map(|i| (i as u64) * 4950).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn nested_call_runs_on_the_outer_chunks_thread() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        // every inner item, in every outer chunk (the caller's chunk 0
        // included), must run on the thread that runs its outer item
        let same = map_range(8, |_| {
            let me = std::thread::current().id();
            map_range(16, |_| std::thread::current().id())
                .into_iter()
                .all(|t| t == me)
        });
        set_threads(0);
        assert_eq!(same, vec![true; 8]);
    }

    #[test]
    fn pool_survives_thread_count_changes() {
        let _g = LOCK.lock().unwrap();
        for threads in [2usize, 7, 1, 4, 16, 3] {
            set_threads(threads);
            let v = map_range(100, |i| i * 2);
            assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn worker_panic_is_reraised_on_caller() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            map_range(100, |i| {
                if i == 73 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        set_threads(0);
        assert!(result.is_err(), "panic must propagate to the caller");
        // ...and the pool must still be usable afterwards.
        set_threads(4);
        let v = map_range(50, |i| i + 1);
        set_threads(0);
        assert_eq!(v.len(), 50);
    }
}
