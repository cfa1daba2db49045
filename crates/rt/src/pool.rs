//! A zero-dependency scoped thread pool with deterministic parallel
//! mapping.
//!
//! The evaluation loop of the paper — state-graph construction for STG
//! verification and the Figure 7 parameter sweeps — is embarrassingly
//! parallel, but the repo's determinism contract (every artefact replays
//! bit-identically) rules out any parallelism whose *observable results*
//! depend on scheduling. This module provides the substrate that squares
//! the two:
//!
//! * [`Pool`]: a fixed set of worker threads sized by `A4A_THREADS` (or
//!   [`std::thread::available_parallelism`]), shared process-wide via
//!   [`Pool::global`] or constructed explicitly for tests that compare
//!   thread counts in one process.
//! * [`Pool::scope`] / [`Scope::spawn`]: structured parallelism over
//!   borrowed data. The calling thread *helps* drain the queue while it
//!   waits, so nested scopes make progress even on a pool of one worker.
//!   A panic in any spawned job poisons the scope and re-panics at the
//!   `scope` call site.
//! * [`Pool::par_map`]: an order-preserving parallel map. Workers claim
//!   *chunks* of indices from a shared cursor (a chunked self-scheduling
//!   deque: idle workers steal the next chunk as soon as they finish, so
//!   irregular per-item loads balance), but every result lands in the
//!   slot of its input index — the output is `items.map(f)` exactly,
//!   independent of worker count and scheduling.
//!
//! Determinism contract: for a pure `f`, `pool.par_map(items, f)` equals
//! `items.into_iter().map(f).collect()` for every pool size, and with
//! `A4A_THREADS=1` every entry point falls back to the plain sequential
//! loop on the calling thread (no workers are consulted at all).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A heap job with the `'static` lifetime the queue requires; scoped
/// spawns transmute their `'scope` closures to this (safe because
/// [`Pool::scope`] joins every job before returning).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    /// FIFO injector queue; workers and helping callers pop from the
    /// front.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    work: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.work.notify_one();
    }

    /// Non-blocking pop, used by threads that help while waiting.
    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }
}

/// Per-scope completion state.
struct ScopeState {
    /// Jobs spawned and not yet finished.
    pending: AtomicUsize,
    /// Set when any job of this scope panicked.
    panicked: AtomicBool,
    /// Signalled on every job completion (any scope); waiters re-check.
    done: Mutex<()>,
    done_cv: Condvar,
}

/// A fixed-size worker pool. See the module docs for the determinism
/// contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

/// The worker count the environment asks for: `A4A_THREADS` when set
/// (minimum 1), otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    match std::env::var("A4A_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("A4A_THREADS={v:?} is not a thread count"))
            .max(1),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

impl Pool {
    /// Creates a pool with exactly `threads` workers (`threads == 1`
    /// spawns no OS threads: every entry point then runs inline on the
    /// caller).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = if threads == 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("a4a-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect()
        };
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] workers. Library hot paths (reachability,
    /// state graphs, sweeps) run on this pool unless handed an explicit
    /// one, so `A4A_THREADS` controls the whole binary.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// The worker count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] on which jobs borrowing the caller's
    /// stack can be spawned. Returns once every spawned job has
    /// finished.
    ///
    /// The calling thread executes queued jobs while it waits, so a job
    /// that itself opens a scope cannot deadlock the pool — even with a
    /// single worker, somebody is always running something.
    ///
    /// # Panics
    ///
    /// Panics if any spawned job panicked (the scope is *poisoned*: all
    /// sibling jobs still run to completion first, then the panic
    /// surfaces here). A panic inside `f` itself also waits for spawned
    /// jobs before unwinding further.
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _marker: std::marker::PhantomData,
        };
        // The guard drains the scope even if `f` unwinds, so no job can
        // outlive the borrows it captured.
        let guard = ScopeGuard {
            shared: &self.shared,
            state: &state,
        };
        let result = f(&scope);
        drop(guard);
        if state.panicked.load(Ordering::Acquire) {
            panic!("a4a_rt::pool: a job spawned in this scope panicked");
        }
        result
    }

    /// Order-preserving parallel map with automatic chunking: the
    /// deterministic replacement for `items.into_iter().map(f)`.
    ///
    /// See [`Pool::par_map_chunked`] for the guarantees.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.par_map_chunked(0, items, f)
    }

    /// [`Pool::par_map`] with an explicit chunk size (`0` picks one
    /// automatically: enough chunks that stragglers rebalance, large
    /// enough that cursor traffic stays cold).
    ///
    /// Workers repeatedly claim the next `chunk` indices from a shared
    /// cursor and write each `f(item)` into the result slot of the
    /// item's input index, so the output order is the input order
    /// regardless of scheduling. With one thread (or one item) this runs
    /// the plain sequential loop on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any item (after all in-flight items
    /// finish).
    pub fn par_map_chunked<T, R, F>(&self, chunk: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let chunk = if chunk == 0 {
            // ~4 chunks per worker balances irregular loads without
            // hammering the cursor; at least 1.
            (n / (4 * self.threads)).max(1)
        } else {
            chunk
        };
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let (slots_ref, out_ref, cursor, f) = (&slots, &out, &cursor, &f);
        self.scope(|s| {
            // One claiming loop per worker; the caller runs one too
            // (inside the scope wait, via help), so `threads` loops keep
            // `threads` threads busy.
            for _ in 0..self.threads.min(n) {
                s.spawn(move || loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        let item = slots_ref[i]
                            .lock()
                            .unwrap()
                            .take()
                            .expect("par_map slot claimed twice");
                        *out_ref[i].lock().unwrap() = Some(f(item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|m| m.into_inner().unwrap().expect("par_map slot not filled"))
            .collect()
    }

    /// Order-preserving parallel map over an index range: the borrowing
    /// variant of [`Pool::par_map`] for frontiers that already live in
    /// an arena. `f(i)` typically reads `&arena[i]` — nothing is cloned
    /// or moved into the pool, which is what keeps BFS levels
    /// allocation-free on the input side.
    ///
    /// Same determinism contract as [`Pool::par_map`]: the output is
    /// `range.map(f).collect()` exactly, for every pool size, and with
    /// one thread (or one index) the plain sequential loop runs on the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any index (after all in-flight indices
    /// finish).
    pub fn par_map_range<R, F>(&self, range: std::ops::Range<usize>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n = range.len();
        if self.threads <= 1 || n <= 1 {
            return range.map(f).collect();
        }
        let chunk = (n / (4 * self.threads)).max(1);
        let start0 = range.start;
        let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let (out_ref, cursor, f) = (&out, &cursor, &f);
        self.scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(move || loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        *out_ref[i].lock().unwrap() = Some(f(start0 + i));
                    }
                });
            }
        });
        out.into_iter()
            .map(|m| m.into_inner().unwrap().expect("par_map_range slot not filled"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Set the flag under the queue lock: a worker checks it under
            // the same lock before waiting, so it either sees the flag or
            // is already waiting when the notification goes out.
            let _queue = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.work.wait(q).unwrap();
            }
        };
        job();
    }
}

/// Handle for spawning jobs that may borrow data outside the closure
/// (anything alive for the duration of the [`Pool::scope`] call).
pub struct Scope<'pool, 'scope> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, like [`std::thread::Scope`].
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queues `f` on the pool. With a single-thread pool the job runs
    /// immediately on the calling thread instead.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.threads <= 1 {
            // Sequential fallback: run inline, but keep the panic
            // contract (poison, surface at the scope call site).
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                self.state.panicked.store(true, Ordering::Release);
            }
            return;
        }
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
            let _lock = state.done.lock().unwrap();
            state.done_cv.notify_all();
        });
        // SAFETY: the job only borrows data outliving 'scope, and the
        // ScopeGuard in Pool::scope blocks (even during unwinding) until
        // `pending` hits zero, so the job never outlives its borrows.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job)
        };
        self.pool.shared.push(job);
    }
}

/// Blocks until the scope's jobs are done; helps run queued work while
/// waiting. Runs in `Drop` so an unwinding scope body still joins.
struct ScopeGuard<'a> {
    shared: &'a Shared,
    state: &'a ScopeState,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        while self.state.pending.load(Ordering::Acquire) > 0 {
            // Help: run whatever is queued (this scope's jobs or a
            // nested scope's) on this thread.
            if let Some(job) = self.shared.try_pop() {
                job();
                continue;
            }
            // Nothing queued: our jobs are in flight on workers. Sleep
            // until some job, somewhere, completes.
            let lock = self.state.done.lock().unwrap();
            if self.state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            // Timed wait: a job of a *different* scope finishing does
            // not signal our condvar, and its completion may be what
            // frees a worker for our jobs.
            let (_lock, _timeout) = self
                .state
                .done_cv
                .wait_timeout(lock, std::time::Duration::from_millis(1))
                .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn par_map_matches_map_small() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let par = pool.par_map(items, |x| x * x + 1);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_single_thread_is_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let ids = pool.par_map(vec![0u8; 8], move |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn scope_joins_before_returning() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = Pool::new(2);
        let out: Vec<u32> = pool.par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
