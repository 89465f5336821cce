//! The scoped, chunked thread pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the auto-detected worker count (useful
/// for CI determinism checks and for benchmarking at fixed widths). Read
/// once, at the first [`available_workers`] call of the process.
pub const WORKERS_ENV: &str = "PM_PAR_WORKERS";

/// Worker count to use when the caller does not pin one: the value of the
/// `PM_PAR_WORKERS` environment variable when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (falling back to 1 if
/// even that is unavailable).
///
/// Computed at the first call and cached for the life of the process, so
/// a [`Pool::auto`] per simulation run re-reads neither the variable nor
/// the cgroup files; setting `PM_PAR_WORKERS` after that first use has no
/// effect.
#[must_use]
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// A fixed-width pool of scoped workers over which index ranges are
/// fanned out in chunks.
///
/// The pool holds no threads between calls: each [`Pool::par_map`] /
/// [`Pool::par_map_reduce`] spawns `workers − 1` threads inside a
/// [`std::thread::scope`] and the calling thread works the same chunk
/// queue as the last worker, so a two-worker call starts one thread.
/// That start is paid per call: on a 2-vCPU VM the spawned worker joins
/// 1–3 ms after the caller began, so a call shorter than a few
/// milliseconds runs at one worker's speed (crate doc; ROADMAP item
/// 6 (c) amortises it over a figure).
/// Borrowed data (configs, models, recorders) can be captured by the work
/// closures without `'static` bounds, and a panic in any chunk — whether
/// the caller or a spawned worker ran it — re-raises in the caller
/// instead of poisoning shared state.
///
/// **Determinism contract.** Work on `0..n` is split into fixed chunks
/// `[0, c), [c, 2c), …` of the caller-chosen size `c`; workers claim
/// chunks dynamically (one atomic fetch-add each), and per-chunk results
/// are combined *in chunk order* after all workers join. The outcome is a
/// pure function of `(n, c)` and the item closures — never of the worker
/// count or the OS schedule — so `Pool::new(1)` and `Pool::new(64)`
/// produce bit-identical floating-point reductions.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool of exactly `workers` workers: the calling thread and
    /// `workers − 1` spawned ones.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        Pool { workers }
    }

    /// A pool sized by [`available_workers`] (env override, else core
    /// count, both read once per process).
    #[must_use]
    pub fn auto() -> Self {
        Pool::new(available_workers())
    }

    /// A single-worker pool: runs every chunk inline on the calling
    /// thread, in chunk order, spawning nothing. The reference
    /// configuration for equivalence tests.
    #[must_use]
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Workers this pool fans work across, the calling thread included.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `0..n` through `map`, returning results in index order.
    ///
    /// Indices are claimed one at a time (chunk size 1) — right for
    /// coarse, heterogeneous items such as whole sweep points. For
    /// fine-grained items prefer [`Pool::par_map_reduce`] with a larger
    /// chunk.
    pub fn par_map<T, F>(&self, n: usize, map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let pairs = self.par_map_reduce(
            n,
            1,
            Vec::new,
            |acc: &mut Vec<(usize, T)>, i| acc.push((i, map(i))),
            |acc, mut part| acc.append(&mut part),
        );
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        pairs.into_iter().map(|(_, v)| v).collect()
    }

    /// Chunked parallel map-reduce over `0..n` with an order-fixed
    /// combine.
    ///
    /// For each chunk of `chunk` consecutive indices a fresh accumulator
    /// is built with `init`, every index of the chunk is folded into it in
    /// ascending order with `fold`, and the finished chunk accumulators
    /// are combined with `merge` in ascending chunk order on the calling
    /// thread. Returns `init()` unchanged when `n == 0`.
    ///
    /// The chunk size trades scheduling overhead (one atomic op per
    /// chunk) against load balance; anything that keeps a chunk in the
    /// tens of microseconds or more is effectively free.
    ///
    /// # Panics
    /// Panics if `chunk == 0`, and re-raises panics from the closures.
    pub fn par_map_reduce<A, I, F, M>(
        &self,
        n: usize,
        chunk: usize,
        init: I,
        fold: F,
        merge: M,
    ) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
        M: Fn(&mut A, A),
    {
        self.par_map_reduce_with(n, chunk, || (), init, |(), acc, i| fold(acc, i), merge)
    }

    /// [`Pool::par_map_reduce`] with a per-worker state: each worker
    /// builds one `W` with `state` before its first chunk and hands it,
    /// mutably, to `fold` for every index it runs — reusable buffers, so
    /// that an item allocates nothing once its worker has run one.
    ///
    /// The state is private to a worker but which indices share one is up
    /// to the schedule, so the determinism contract holds only if `fold`'s
    /// effect on the accumulator does not depend on what the state holds
    /// on entry (every item leaves it as it found it, or overwrites what
    /// it reads).
    ///
    /// # Panics
    /// As for [`Pool::par_map_reduce`].
    pub fn par_map_reduce_with<W, A, S, I, F, M>(
        &self,
        n: usize,
        chunk: usize,
        state: S,
        init: I,
        fold: F,
        merge: M,
    ) -> A
    where
        A: Send,
        S: Fn() -> W + Sync,
        I: Fn() -> A + Sync,
        F: Fn(&mut W, &mut A, usize) + Sync,
        M: Fn(&mut A, A),
    {
        assert!(chunk > 0, "chunk size must be positive");
        let mut out = init();
        if n == 0 {
            return out;
        }
        let chunks = n.div_ceil(chunk);
        let run_chunk = |w: &mut W, c: usize| {
            let mut acc = init();
            for i in c * chunk..(((c + 1) * chunk).min(n)) {
                fold(w, &mut acc, i);
            }
            acc
        };
        let workers = self.workers.min(chunks);
        if workers == 1 {
            // Inline path — same chunk layout and merge order as the
            // parallel path, so the reduction is bit-identical.
            let mut w = state();
            for c in 0..chunks {
                let acc = run_chunk(&mut w, c);
                merge(&mut out, acc);
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut w = state();
            let mut local: Vec<(usize, A)> = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return local;
                }
                local.push((c, run_chunk(&mut w, c)));
            }
        };
        let mut parts: Vec<Option<A>> = Vec::with_capacity(chunks);
        parts.resize_with(chunks, || None);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            // The caller is the last worker. Should one of its chunks
            // panic, the scope still joins the spawned workers before the
            // panic leaves it.
            let mine = work();
            let theirs = spawned
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            for (c, acc) in mine.into_iter().chain(theirs) {
                debug_assert!(parts[c].is_none(), "chunk {c} claimed twice");
                parts[c] = Some(acc);
            }
        });
        for part in parts {
            merge(&mut out, part.expect("every chunk must be processed"));
        }
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn par_map_preserves_index_order() {
        let pool = Pool::new(4);
        let out = pool.par_map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::new(3);
        assert!(pool.par_map(0, |i| i).is_empty());
        assert_eq!(pool.par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn reduce_matches_serial_for_every_width() {
        // Non-associative floating-point reduction: the outcome depends on
        // grouping, so this is a real determinism check, not a sum of
        // integers.
        let reference = Pool::serial().par_map_reduce(
            997,
            16,
            || 0.0f64,
            |acc, i| *acc += 1.0 / (1.0 + i as f64),
            |acc, part| *acc = (*acc + part) * (1.0 + 1e-16),
        );
        for workers in [2, 3, 4, 7, 16] {
            let got = Pool::new(workers).par_map_reduce(
                997,
                16,
                || 0.0f64,
                |acc, i| *acc += 1.0 / (1.0 + i as f64),
                |acc, part| *acc = (*acc + part) * (1.0 + 1e-16),
            );
            assert_eq!(
                reference.to_bits(),
                got.to_bits(),
                "width {workers} diverged"
            );
        }
    }

    #[test]
    fn every_index_folded_exactly_once() {
        let pool = Pool::new(8);
        let hits = (0..257).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        pool.par_map_reduce(
            257,
            10,
            || (),
            |(), i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            |(), ()| {},
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn chunk_boundaries_do_change_grouping() {
        // Sanity check that the test above is meaningful: different chunk
        // sizes are allowed to (and here do) give different groupings.
        let sum = |chunk: usize| {
            Pool::serial().par_map_reduce(
                100,
                chunk,
                || 0.0f64,
                |acc, i| *acc += 0.1 + i as f64 * 1e-3,
                |acc, part| *acc = (*acc + part) * (1.0 + 1e-14),
            )
        };
        assert_ne!(sum(7).to_bits(), sum(64).to_bits());
    }

    #[test]
    fn borrows_non_static_data() {
        let data: Vec<u64> = (0..50).collect();
        let pool = Pool::new(2);
        let total = pool.par_map_reduce(
            data.len(),
            8,
            || 0u64,
            |acc, i| *acc += data[i],
            |acc, part| *acc += part,
        );
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn zero_items_returns_init() {
        let pool = Pool::new(4);
        let out = pool.par_map_reduce(0, 5, || 41, |acc, _| *acc += 1, |acc, p| *acc += p);
        assert_eq!(out, 41);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        Pool::new(2).par_map_reduce(10, 0, || (), |(), _| {}, |(), ()| {});
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }

    /// Called from the items of a two-worker run: each side marks that it
    /// ran an item and waits until the other side has run one too, so the
    /// caller and the spawned thread are both certain to run a chunk.
    fn both_sides_run(caller: ThreadId, other_ran: &AtomicBool, caller_ran: &AtomicBool) {
        if std::thread::current().id() == caller {
            caller_ran.store(true, Ordering::SeqCst);
            while !other_ran.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        } else {
            other_ran.store(true, Ordering::SeqCst);
            while !caller_ran.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn the_callers_thread_runs_chunks() {
        let caller = std::thread::current().id();
        let (other_ran, caller_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let ids = Pool::new(2).par_map(8, |_| {
            both_sides_run(caller, &other_ran, &caller_ran);
            std::thread::current().id()
        });
        assert!(ids.contains(&caller), "the caller ran no chunk");
        assert!(ids.iter().any(|&id| id != caller), "no spawned worker ran");
    }

    #[test]
    fn a_pool_of_n_uses_at_most_n_threads() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 3, 5] {
            let ids = Mutex::new(Vec::<ThreadId>::new());
            Pool::new(workers).par_map_reduce(
                400,
                1,
                || (),
                |(), _| {
                    let id = std::thread::current().id();
                    let mut ids = ids.lock().unwrap();
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                },
                |(), ()| {},
            );
            let ids = ids.into_inner().unwrap();
            assert!(ids.len() <= workers, "{} threads for {workers}", ids.len());
            if workers == 1 {
                assert_eq!(ids, [caller], "a serial pool runs inline");
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk on the caller")]
    fn a_panic_in_the_callers_chunk_re_raises() {
        let caller = std::thread::current().id();
        let (other_ran, caller_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        Pool::new(2).par_map(8, |_| {
            if std::thread::current().id() == caller {
                caller_ran.store(true, Ordering::SeqCst);
                panic!("chunk on the caller");
            }
            both_sides_run(caller, &other_ran, &caller_ran);
        });
    }

    #[test]
    #[should_panic(expected = "chunk on a spawned worker")]
    fn a_panic_in_a_spawned_workers_chunk_re_raises() {
        let caller = std::thread::current().id();
        let (other_ran, caller_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        Pool::new(2).par_map(8, |_| {
            if std::thread::current().id() != caller {
                other_ran.store(true, Ordering::SeqCst);
                panic!("chunk on a spawned worker");
            }
            both_sides_run(caller, &other_ran, &caller_ran);
        });
    }

    #[test]
    fn per_worker_state_is_built_once_per_worker() {
        let built = AtomicUsize::new(0);
        let sum = Pool::new(3).par_map_reduce_with(
            1000,
            7,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            || 0u64,
            |scratch, acc, i| {
                scratch.clear();
                scratch.push(i as u64);
                *acc += scratch[0];
            },
            |acc, part| *acc += part,
        );
        assert_eq!(sum, (0..1000u64).sum());
        assert!((1..=3).contains(&built.load(Ordering::Relaxed)));
    }
}
