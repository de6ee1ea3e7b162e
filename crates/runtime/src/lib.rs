#![warn(missing_docs)]

//! `recipe-runtime` — a deterministic, dependency-free parallel runtime.
//!
//! The training and extraction hot paths of this workspace (CRF/L-BFGS
//! gradient sums, K-Means assignment, corpus-wide POS tagging, batch
//! recipe extraction) are embarrassingly parallel, but the workspace's
//! reproducibility contract demands that **every trained artifact and
//! every extraction output is bit-identical regardless of thread count**.
//! Off-the-shelf pools (rayon) do not make that guarantee for
//! floating-point reductions, and the hermetic `vendor/` policy rules out
//! registry dependencies anyway — so this crate implements the minimal
//! pool the workspace needs, on `std` alone and without `unsafe`.
//!
//! # Determinism model
//!
//! Two rules make every primitive thread-count-independent:
//!
//! 1. **Fixed chunking** — work is split into chunks whose boundaries
//!    depend only on the input length and the caller's chunk size, never
//!    on the number of worker threads. Workers *pull* chunk indices from
//!    an atomic cursor, so scheduling is dynamic, but which elements end
//!    up in which chunk is not.
//! 2. **Ordered reduction** — per-chunk results are placed by chunk
//!    index and combined strictly in index order on the calling thread.
//!    Floating-point sums therefore associate the same way at any thread
//!    count (including 1: the serial path folds the same chunks in the
//!    same order).
//!
//! Thread count resolves, in priority order: an explicit
//! [`Runtime::new`] argument, [`set_global_threads`] (the CLI's
//! `--threads`), the `RECIPE_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Handles into the global metrics registry for the pool's telemetry,
/// resolved once so hot-path increments are plain atomic adds. All
/// recording is gated on [`recipe_obs::enabled`] and never influences
/// chunking, scheduling or results.
struct PoolMetrics {
    /// Parallel calls dispatched (serial fallback included).
    par_calls: Arc<recipe_obs::Counter>,
    /// Chunks processed across all calls.
    chunks: Arc<recipe_obs::Counter>,
    /// Worker count of the most recent parallel dispatch.
    workers: Arc<recipe_obs::Gauge>,
    /// Per-worker busy time (seconds inside the caller's closure).
    worker_busy: Arc<recipe_obs::Histogram>,
    /// Per-worker idle time (call wall time minus busy time).
    worker_idle: Arc<recipe_obs::Histogram>,
    /// Chunks pulled by each worker in one call (queue balance).
    worker_chunks: Arc<recipe_obs::Histogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = recipe_obs::global();
        PoolMetrics {
            par_calls: reg.counter("runtime.par_calls"),
            chunks: reg.counter("runtime.chunks"),
            workers: reg.gauge("runtime.workers"),
            worker_busy: reg.latency_histogram("runtime.worker_busy_s"),
            worker_idle: reg.latency_histogram("runtime.worker_idle_s"),
            worker_chunks: reg.count_histogram("runtime.worker_chunks"),
        }
    })
}

/// Global thread-count override (0 = unset). Set by [`set_global_threads`].
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default thread count (the CLI's `--threads`).
/// `0` clears the override, falling back to `RECIPE_THREADS` / detection.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// Resolve the process-wide default thread count: the
/// [`set_global_threads`] override, else `RECIPE_THREADS`, else
/// [`std::thread::available_parallelism`], clamped to at least 1.
pub fn default_threads() -> usize {
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(v) = std::env::var("RECIPE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A worker-pool handle: just a resolved thread count. Creating one is
/// free; threads are scoped to each parallel call (no detached workers,
/// no `'static` bounds on closures or data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::global()
    }
}

impl Runtime {
    /// Runtime with an explicit thread count; `0` resolves through
    /// [`default_threads`] (CLI override → `RECIPE_THREADS` → detected).
    pub fn new(threads: usize) -> Self {
        Runtime {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }

    /// Runtime using the process-wide default thread count.
    pub fn global() -> Self {
        Runtime::new(0)
    }

    /// Single-threaded runtime (runs everything inline, same chunk/fold
    /// order as any parallel run).
    pub fn serial() -> Self {
        Runtime { threads: 1 }
    }

    /// Resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to fixed chunks of `items` and return the per-chunk
    /// results in chunk order. Chunk `c` covers
    /// `items[c * chunk_size .. min((c + 1) * chunk_size, len)]`;
    /// boundaries depend only on `items.len()` and `chunk_size`
    /// (`chunk_size` is clamped to at least 1), so the output is
    /// identical at every thread count.
    pub fn par_chunks_map<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        let take = |c: usize| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(items.len());
            &items[start..end]
        };
        let trace = recipe_obs::enabled();
        if trace {
            let m = pool_metrics();
            m.par_calls.inc();
            m.chunks.add(n_chunks as u64);
        }
        if self.threads <= 1 || n_chunks <= 1 {
            return (0..n_chunks).map(|c| f(c, take(c))).collect();
        }
        let workers = self.threads.min(n_chunks);
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
        let started = trace.then(Instant::now);
        let mut worker_busy_ns: Vec<u64> = Vec::new();
        let provenance = recipe_obs::provenance::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (cursor, f, take, provenance) = (&cursor, &f, &take, &provenance);
                    scope.spawn(move || {
                        recipe_obs::event::set_thread_name(&format!("runtime.worker.{w}"));
                        let _provenance = recipe_obs::provenance::install(provenance.clone());
                        let mut local = Vec::new();
                        let mut busy_ns = 0u64;
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            if trace {
                                let t0 = Instant::now();
                                local.push((c, f(c, take(c))));
                                busy_ns += t0.elapsed().as_nanos() as u64;
                            } else {
                                local.push((c, f(c, take(c))));
                            }
                        }
                        (local, busy_ns)
                    })
                })
                .collect();
            for handle in handles {
                // A worker panic propagates here, which aborts the scope.
                let (local, busy_ns) = handle.join().expect("runtime worker panicked");
                if trace {
                    let m = pool_metrics();
                    m.worker_chunks.record(local.len() as f64);
                    worker_busy_ns.push(busy_ns);
                }
                for (c, r) in local {
                    slots[c] = Some(r);
                }
            }
        });
        if let Some(started) = started {
            let wall_s = started.elapsed().as_secs_f64();
            let m = pool_metrics();
            m.workers.set(workers as f64);
            for busy_ns in worker_busy_ns {
                let busy_s = busy_ns as f64 / 1e9;
                m.worker_busy.record(busy_s);
                m.worker_idle.record((wall_s - busy_s).max(0.0));
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk produced a result"))
            .collect()
    }

    /// Ordered parallel map: `out[i] == f(i, &items[i])` for every `i`.
    /// The chunk size is derived from `items.len()` alone, so chunking —
    /// and therefore any per-chunk buffer reuse inside `f` — is
    /// thread-count-independent.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Aim for enough chunks that dynamic pulling load-balances well
        // at any plausible worker count, without per-item dispatch cost.
        let chunk_size = (items.len() / 64).clamp(1, 1024);
        let chunks = self.par_chunks_map(items, chunk_size, |c, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, item)| f(c * chunk_size + j, item))
                .collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// Map fixed chunks in parallel, then fold the per-chunk results
    /// strictly in chunk order: `reduce(..reduce(map(chunk 0), map(chunk
    /// 1)).., map(chunk n-1))`. Returns `None` for empty input. Because
    /// both the chunk boundaries and the fold order are fixed, a
    /// floating-point reduction is bit-identical at every thread count.
    ///
    /// Memory holds up to one `A` per chunk, so pick `chunk_size` large
    /// enough that `len / chunk_size` accumulators fit comfortably
    /// (gradient-sized partials want few chunks; scalar partials can
    /// afford many).
    pub fn par_map_reduce<T, A, M, R>(
        &self,
        items: &[T],
        chunk_size: usize,
        map: M,
        mut reduce: R,
    ) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(usize, &[T]) -> A + Sync,
        R: FnMut(A, A) -> A,
    {
        let mut partials = self.par_chunks_map(items, chunk_size, map).into_iter();
        let first = partials.next()?;
        Some(partials.fold(first, |acc, p| reduce(acc, p)))
    }

    /// Apply `f` to disjoint mutable chunks of `items` in parallel.
    /// Chunk boundaries are fixed exactly as in [`Self::par_chunks_map`],
    /// and each chunk is visited once, so elementwise updates (AXPY,
    /// scaling) are deterministic at any thread count.
    pub fn par_for_each_mut<T, F>(&self, items: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        if recipe_obs::enabled() {
            let m = pool_metrics();
            m.par_calls.inc();
            m.chunks.add(n_chunks as u64);
        }
        if self.threads <= 1 || n_chunks <= 1 {
            for (c, chunk) in items.chunks_mut(chunk_size).enumerate() {
                f(c, chunk);
            }
            return;
        }
        let workers = self.threads.min(n_chunks);
        let cursor = AtomicUsize::new(0);
        // Hand out disjoint `&mut` chunks through a mutex of takeable
        // slots: no unsafe, and the per-chunk lock is held only for the
        // `take`, not for the work.
        let slots: Mutex<Vec<Option<(usize, &mut [T])>>> =
            Mutex::new(items.chunks_mut(chunk_size).enumerate().map(Some).collect());
        let provenance = recipe_obs::provenance::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _provenance = recipe_obs::provenance::install(provenance.clone());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        let taken = slots.lock().expect("runtime slot lock")[i].take();
                        if let Some((c, chunk)) = taken {
                            f(c, chunk);
                        }
                    }
                });
            }
        });
    }

    /// Deterministic parallel dot product: per-chunk partial dots folded
    /// in chunk order. Falls back to a straight serial loop below
    /// `parallel_floor` elements (the threshold depends only on the data
    /// length, so results stay thread-count-independent).
    pub fn par_dot(&self, a: &[f64], b: &[f64], chunk_size: usize, parallel_floor: usize) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        if a.len() < parallel_floor {
            return a.iter().zip(b).map(|(x, y)| x * y).sum();
        }
        let chunk_size = chunk_size.max(1);
        self.par_chunks_map(a, chunk_size, |c, chunk| {
            let start = c * chunk_size;
            chunk
                .iter()
                .zip(&b[start..start + chunk.len()])
                .map(|(x, y)| x * y)
                .sum::<f64>()
        })
        .into_iter()
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 3, 4, 8] {
            let rt = Runtime::new(t);
            assert_eq!(rt.par_map(&items, |_, &x| x * 3 + 1), expect, "threads {t}");
        }
    }

    #[test]
    fn par_map_passes_global_indices() {
        let items = vec![0u8; 517];
        let rt = Runtime::new(4);
        let idx = rt.par_map(&items, |i, _| i);
        assert_eq!(idx, (0..517).collect::<Vec<usize>>());
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // Values chosen so summation order matters in f64.
        let items: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 1.37).sin() * 10f64.powi((i % 31) as i32 - 15))
            .collect();
        let reference = Runtime::serial()
            .par_map_reduce(&items, 64, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
            .unwrap();
        for t in [2, 3, 4, 7, 8] {
            let rt = Runtime::new(t);
            let got = rt
                .par_map_reduce(&items, 64, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads {t}");
        }
    }

    #[test]
    fn par_chunks_map_boundaries_are_fixed() {
        let items: Vec<u32> = (0..103).collect();
        for t in [1, 2, 5, 8] {
            let rt = Runtime::new(t);
            let spans = rt.par_chunks_map(&items, 10, |c, chunk| (c, chunk.to_vec()));
            assert_eq!(spans.len(), 11);
            for (c, (idx, chunk)) in spans.iter().enumerate() {
                assert_eq!(c, *idx);
                let start = c * 10;
                let end = (start + 10).min(103);
                assert_eq!(chunk, &items[start..end], "threads {t} chunk {c}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let rt = Runtime::new(8);
        let empty: Vec<i32> = Vec::new();
        assert!(rt.par_map(&empty, |_, &x| x).is_empty());
        assert!(rt.par_chunks_map(&empty, 4, |_, c| c.len()).is_empty());
        assert_eq!(
            rt.par_map_reduce(&empty, 4, |_, c| c.len(), |a, b| a + b),
            None
        );
        assert_eq!(rt.par_map(&[7], |_, &x| x), vec![7]);
        // Sizes straddling the worker count.
        for n in [7usize, 8, 9] {
            let v: Vec<usize> = (0..n).collect();
            assert_eq!(rt.par_map(&v, |_, &x| x + 1).len(), n);
        }
    }

    #[test]
    fn chunk_size_zero_is_clamped() {
        let rt = Runtime::new(2);
        let out = rt.par_chunks_map(&[1, 2, 3], 0, |_, c| c.len());
        assert_eq!(out, vec![1, 1, 1]);
    }

    #[test]
    fn par_for_each_mut_touches_every_element_once() {
        for t in [1, 2, 4, 8] {
            let rt = Runtime::new(t);
            let mut v: Vec<u64> = (0..997).collect();
            rt.par_for_each_mut(&mut v, 16, |c, chunk| {
                for x in chunk.iter_mut() {
                    *x = *x * 2 + c as u64 % 1;
                }
            });
            let expect: Vec<u64> = (0..997).map(|x| x * 2).collect();
            assert_eq!(v, expect, "threads {t}");
        }
    }

    #[test]
    fn par_dot_matches_chunked_serial_sum() {
        let a: Vec<f64> = (0..5000).map(|i| (i as f64).cos()).collect();
        let b: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
        let reference = Runtime::serial().par_dot(&a, &b, 256, 0);
        for t in [2, 4, 8] {
            let got = Runtime::new(t).par_dot(&a, &b, 256, 0);
            assert_eq!(got.to_bits(), reference.to_bits(), "threads {t}");
        }
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(Runtime::serial().threads(), 1);
        assert_eq!(Runtime::new(5).threads(), 5);
        assert!(Runtime::new(0).threads() >= 1);
        assert!(default_threads() >= 1);
    }
}
