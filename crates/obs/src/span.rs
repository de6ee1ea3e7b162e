//! Aggregating hierarchical spans.
//!
//! A span is a scope guard opened with [`enter`] (or the [`span!`]
//! macro). Guards nest per thread: each records its tick cost under the
//! *path* of currently open span names, and identical paths aggregate
//! into a single `(count, total_ticks)` cell rather than producing one
//! record per event. That keeps memory O(distinct paths) — independent
//! of corpus size — and, because nothing is ever logged in between,
//! tracing cannot reorder or interleave any observable output.
//!
//! The aggregate has two views: the [`stage_tree`] (wall seconds per
//! stage, the telemetry `stages` block) and the cost-attribution
//! [`profile`] (total and self ticks per path, `--profile-out`). Ticks
//! come from one clock, the monotonic clock unless [`set_clock`]
//! installs another; under a frozen [`crate::window::VirtualClock`]
//! the attribution is exact and byte-reproducible. The event tracer
//! ([`crate::event`]) is an optional sink on the same guards.
//!
//! Aggregation is two-level: each thread accumulates into a private map
//! (no synchronisation per span) and flushes it into the process-global
//! map when the thread exits — the runtime's scoped workers exit at the
//! end of every parallel call, so their data is merged by the time the
//! caller regains control. The owning thread flushes explicitly via
//! [`stage_tree`] / [`profile`] / [`flush_local`] when telemetry is
//! gathered.
//!
//! [`span!`]: crate::span!

use crate::profile::Profile;
use crate::window::{Clock, MonotonicClock, TICKS_PER_SEC};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Aggregated cell for one path: closed spans and their summed ticks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Agg {
    pub(crate) count: u64,
    pub(crate) total_ticks: u64,
}

impl Agg {
    pub(crate) fn add(&mut self, count: u64, ticks: u64) {
        self.count += count;
        self.total_ticks += ticks;
    }
}

/// Process-global aggregation, keyed by the full path from the root
/// span. `BTreeMap` so export order is deterministic and parents sort
/// before their children.
static GLOBAL_SPANS: Mutex<BTreeMap<Vec<&'static str>, Agg>> = Mutex::new(BTreeMap::new());

/// The clock [`set_clock`] installed, with its label; `None` means the
/// monotonic clock.
static CLOCK: Mutex<Option<(Arc<dyn Clock>, String)>> = Mutex::new(None);

/// Whether [`CLOCK`] holds a clock, so spans on the monotonic clock
/// never take its lock. `Relaxed` suffices: the flag publishes nothing,
/// it only says whether to take the lock, which orders the clock.
static CLOCK_SET: AtomicBool = AtomicBool::new(false);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn now_ticks() -> u64 {
    if CLOCK_SET.load(Ordering::Relaxed) {
        if let Some((clock, _)) = lock(&CLOCK).as_ref() {
            return clock.now_ticks();
        }
    }
    MonotonicClock.now_ticks()
}

/// Drive span ticks from `clock` (labelled for the exported
/// [`Profile::clock`]), or from the monotonic clock again with `None`.
/// Tests freeze a [`crate::window::VirtualClock`] here.
pub fn set_clock(clock: Option<(Arc<dyn Clock>, &str)>) {
    let mut slot = lock(&CLOCK);
    *slot = clock.map(|(clock, label)| (clock, label.to_string()));
    CLOCK_SET.store(slot.is_some(), Ordering::Relaxed);
}

/// Per-thread aggregation, flushed to [`GLOBAL_SPANS`] on thread exit.
#[derive(Default)]
struct LocalAggs {
    map: RefCell<HashMap<Vec<&'static str>, Agg>>,
}

impl LocalAggs {
    fn record(&self, path: &[&'static str], ticks: u64) {
        let mut map = self.map.borrow_mut();
        if let Some(agg) = map.get_mut(path) {
            agg.add(1, ticks);
        } else {
            map.insert(
                path.to_vec(),
                Agg {
                    count: 1,
                    total_ticks: ticks,
                },
            );
        }
    }

    fn flush(&self) {
        let mut map = self.map.borrow_mut();
        if map.is_empty() {
            return;
        }
        let mut global = lock(&GLOBAL_SPANS);
        for (path, agg) in map.drain() {
            global
                .entry(path)
                .or_default()
                .add(agg.count, agg.total_ticks);
        }
    }
}

impl Drop for LocalAggs {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// Names of the spans currently open on this thread, root first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// This thread's aggregation map; flushed to the global map on drop.
    static LOCAL: LocalAggs = LocalAggs::default();
}

/// Guard returned by [`enter`]; records on drop. Inert (holds no start
/// tick) when tracing was disabled at entry. `traced` remembers whether
/// the event tracer sampled this span's begin event, so exactly the
/// matching end event is emitted on drop.
#[must_use = "a span only measures the scope the guard lives in"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<u64>,
    traced: bool,
}

/// Open a span named `name` under the thread's currently open spans.
/// When tracing is disabled this is a single relaxed atomic load and the
/// returned guard does nothing. When the event tracer is also running
/// ([`crate::event::start`]) a begin event is recorded, subject to
/// sampling.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            start: None,
            traced: false,
        };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    let traced = crate::event::on_span_enter(name);
    SpanGuard {
        start: Some(now_ticks()),
        traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ticks = now_ticks().saturating_sub(start);
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if self.traced {
                if let Some(name) = stack.last() {
                    crate::event::on_span_exit(name);
                }
            }
            // LOCAL may already be gone during thread teardown; spans
            // closing that late have nowhere to aggregate, so drop them.
            let _ = LOCAL.try_with(|l| l.record(&stack, ticks));
            stack.pop();
        });
    }
}

/// Flush the calling thread's span aggregates into the global map.
/// Worker threads flush automatically on exit; the owning thread calls
/// this (via [`stage_tree`] / [`profile`]) before exporting.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| l.flush());
}

/// Drop every aggregated span, globally and on the calling thread.
pub fn reset() {
    let _ = LOCAL.try_with(|l| l.map.borrow_mut().clear());
    lock(&GLOBAL_SPANS).clear();
}

/// One node of the exported stage tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageNode {
    /// Span name (one path segment).
    pub name: String,
    /// Times a span closed at exactly this path. A node that only ever
    /// appeared as an ancestor of closed spans reports 0 (e.g. the tree
    /// was exported while it was still open).
    pub count: u64,
    /// Total wall time of spans closed at this path, summed across
    /// threads — on worker threads this approximates busy (CPU) time
    /// rather than elapsed time.
    pub wall_s: f64,
    /// Child stages, sorted by name.
    pub children: Vec<StageNode>,
}

/// The aggregate as a stage tree (children sorted by name), with each
/// stage's ticks in seconds. Flushes the calling thread first.
pub fn stage_tree() -> Vec<StageNode> {
    flush_local();
    let global = lock(&GLOBAL_SPANS);
    let mut roots: Vec<StageNode> = Vec::new();
    for (path, agg) in global.iter() {
        let mut level = &mut roots;
        for (depth, name) in path.iter().enumerate() {
            let pos = match level.iter().position(|n| n.name == *name) {
                Some(p) => p,
                None => {
                    level.push(StageNode {
                        name: name.to_string(),
                        count: 0,
                        wall_s: 0.0,
                        children: Vec::new(),
                    });
                    level.len() - 1
                }
            };
            if depth == path.len() - 1 {
                level[pos].count += agg.count;
                level[pos].wall_s += agg.total_ticks as f64 / TICKS_PER_SEC as f64;
            }
            level = &mut level[pos].children;
        }
    }
    roots
}

/// The aggregate as a cost-attribution [`Profile`]: every path with its
/// count, total ticks and self ticks, labelled with the span clock.
/// Flushes the calling thread first.
pub fn profile() -> Profile {
    flush_local();
    let label = match lock(&CLOCK).as_ref() {
        Some((_, label)) => label.clone(),
        None => "monotonic".to_string(),
    };
    let global = lock(&GLOBAL_SPANS);
    Profile::from_cells(
        &label,
        global
            .iter()
            .map(|(path, agg)| (path.iter().map(|s| s.to_string()).collect(), *agg)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::VirtualClock;

    // Span tests toggle the process-wide ENABLED flag and share the
    // process-wide span map and clock, so they serialize on the crate
    // test lock.
    #[test]
    fn spans_aggregate_into_a_stage_tree() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        reset();
        {
            let _root = enter("extract");
            for _ in 0..3 {
                let _tag = enter("tagger.tag");
            }
            {
                let _ner = enter("ner.decode");
                let _inner = enter("viterbi");
            }
        }
        let tree = stage_tree();
        crate::set_enabled(false);
        assert_eq!(tree.len(), 1, "single root, got {tree:?}");
        let root = &tree[0];
        assert_eq!(root.name, "extract");
        assert_eq!(root.count, 1);
        assert!(root.wall_s >= 0.0);
        let names: Vec<&str> = root.children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["ner.decode", "tagger.tag"], "sorted children");
        assert_eq!(root.children[1].count, 3, "three tag spans aggregated");
        assert_eq!(root.children[0].children[0].name, "viterbi");
        assert_eq!(root.children[0].children[0].count, 1);
    }

    #[test]
    fn both_views_read_exact_ticks_under_virtual_clock() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        reset();
        let clock = Arc::new(VirtualClock::new());
        clock.set(1_000);
        set_clock(Some((clock.clone(), "virtual")));
        {
            let _root = enter("extract");
            clock.advance(10);
            {
                let _child = enter("ner.decode");
                clock.advance(30);
            }
            clock.advance(5);
        }
        let profile = profile();
        let tree = stage_tree();
        set_clock(None);
        crate::set_enabled(false);
        reset();
        assert_eq!(profile.clock, "virtual");
        assert_eq!(profile.total_ticks, 45);
        assert_eq!(profile.nodes.len(), 2, "{profile:?}");
        let root = &profile.nodes[0];
        assert_eq!(root.path, vec!["extract"]);
        assert_eq!((root.count, root.total_ticks, root.self_ticks), (1, 45, 15));
        let child = &profile.nodes[1];
        assert_eq!(child.path, vec!["extract", "ner.decode"]);
        assert_eq!(
            (child.count, child.total_ticks, child.self_ticks),
            (1, 30, 30)
        );
        assert_eq!(tree[0].wall_s, 45.0 / TICKS_PER_SEC as f64);
        assert_eq!(tree[0].children[0].wall_s, 30.0 / TICKS_PER_SEC as f64);
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = enter("worker.chunk");
                });
            }
        });
        let tree = stage_tree();
        crate::set_enabled(false);
        let node = tree
            .iter()
            .find(|n| n.name == "worker.chunk")
            .expect("worker spans flushed");
        assert_eq!(node.count, 4);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::tests_lock();
        crate::set_enabled(false);
        reset();
        {
            let _g = enter("ghost");
        }
        assert!(stage_tree().is_empty(), "disabled span left a trace");
        assert!(profile().is_empty(), "disabled span left a cost");
    }
}
