//! `recipe-obs`: zero-dependency observability for the recipe pipeline.
//!
//! The pieces, all std-only:
//!
//! - **Metrics registry** ([`metrics`]): named atomic [`Counter`]s
//!   (sharded across cache lines so hot-path increments from the worker
//!   pool stay uncontended), [`Gauge`]s, fixed-bucket [`Histogram`]s and
//!   bounded [`Series`]. A process-global registry ([`metrics::global`])
//!   serves the hot paths; components that need isolation (e.g. the
//!   per-pipeline phrase caches) own private [`Registry`] instances that
//!   are merged into exported telemetry.
//!
//! - **Hierarchical spans** ([`span`]): `let _g = span!("ner.decode");`
//!   guards that *aggregate* — count plus total ticks per
//!   (path-from-root) — instead of logging per event. The stage tree
//!   and the cost-attribution [`Profile`] are two views of that one
//!   aggregate. O(1) per span, no allocation on the hot path after the
//!   first occurrence of a path on a thread, and a single relaxed atomic
//!   load when tracing is disabled.
//!
//! - **Event tracing** ([`event`]): per-thread ring buffers of
//!   begin/end/instant events, an optional sink on the same `span!()`
//!   guards, exported as Chrome-trace JSON (`--trace-out`, sampled via
//!   `--trace-sample`).
//!
//! - **Telemetry export** ([`report`]): a serializable [`Telemetry`]
//!   snapshot (stage tree, counters, gauges, histogram summaries with
//!   their cumulative buckets, series, throughput, profile) plus a human
//!   renderer and a schema validator for the `--metrics-out` and
//!   `/metrics` JSON documents.
//!
//! - **Cost attribution** ([`profile`]): the [`Profile`] model filled
//!   by the span aggregate or by an instanced [`Profiler`] (the
//!   server's request profile in `/metrics`), a collapsed-stack
//!   (flamegraph-folded) exporter, and the profile differ that lets
//!   `bench-diff` name regressed stages.
//!
//! - **Clocks, drift windows & SLOs** ([`window`], [`slo`]): an
//!   injectable [`window::Clock`] (monotonic in production, virtual in
//!   tests), the ring-of-bucket [`WindowedCounter`] behind drift
//!   scoring, and the multi-window multi-burn-rate evaluation that a
//!   reader of `/metrics` runs over successive cumulative scrapes
//!   (`recipe-mine monitor`).
//!
//! - **Prediction provenance** ([`provenance`]): canonical,
//!   deterministic records of per-token Viterbi margins, cache
//!   hit/miss origins, and dictionary accept/reject decisions, scoped to
//!   the call that asked for them (`--explain`, `/explain`, drift
//!   samples) and the runtime workers it dispatches to.
//!
//! - **Bench history** ([`history`]): schema_version'd JSON Lines
//!   bench-run records plus the `bench-diff` regression gate.
//!
//! Observability must never perturb artifacts: nothing here influences
//! any computed value, and aggregation (not logging) keeps the memory
//! and time cost independent of corpus size. Tracing is off by default;
//! see [`set_enabled`].

pub mod event;
pub mod fingerprint;
pub mod history;
pub mod metrics;
pub mod profile;
pub mod provenance;
pub mod report;
pub mod slo;
pub mod span;
pub mod window;

pub use event::{
    export_chrome_trace, validate_chrome_trace, EventKind, TraceConfig, TraceEvent, TraceSession,
};
pub use fingerprint::{fingerprint_parts, fnv1a64};
pub use history::{
    DiffFinding, DiffLevel, DiffThresholds, HistoryEntry, HistoryRun, DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA_VERSION,
};
pub use profile::{
    diff_profiles, fold, render_diff, validate_profile, Profile, ProfileNode, Profiler, StageDelta,
    PROFILE_SCHEMA_VERSION,
};
pub use provenance::validate_provenance;

pub use metrics::{
    global, percentile_sorted, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, SampleSummary, Series, DEFAULT_COUNT_BOUNDS, DEFAULT_LATENCY_BOUNDS,
};
pub use report::{render_human, validate_document, validate_telemetry, Telemetry};
pub use slo::{BurnWindow, Objective, Scrape, SloLevel};
pub use span::{enter, stage_tree, SpanGuard, StageNode};
pub use window::{
    psi, Clock, MonotonicClock, VirtualClock, WindowSpec, WindowedCounter, TICKS_PER_SEC,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide tracing switch. Off by default so instrumented hot paths
/// cost one relaxed load each.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span/histogram collection on or off for the whole process.
///
/// Counters that back user-visible output (the per-pipeline cache
/// statistics) count regardless of this switch; it gates only the
/// tracing-grade telemetry (spans, latency histograms, per-stage
/// counters).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing-grade telemetry is currently collected.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every global metric and drop all aggregated spans. Registered
/// handles stay valid — callers holding an `Arc<Counter>` keep counting
/// into the same (now zeroed) cells.
pub fn reset() {
    metrics::global().reset();
    span::reset();
}

/// Open an aggregating span: `let _g = span!("pipeline.extract");`.
///
/// The guard records its wall time under the current thread's span path
/// when dropped; when tracing is disabled the expansion is a single
/// relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Serialises tests that touch the process-wide `ENABLED` flag or the
/// global span map, so the crate's parallel test runner can't interleave
/// them.
#[cfg(test)]
pub(crate) fn tests_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
