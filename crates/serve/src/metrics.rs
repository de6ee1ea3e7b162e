//! Serving metrics: a dedicated [`Registry`] merged into the
//! `/metrics` telemetry document alongside the global and
//! per-inference registries, plus a [`WindowSet`] of sliding-window
//! mirrors for the hot-path signals (rolling rates and windowed tail
//! percentiles exported as the telemetry `windows` block).
//!
//! Handles are resolved once at startup (registry lookups take a lock;
//! the hot path must not), and the in-flight gauge is backed by an
//! `AtomicU64` because [`Gauge`] is set-only. Every windowed metric
//! rotates through the one injected [`Clock`], so tests drive rotation
//! deterministically with a virtual clock.

use recipe_obs::metrics::{Counter, Gauge, Histogram, Registry};
use recipe_obs::window::{Clock, WindowSet, WindowSpec, WindowedCounter, WindowedHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Request/error counters for one endpoint.
pub struct EndpointCounters {
    pub requests: Arc<Counter>,
    pub errors: Arc<Counter>,
}

impl EndpointCounters {
    fn new(reg: &Registry, endpoint: &str) -> Self {
        EndpointCounters {
            requests: reg.counter(&format!("serve.requests.{endpoint}")),
            errors: reg.counter(&format!("serve.errors.{endpoint}")),
        }
    }
}

/// All serving metrics, handle-resolved at construction.
pub struct ServeMetrics {
    registry: Registry,
    windows: WindowSet,
    /// Requests waiting for an admission permit.
    pub queue_depth: Arc<Gauge>,
    /// Requests holding a permit and not yet responded to.
    pub in_flight: Arc<Gauge>,
    in_flight_now: AtomicU64,
    /// Requests shed with `503 + Retry-After` (wait list full), plus
    /// connections shed at the open-connection bound.
    pub shed: Arc<Counter>,
    /// Successful model hot-swaps.
    pub hot_swaps: Arc<Counter>,
    /// Connections accepted by the acceptor.
    pub accepted: Arc<Counter>,
    /// Requests after the first on a keep-alive connection (the
    /// accept was amortized across them).
    pub keepalive_reuse: Arc<Counter>,
    /// Requests handled per pass: always 1, since requests are not
    /// batched. Kept for readers that report its mean.
    pub batch_size: Arc<Histogram>,
    /// Queue-wait + decode + write latency per request, seconds.
    pub latency: Arc<Histogram>,
    /// Windowed mirror of total requests served.
    pub w_requests: Arc<WindowedCounter>,
    /// Windowed mirror of responses with status >= 400.
    pub w_errors: Arc<WindowedCounter>,
    /// Windowed mirror of shed connections.
    pub w_shed: Arc<WindowedCounter>,
    /// Windowed request latency (seconds).
    pub w_latency: Arc<WindowedHistogram>,
    extract: EndpointCounters,
    explain: EndpointCounters,
    healthz: EndpointCounters,
    metrics: EndpointCounters,
    admin: EndpointCounters,
    other: EndpointCounters,
}

impl ServeMetrics {
    /// Build with the clock every windowed metric rotates through
    /// (monotonic in the server, virtual in tests).
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let registry = Registry::new();
        let windows = WindowSet::new(clock, WindowSpec::serving());
        ServeMetrics {
            queue_depth: registry.gauge("serve.queue.depth"),
            in_flight: registry.gauge("serve.in_flight"),
            in_flight_now: AtomicU64::new(0),
            shed: registry.counter("serve.shed"),
            hot_swaps: registry.counter("serve.hot_swaps"),
            accepted: registry.counter("serve.accepted"),
            keepalive_reuse: registry.counter("serve.keepalive.reuse"),
            batch_size: registry.count_histogram("serve.batch.size"),
            latency: registry.latency_histogram("serve.request.latency_s"),
            w_requests: windows.counter("serve.requests"),
            w_errors: windows.counter("serve.errors"),
            w_shed: windows.counter("serve.shed"),
            w_latency: windows.latency_histogram("serve.request.latency_s"),
            extract: EndpointCounters::new(&registry, "extract"),
            explain: EndpointCounters::new(&registry, "explain"),
            healthz: EndpointCounters::new(&registry, "healthz"),
            metrics: EndpointCounters::new(&registry, "metrics"),
            admin: EndpointCounters::new(&registry, "admin"),
            other: EndpointCounters::new(&registry, "other"),
            windows,
            registry,
        }
    }

    /// The registry to merge into `/metrics` telemetry documents.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sliding-window metric set (the telemetry `windows` block).
    pub fn windows(&self) -> &WindowSet {
        &self.windows
    }

    /// Counters for a request path (the part before any query string).
    pub fn endpoint(&self, path: &str) -> &EndpointCounters {
        match path {
            "/extract" => &self.extract,
            "/explain" => &self.explain,
            "/healthz" => &self.healthz,
            "/metrics" => &self.metrics,
            "/admin/reload" | "/admin/shutdown" | "/admin/slo" | "/admin/slow"
            | "/admin/profile" => &self.admin,
            _ => &self.other,
        }
    }

    /// Mark one request admitted to handling.
    pub fn begin_request(&self) {
        let now = self.in_flight_now.fetch_add(1, Ordering::SeqCst) + 1;
        self.in_flight.set(now as f64);
    }

    /// Mark one request responded to (however it ended).
    pub fn end_request(&self) {
        let now = self
            .in_flight_now
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        self.in_flight.set(now as f64);
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new(Arc::new(recipe_obs::window::MonotonicClock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_obs::window::VirtualClock;

    #[test]
    fn endpoint_routing_and_inflight_tracking() {
        let m = ServeMetrics::default();
        m.endpoint("/extract").requests.inc();
        m.endpoint("/nope").errors.inc();
        m.begin_request();
        m.begin_request();
        assert_eq!(m.in_flight.get(), 2.0);
        m.end_request();
        assert_eq!(m.in_flight.get(), 1.0);
        assert_eq!(m.endpoint("/extract").requests.get(), 1);
        assert_eq!(m.endpoint("/other-too").errors.get(), 1);
        // The new admin endpoints share the admin counters.
        m.endpoint("/admin/slo").requests.inc();
        m.endpoint("/admin/slow").requests.inc();
        m.endpoint("/admin/profile").requests.inc();
        assert_eq!(m.endpoint("/admin/reload").requests.get(), 3);
    }

    #[test]
    fn registry_snapshot_carries_serve_names() {
        let m = ServeMetrics::default();
        m.shed.inc();
        m.keepalive_reuse.inc();
        m.batch_size.record(3.0);
        let snap = m.registry().snapshot();
        assert!(snap.counters.iter().any(|(n, _)| n == "serve.shed"));
        assert!(snap
            .counters
            .iter()
            .any(|(n, _)| n == "serve.keepalive.reuse"));
        assert!(snap.histograms.iter().any(|(n, _)| n == "serve.batch.size"));
    }

    #[test]
    fn windowed_mirrors_rotate_through_injected_clock() {
        let clock = Arc::new(VirtualClock::new());
        let m = ServeMetrics::new(clock.clone());
        m.w_requests.inc();
        m.w_latency.record(0.002);
        let snap = m.windows().snapshot();
        assert_eq!(snap.window_s, 60.0);
        assert_eq!(snap.rates["serve.requests"].count, 1);
        assert_eq!(snap.histograms["serve.request.latency_s"].count, 1);
        // Rotate the whole window out: everything expires.
        clock.advance(61 * recipe_obs::window::TICKS_PER_SEC);
        let snap = m.windows().snapshot();
        assert_eq!(snap.rates["serve.requests"].count, 0);
        assert_eq!(snap.histograms["serve.request.latency_s"].count, 0);
    }
}
