//! Serving metrics: a dedicated [`Registry`] merged into the
//! `/metrics` telemetry document alongside the global and
//! per-inference registries.
//!
//! Every count here is cumulative since launch. Each request is recorded
//! once, by [`ServeMetrics::record_request`]: its latency into one
//! histogram and its outcome into the `good`/`count` counters of each
//! SLO objective ([`recipe_obs::slo::OBJECTIVES`]). Windows, rates and
//! burn levels are the reader's to derive from successive scrapes
//! ([`recipe_obs::slo::derive`]); the `serve.uptime_s` gauge stamps each
//! scrape on the server's [`Clock`].
//!
//! Handles are resolved once at startup (registry lookups take a lock;
//! the hot path must not), and the in-flight gauge is backed by an
//! `AtomicU64` because [`Gauge`] is set-only.

use recipe_obs::metrics::{Counter, Gauge, Histogram, Registry};
use recipe_obs::slo::{
    Objective, LATENCY_HISTOGRAM, LATENCY_THRESHOLD_S, OBJECTIVES, UPTIME_GAUGE,
};
use recipe_obs::window::{Clock, TICKS_PER_SEC};
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

/// The cumulative counters of one SLO objective.
struct SloCounters {
    count: Arc<Counter>,
    good: Arc<Counter>,
}

impl SloCounters {
    fn new(reg: &Registry, objective: &Objective) -> Self {
        SloCounters {
            count: reg.counter(&objective.count_counter()),
            good: reg.counter(&objective.good_counter()),
        }
    }

    fn record(&self, good: bool) {
        self.count.inc();
        if good {
            self.good.inc();
        }
    }
}

/// All serving metrics, handle-resolved at construction.
pub struct ServeMetrics {
    registry: Registry,
    clock: Arc<dyn Clock>,
    launched_ticks: u64,
    /// Requests waiting for an admission permit.
    pub queue_depth: Arc<Gauge>,
    /// Seconds since launch, set at each scrape.
    uptime: Arc<Gauge>,
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
    /// Per objective, in [`OBJECTIVES`] order: availability, latency.
    availability: SloCounters,
    fast_enough: SloCounters,
    extract: EndpointCounters,
    explain: EndpointCounters,
    healthz: EndpointCounters,
    metrics: EndpointCounters,
    admin: EndpointCounters,
    other: EndpointCounters,
}

impl ServeMetrics {
    /// Build with the clock that stamps the uptime gauge (monotonic in
    /// the server, virtual in tests); uptime counts from now.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let registry = Registry::new();
        let [available, fast] = OBJECTIVES;
        ServeMetrics {
            launched_ticks: clock.now_ticks(),
            clock,
            queue_depth: registry.gauge("serve.queue.depth"),
            uptime: registry.gauge(UPTIME_GAUGE),
            in_flight: registry.gauge("serve.in_flight"),
            in_flight_now: AtomicU64::new(0),
            shed: registry.counter("serve.shed"),
            hot_swaps: registry.counter("serve.hot_swaps"),
            accepted: registry.counter("serve.accepted"),
            keepalive_reuse: registry.counter("serve.keepalive.reuse"),
            batch_size: registry.count_histogram("serve.batch.size"),
            latency: registry.latency_histogram(LATENCY_HISTOGRAM),
            availability: SloCounters::new(&registry, &available),
            fast_enough: SloCounters::new(&registry, &fast),
            extract: EndpointCounters::new(&registry, "extract"),
            explain: EndpointCounters::new(&registry, "explain"),
            healthz: EndpointCounters::new(&registry, "healthz"),
            metrics: EndpointCounters::new(&registry, "metrics"),
            admin: EndpointCounters::new(&registry, "admin"),
            other: EndpointCounters::new(&registry, "other"),
            registry,
        }
    }

    /// The registry to merge into `/metrics` telemetry documents.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Counters for a request path (the part before any query string).
    pub fn endpoint(&self, path: &str) -> &EndpointCounters {
        match path {
            "/extract" => &self.extract,
            "/explain" => &self.explain,
            "/healthz" => &self.healthz,
            "/metrics" => &self.metrics,
            "/admin/reload" | "/admin/shutdown" | "/admin/slow" => &self.admin,
            _ => &self.other,
        }
    }

    /// Record one answered request, once: its latency (seconds from
    /// arrival to the last byte written), and its outcome against each
    /// objective. Available means written with a status below 500.
    pub fn record_request(&self, status: u16, wrote: bool, total_s: f64) {
        self.batch_size.record(1.0);
        self.latency.record(total_s);
        self.availability.record(wrote && status < 500);
        self.fast_enough.record(total_s <= LATENCY_THRESHOLD_S);
    }

    /// Record one request or connection shed with `503`: it counts
    /// against availability.
    pub fn record_shed(&self) {
        self.shed.inc();
        self.availability.record(false);
    }

    /// Set the gauges a scrape reports: the admission queue's depth and
    /// the uptime that stamps the scrape.
    pub fn refresh_gauges(&self, queue_depth: usize) {
        self.queue_depth.set(queue_depth as f64);
        let uptime = self.clock.now_ticks().saturating_sub(self.launched_ticks);
        self.uptime.set(uptime as f64 / TICKS_PER_SEC as f64);
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
        // The admin endpoints share the admin counters.
        m.endpoint("/admin/slow").requests.inc();
        m.endpoint("/admin/shutdown").requests.inc();
        assert_eq!(m.endpoint("/admin/reload").requests.get(), 2);
        // Retired endpoints are unknown paths now.
        m.endpoint("/admin/slo").requests.inc();
        assert_eq!(m.endpoint("/nope").requests.get(), 1);
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
    fn each_request_is_recorded_once_into_cumulative_counts() {
        let clock = Arc::new(VirtualClock::new());
        clock.set(5 * TICKS_PER_SEC);
        let m = ServeMetrics::new(clock.clone());
        m.record_request(200, true, 0.002);
        m.record_request(503, true, 0.002);
        m.record_request(200, true, 0.5);
        m.record_request(200, false, 0.001);
        m.record_shed();
        clock.advance(61 * TICKS_PER_SEC);
        m.refresh_gauges(3);
        let snap = m.registry().snapshot();
        let c = |name: &str| snap.counters[name];
        // Four answered, one shed: two of five available.
        assert_eq!(c("slo.availability.count"), 5);
        assert_eq!(c("slo.availability.good"), 2);
        // Sheds are not timed; one of four answers was too slow.
        assert_eq!(c("slo.latency.count"), 4);
        assert_eq!(c("slo.latency.good"), 3);
        assert_eq!(c("serve.shed"), 1);
        assert_eq!(snap.histograms["serve.request.latency_s"].count, 4);
        // Nothing expires: the counts are cumulative, stamped by uptime.
        assert_eq!(snap.gauges["serve.uptime_s"], 61.0);
        assert_eq!(snap.gauges["serve.queue.depth"], 3.0);
    }
}
