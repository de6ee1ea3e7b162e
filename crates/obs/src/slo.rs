//! SLO burn rates, derived by the reader of `/metrics` from successive
//! scrapes of cumulative counts.
//!
//! The server records each request once, into cumulative counters: for
//! every objective in [`OBJECTIVES`] a `slo.<name>.count` (all events)
//! and a `slo.<name>.good`, beside the cumulative [`LATENCY_HISTOGRAM`].
//! The reader keeps what it scraped ([`Scrape`]) and calls [`derive()`]:
//! the difference of two cumulative scrapes is the window between them.
//! This is how multi-window burn-rate alerts are computed over a scraped
//! metrics store (The Site Reliability Workbook, "Alerting on SLOs").
//!
//! A burn rate is the bad fraction over a window divided by the error
//! budget `1 - target`. A (long, short) [`BurnWindow`] pair *fires* when
//! both of its burn rates reach its factor: the long window filters
//! noise, the short one proves the burn is still happening. The worst
//! firing pair's level is the objective's level, and the worst
//! objective's level is the view's `ok | warn | critical`.
//!
//! Production pairs follow the standard shape: fast 5m/1h at a high
//! factor for paging, slow 6h/3d at factor 1 for budget exhaustion.

use crate::window::quantile_from_counts;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// A request slower than this, seconds, counts against the latency
/// objective.
pub const LATENCY_THRESHOLD_S: f64 = 0.25;

/// The cumulative request-latency histogram the reader takes interval
/// quantiles from.
pub const LATENCY_HISTOGRAM: &str = "serve.request.latency_s";

/// The gauge a scrape reads its timestamp from: seconds since the
/// server started.
pub const UPTIME_GAUGE: &str = "serve.uptime_s";

/// The serving objectives: a response written with a status below 500
/// (a shed counts as bad), and a response within
/// [`LATENCY_THRESHOLD_S`].
pub const OBJECTIVES: [Objective; 2] = [
    Objective {
        name: "availability",
        target: 0.999,
    },
    Objective {
        name: "latency",
        target: 0.99,
    },
];

/// Health of one objective (or of the whole view): ordered so `max`
/// picks the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloLevel {
    Ok,
    Warn,
    Critical,
}

impl SloLevel {
    pub fn as_str(&self) -> &'static str {
        match self {
            SloLevel::Ok => "ok",
            SloLevel::Warn => "warn",
            SloLevel::Critical => "critical",
        }
    }
}

/// One objective: a name and the required good fraction.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// e.g. `availability`, `latency`.
    pub name: &'static str,
    /// Required fraction of good events, e.g. `0.999`.
    pub target: f64,
}

impl Objective {
    /// The counter of all events. It sorts before [`Self::good_counter`],
    /// so a registry snapshot reads it first: a request that finishes
    /// mid-scrape can make the window look better by one, never worse.
    pub fn count_counter(&self) -> String {
        format!("slo.{}.count", self.name)
    }

    /// The counter of good events.
    pub fn good_counter(&self) -> String {
        format!("slo.{}.good", self.name)
    }
}

/// One (long, short) burn-rate window pair.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindow {
    /// Display name (`fast`, `slow`).
    pub name: &'static str,
    /// Long window, seconds (noise filter).
    pub long_s: f64,
    /// Short window, seconds (is the burn still happening?).
    pub short_s: f64,
    /// Burn-rate threshold both windows must reach.
    pub factor: f64,
    /// Level reported while firing.
    pub level: SloLevel,
}

impl BurnWindow {
    /// The standard pairs: fast 5m/1h paging at 14.4× burn, slow 6h/3d
    /// budget-exhaustion at 1× burn.
    pub fn production() -> Vec<BurnWindow> {
        vec![
            BurnWindow {
                name: "fast",
                long_s: 3_600.0,
                short_s: 300.0,
                factor: 14.4,
                level: SloLevel::Critical,
            },
            BurnWindow {
                name: "slow",
                long_s: 259_200.0,
                short_s: 21_600.0,
                factor: 1.0,
                level: SloLevel::Warn,
            },
        ]
    }

    /// The production shape shrunk by `divisor`, for tests whose
    /// scrapes are seconds apart.
    pub fn scaled(divisor: f64) -> Vec<BurnWindow> {
        let d = divisor.max(1.0);
        Self::production()
            .into_iter()
            .map(|mut w| {
                w.long_s /= d;
                w.short_s /= d;
                w
            })
            .collect()
    }
}

/// The cumulative counts of one `/metrics` scrape, stamped with the
/// server's uptime. Anything missing from the document reads as zero.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Server uptime when the scrape was taken, seconds.
    pub t_s: f64,
    /// The serving registry's counters (`serve.*`, `slo.*`), which live
    /// as long as the server; a model hot-swap restarts the others.
    pub counters: BTreeMap<String, u64>,
    /// Latency bucket upper bounds, seconds (overflow excluded).
    pub bounds: Vec<f64>,
    /// Cumulative latency bucket counts, overflow last.
    pub buckets: Vec<u64>,
}

impl Scrape {
    /// Read a scrape out of the `telemetry` block of a `/metrics`
    /// document.
    pub fn from_telemetry(telemetry: &Value) -> Self {
        let latency = &telemetry["histograms"][LATENCY_HISTOGRAM];
        let list = |name: &str| latency[name].as_array().into_iter().flatten();
        Scrape {
            t_s: telemetry["gauges"][UPTIME_GAUGE].as_f64().unwrap_or(0.0),
            counters: (telemetry["counters"].as_object().into_iter().flatten())
                .filter(|(k, _)| k.starts_with("serve.") || k.starts_with("slo."))
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
            bounds: list("bounds").filter_map(Value::as_f64).collect(),
            buckets: list("buckets").filter_map(Value::as_u64).collect(),
        }
    }

    /// The counter `name`, zero when absent.
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when this scrape cannot follow `earlier` from the same
    /// server run: its uptime or a cumulative count fell.
    pub fn restarted_since(&self, earlier: &Scrape) -> bool {
        self.t_s < earlier.t_s
            || (earlier.counters.iter()).any(|(k, &then)| self.count(k) < then)
            || self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .any(|(n, t)| n < t)
    }
}

/// Traffic over the last interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Interval {
    /// Seconds between the two scrapes.
    pub seconds: f64,
    pub requests: u64,
    pub errors: u64,
    pub shed: u64,
    /// Requests answered per second.
    pub per_s: f64,
    /// Median request latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_s: f64,
}

/// One evaluated burn-rate pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PairReport {
    pub name: String,
    pub long_s: f64,
    pub short_s: f64,
    pub factor: f64,
    pub long_burn: f64,
    pub short_burn: f64,
    pub firing: bool,
}

/// One evaluated objective.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObjectiveReport {
    pub name: String,
    pub target: f64,
    /// `ok | warn | critical`.
    pub level: String,
    pub pairs: Vec<PairReport>,
}

/// What the reader derives from its scrapes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct View {
    /// Between the two newest scrapes, or since the server started when
    /// there is one.
    pub interval: Interval,
    /// Worst objective level: `ok | warn | critical`.
    pub level: String,
    pub objectives: Vec<ObjectiveReport>,
}

/// Derive the view from `history`: scrapes of one server run, oldest
/// first. A window of `w` seconds reaches back to the newest earlier
/// scrape at least `w` old. A window longer than the server's uptime
/// starts at zero counts, which is exact; one longer than the history
/// but not the uptime is clipped to the oldest scrape. A single scrape
/// reads as the window since the server started.
pub fn derive(history: &[Scrape], pairs: &[BurnWindow]) -> View {
    let start = Scrape::default();
    let now = history.last().unwrap_or(&start);
    let earlier = &history[..history.len().saturating_sub(1)];
    let since = |w: f64| -> &Scrape {
        if now.t_s <= w {
            return &start;
        }
        earlier
            .iter()
            .rev()
            .find(|s| s.t_s <= now.t_s - w)
            .or(earlier.first())
            .unwrap_or(&start)
    };

    let prev = earlier.last().unwrap_or(&start);
    let delta = |name: &str| now.count(name).saturating_sub(prev.count(name));
    let buckets: Vec<u64> = (now.buckets.iter().enumerate())
        .map(|(i, &n)| n.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    let requests: u64 = buckets.iter().sum();
    let seconds = (now.t_s - prev.t_s).max(0.0);
    let interval = Interval {
        seconds,
        requests,
        errors: (now.counters.keys())
            .filter(|k| k.starts_with("serve.errors."))
            .map(|k| delta(k))
            .sum(),
        shed: delta("serve.shed"),
        per_s: if seconds > 0.0 {
            requests as f64 / seconds
        } else {
            0.0
        },
        p50_s: quantile_from_counts(&now.bounds, &buckets, 0.50),
        p99_s: quantile_from_counts(&now.bounds, &buckets, 0.99),
    };

    let mut overall = SloLevel::Ok;
    let objectives = OBJECTIVES
        .iter()
        .map(|o| {
            let (count, good) = (o.count_counter(), o.good_counter());
            let burn = |w: f64| {
                let then = since(w);
                let n = now.count(&count).saturating_sub(then.count(&count));
                let bad = n.saturating_sub(now.count(&good).saturating_sub(then.count(&good)));
                if n == 0 {
                    0.0
                } else {
                    bad as f64 / n as f64 / (1.0 - o.target)
                }
            };
            let mut level = SloLevel::Ok;
            let pairs = pairs
                .iter()
                .map(|p| {
                    let (long_burn, short_burn) = (burn(p.long_s), burn(p.short_s));
                    let firing = long_burn >= p.factor && short_burn >= p.factor;
                    if firing {
                        level = level.max(p.level);
                    }
                    PairReport {
                        name: p.name.to_string(),
                        long_s: p.long_s,
                        short_s: p.short_s,
                        factor: p.factor,
                        long_burn,
                        short_burn,
                        firing,
                    }
                })
                .collect();
            overall = overall.max(level);
            ObjectiveReport {
                name: o.name.to_string(),
                target: o.target,
                level: level.as_str().to_string(),
                pairs,
            }
        })
        .collect();
    View {
        interval,
        level: overall.as_str().to_string(),
        objectives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scrape at `t_s` after `good` good and `bad` bad requests, all
    /// of them 1 ms fast.
    fn scrape(t_s: f64, good: u64, bad: u64) -> Scrape {
        let n = good + bad;
        let counters = [
            ("serve.errors.extract", bad),
            ("slo.availability.count", n),
            ("slo.availability.good", good),
            ("slo.latency.count", n),
            ("slo.latency.good", n),
        ];
        Scrape {
            t_s,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            bounds: vec![0.001, 0.01, 0.1],
            buckets: vec![n, 0, 0, 0],
        }
    }

    // 1000× shrink: fast pair 3.6 s/0.3 s, slow pair 259.2 s/21.6 s.
    fn pairs() -> Vec<BurnWindow> {
        BurnWindow::scaled(1000.0)
    }

    #[test]
    fn quiet_traffic_reads_ok() {
        let view = derive(&[scrape(1.0, 100, 0), scrape(2.0, 300, 0)], &pairs());
        assert_eq!(view.level, "ok");
        assert_eq!(view.objectives.len(), 2);
        assert!(view.objectives[0].pairs.iter().all(|p| !p.firing));
        assert_eq!(view.interval.requests, 200);
        assert_eq!(view.interval.per_s, 200.0);
        assert!(view.interval.p99_s <= 0.001, "{view:?}");
    }

    #[test]
    fn sustained_burn_fires_fast_pair_critical() {
        // Half the requests fail against a 0.1 % budget: burn 500× over
        // both fast windows.
        let view = derive(&[scrape(10.0, 200, 200)], &pairs());
        assert_eq!(view.level, "critical");
        let avail = &view.objectives[0];
        assert!(avail.pairs.iter().any(|p| p.name == "fast" && p.firing));
        assert_eq!(view.objectives[1].level, "ok");
    }

    #[test]
    fn burn_clears_when_short_window_recovers() {
        // Bad traffic early, then a second of good traffic: the 0.3 s
        // short window reaches back only to the good scrapes, the 3.6 s
        // long window to the start.
        let history = [
            scrape(1.0, 0, 100),
            scrape(1.5, 100, 100),
            scrape(2.0, 200, 100),
        ];
        let view = derive(&history, &pairs());
        let fast = &view.objectives[0].pairs[0];
        assert!(fast.long_burn > fast.factor, "long window still burnt");
        assert_eq!(fast.short_burn, 0.0);
        assert!(!fast.firing, "short window recovered: {fast:?}");
    }

    #[test]
    fn windows_longer_than_the_history_clip_to_it() {
        // Uptime 1000 s, history 2 s: the 21.6 s and 259.2 s slow windows
        // are clipped to the oldest scrape, not to the server start.
        let history = [scrape(998.0, 1000, 1000), scrape(1000.0, 1100, 1000)];
        let view = derive(&history, &pairs());
        let slow = &view.objectives[0].pairs[1];
        assert_eq!((slow.long_burn, slow.short_burn), (0.0, 0.0), "{slow:?}");
        // One scrape is the since-start view.
        let view = derive(&history[1..], &pairs());
        assert_eq!(view.interval.requests, 2100);
        assert_eq!(view.interval.per_s, 2.1);
        assert!(view.objectives[0].pairs[1].long_burn > 1.0);
    }

    #[test]
    fn interval_quantiles_come_from_bucket_deltas() {
        let mut slow = scrape(2.0, 100, 0);
        slow.buckets = vec![90, 0, 10, 0];
        let view = derive(&[scrape(1.0, 90, 0), slow], &pairs());
        // The interval holds only the ten slow requests.
        assert_eq!(view.interval.requests, 10);
        assert!(view.interval.p50_s > 0.01 && view.interval.p50_s <= 0.1);
    }

    #[test]
    fn falling_counts_mark_a_restart() {
        let before = scrape(50.0, 100, 0);
        assert!(!scrape(60.0, 200, 0).restarted_since(&before));
        assert!(scrape(1.0, 5, 0).restarted_since(&before));
        let mut shed_before = before.clone();
        shed_before.counters.insert("serve.shed".to_string(), 3);
        assert!(scrape(60.0, 200, 0).restarted_since(&shed_before));
    }

    #[test]
    fn scrape_reads_a_telemetry_block() {
        let t = serde_json::json!({
            "counters": {
                "cache.ingredient.hits": 9,
                "serve.errors.extract": 2,
                "serve.errors.other": 1,
                "serve.shed": 4,
                "slo.availability.count": 10,
                "slo.availability.good": 6,
            },
            "gauges": { "serve.uptime_s": 12.5 },
            "histograms": {
                "serve.request.latency_s": {
                    "count": 6, "bounds": [0.1], "buckets": [5, 1],
                },
            },
        });
        let s = Scrape::from_telemetry(&t);
        assert_eq!(s.t_s, 12.5);
        assert_eq!((s.count("serve.shed"), s.count("slo.latency.good")), (4, 0));
        // A hot-swap restarts the model's own counters, not the server.
        assert_eq!(s.count("cache.ingredient.hits"), 0);
        assert_eq!(s.bounds, vec![0.1]);
        assert_eq!(s.buckets, vec![5, 1]);
        let view = derive(&[s], &pairs());
        assert_eq!((view.interval.requests, view.interval.errors), (6, 3));
        assert_eq!(view.interval.shed, 4);
        // Four of ten available against a 0.1 % budget.
        assert_eq!(view.level, "critical");
    }
}
