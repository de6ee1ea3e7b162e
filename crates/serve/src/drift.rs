//! Prediction-drift monitoring: the live side of the frozen
//! [`DriftReference`] an `.rma` artifact carries ([`recipe_core::artifact::KIND_DRIFT`]).
//!
//! The server samples every Nth `/extract` request, runs it in a
//! provenance scope of its own (so the sample holds that request's
//! decisions and no other's), and streams the observed Viterbi-margin
//! buckets, predicted labels, and cache hit/miss outcomes into
//! sliding-window counters. A population-stability index
//! ([`recipe_obs::window::psi`]) against the reference distribution
//! per window yields the `drift` block of `/metrics`: in-distribution
//! traffic stays under the warn threshold while shifted phrase
//! populations (unicode fractions, heavy abbreviation) push the score
//! over it within one window.

use recipe_core::artifact::{drift_margin_bucket, DriftReference, DRIFT_MARGIN_BOUNDS};
use recipe_obs::provenance::Record;
use recipe_obs::window::{psi, Clock, WindowSpec, WindowedCounter};
use serde_json::json;
use std::sync::Arc;

/// PSI below this is `stable`; between this and [`PSI_SHIFT`], `warn`.
pub const PSI_WARN: f64 = 0.1;
/// PSI above this is `shifted`.
pub const PSI_SHIFT: f64 = 0.25;
/// Margin observations required inside the window before the score is
/// leveled. A handful of live records against a dense reference is
/// pure Laplace-smoothing noise (a single sampled request can read
/// over 1.5), so below this mass the block reports `warming` instead
/// of a threshold verdict.
pub const MIN_DRIFT_OBSERVATIONS: u64 = 16;

/// Conventional PSI reading as the drift block's `level` string.
pub fn drift_level(score: f64) -> &'static str {
    if score > PSI_SHIFT {
        "shifted"
    } else if score > PSI_WARN {
        "warn"
    } else {
        "stable"
    }
}

/// Live windowed distributions mirroring one [`DriftReference`].
pub struct DriftMonitor {
    reference: DriftReference,
    window_s: f64,
    /// Live margin-bucket counts, one counter per reference bucket.
    margin: Vec<WindowedCounter>,
    /// Live counts for each label the reference saw, plus one
    /// overflow counter for labels it never produced (pure drift
    /// signal: the reference side contributes zero mass there).
    labels: Vec<(String, WindowedCounter)>,
    label_other: WindowedCounter,
    cache_hit: WindowedCounter,
    cache_miss: WindowedCounter,
    /// Sampled requests observed inside the window.
    samples: WindowedCounter,
}

impl DriftMonitor {
    /// Build the live side for `reference`, rotating through `clock`.
    pub fn new(clock: Arc<dyn Clock>, reference: DriftReference) -> Self {
        let spec = WindowSpec::serving();
        let counter = |clock: &Arc<dyn Clock>| WindowedCounter::new(Arc::clone(clock), spec);
        DriftMonitor {
            window_s: spec.window_s(),
            margin: (0..DRIFT_MARGIN_BOUNDS.len() + 1)
                .map(|_| counter(&clock))
                .collect(),
            labels: reference
                .label_counts
                .keys()
                .map(|k| (k.clone(), counter(&clock)))
                .collect(),
            label_other: counter(&clock),
            cache_hit: counter(&clock),
            cache_miss: counter(&clock),
            samples: counter(&clock),
            reference,
        }
    }

    /// Fold one sampled request's provenance records into the live
    /// distributions (same aggregation as
    /// [`recipe_core::artifact::capture_drift_reference`]).
    pub fn observe(&self, records: &[Record]) {
        self.samples.inc();
        for r in records {
            match r.kind {
                "viterbi.margin" => {
                    if let Some(m) = r.margin {
                        self.margin[drift_margin_bucket(m)].inc();
                    }
                    match self.labels.iter().find(|(k, _)| *k == r.decision) {
                        Some((_, c)) => c.inc(),
                        None => self.label_other.inc(),
                    }
                }
                "cache.lookup" => match r.decision.as_str() {
                    "hit" => self.cache_hit.inc(),
                    "miss" => self.cache_miss.inc(),
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Sampled requests currently inside the window.
    pub fn samples(&self) -> u64 {
        self.samples.count()
    }

    /// Current PSI scores: `(margin, label, cache)`.
    pub fn scores(&self) -> (f64, f64, f64) {
        let live_margin: Vec<u64> = self.margin.iter().map(|c| c.count()).collect();
        let margin_psi = psi(&self.reference.margin_counts, &live_margin);

        let mut ref_labels: Vec<u64> = self.reference.label_counts.values().copied().collect();
        ref_labels.push(0); // labels the reference never produced
        let mut live_labels: Vec<u64> = self.labels.iter().map(|(_, c)| c.count()).collect();
        live_labels.push(self.label_other.count());
        let label_psi = psi(&ref_labels, &live_labels);

        let cache_psi = psi(
            &[self.reference.cache_hits, self.reference.cache_misses],
            &[self.cache_hit.count(), self.cache_miss.count()],
        );
        (margin_psi, label_psi, cache_psi)
    }

    /// The `drift` block of the `/metrics` document.
    pub fn report(&self) -> serde_json::Value {
        let (margin_psi, label_psi, cache_psi) = self.scores();
        let score = margin_psi.max(label_psi).max(cache_psi);
        let observations: u64 = self.margin.iter().map(|c| c.count()).sum();
        let level = if observations < MIN_DRIFT_OBSERVATIONS {
            "warming"
        } else {
            drift_level(score)
        };
        json!({
            "active": true,
            "window_s": self.window_s,
            "samples": self.samples(),
            "observations": observations,
            "reference_phrases": self.reference.phrases,
            "margin_psi": margin_psi,
            "label_psi": label_psi,
            "cache_psi": cache_psi,
            "score": score,
            "level": level,
        })
    }
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftMonitor")
            .field("reference_phrases", &self.reference.phrases)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_obs::window::VirtualClock;
    use std::collections::BTreeMap;

    fn reference() -> DriftReference {
        let mut label_counts = BTreeMap::new();
        label_counts.insert("NAME".to_string(), 60);
        label_counts.insert("QUANTITY".to_string(), 30);
        label_counts.insert("UNIT".to_string(), 10);
        DriftReference {
            schema_version: recipe_core::artifact::DRIFT_SCHEMA_VERSION,
            phrases: 100,
            margin_bounds: DRIFT_MARGIN_BOUNDS.to_vec(),
            margin_counts: vec![5, 10, 20, 30, 20, 10, 3, 1, 1, 0, 0],
            label_counts,
            cache_hits: 40,
            cache_misses: 60,
        }
    }

    fn record(kind: &'static str, decision: &str, margin: Option<f64>) -> Record {
        Record {
            kind,
            site: "test",
            subject: "x".to_string(),
            decision: decision.to_string(),
            detail: String::new(),
            index: 0,
            margin,
        }
    }

    #[test]
    fn in_distribution_traffic_stays_stable() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let m = DriftMonitor::new(clock, reference());
        // Live traffic proportional to the reference: the same
        // margin-bucket shape (×2), labels at the reference 6:3:1
        // ratio, cache hits at the reference 40:60.
        let margins = [
            (0.2, 10),
            (0.4, 20),
            (0.9, 40),
            (1.5, 60),
            (3.0, 40),
            (6.0, 20),
            (12.0, 6),
            (20.0, 2),
            (60.0, 2),
        ];
        let mut i = 0usize;
        for (margin, n) in margins {
            for _ in 0..n {
                let label = match i % 10 {
                    0..=5 => "NAME",
                    6..=8 => "QUANTITY",
                    _ => "UNIT",
                };
                let cache = if i % 5 < 2 { "hit" } else { "miss" };
                m.observe(&[
                    record("viterbi.margin", label, Some(margin)),
                    record("cache.lookup", cache, None),
                ]);
                i += 1;
            }
        }
        let (margin_psi, label_psi, cache_psi) = m.scores();
        assert!(margin_psi < PSI_WARN, "margin PSI {margin_psi} stable");
        assert!(label_psi < PSI_WARN, "label PSI {label_psi} stable");
        assert!(cache_psi < PSI_WARN, "cache PSI {cache_psi} stable");
        let doc = m.report();
        assert_eq!(doc["active"], serde_json::json!(true));
        assert_eq!(doc["level"], serde_json::json!("stable"));
        assert!(doc["samples"].as_u64().unwrap() > 0);
    }

    #[test]
    fn shifted_margins_and_unknown_labels_flag() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let m = DriftMonitor::new(clock, reference());
        // Everything lands in the lowest margin bucket under a label
        // the reference never produced: both axes scream.
        for _ in 0..100 {
            m.observe(&[record("viterbi.margin", "MYSTERY", Some(0.01))]);
        }
        let (margin_psi, label_psi, _) = m.scores();
        assert!(margin_psi > PSI_SHIFT, "margin PSI {margin_psi} shifted");
        assert!(label_psi > PSI_SHIFT, "label PSI {label_psi} shifted");
        assert_eq!(m.report()["level"], serde_json::json!("shifted"));
    }

    #[test]
    fn sparse_windows_report_warming_not_a_verdict() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let m = DriftMonitor::new(clock, reference());
        // One sampled request: the raw PSI is Laplace noise and may sit
        // far past the shift threshold, but the level must not claim a
        // verdict until the window holds real mass.
        m.observe(&[record("viterbi.margin", "NAME", Some(0.2))]);
        let doc = m.report();
        assert!(doc["observations"].as_u64().unwrap() < MIN_DRIFT_OBSERVATIONS);
        assert_eq!(doc["level"], serde_json::json!("warming"));
        // Once the mass threshold is met, the same traffic levels.
        for _ in 0..MIN_DRIFT_OBSERVATIONS {
            m.observe(&[record("viterbi.margin", "NAME", Some(0.2))]);
        }
        let doc = m.report();
        assert_ne!(doc["level"], serde_json::json!("warming"));
    }

    #[test]
    fn empty_window_scores_zero() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let m = DriftMonitor::new(clock, reference());
        let (a, b, c) = m.scores();
        assert_eq!((a, b, c), (0.0, 0.0, 0.0));
        assert_eq!(drift_level(0.0), "stable");
        assert_eq!(drift_level(0.2), "warn");
        assert_eq!(drift_level(0.3), "shifted");
    }
}
