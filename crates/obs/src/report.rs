//! Telemetry export: a serializable snapshot of spans and metrics, a
//! human-readable renderer for `recipe_mine stats`, and a schema
//! validator for `--metrics-out` documents.

use crate::metrics::{HistogramSnapshot, Registry, RegistrySnapshot};
use crate::profile::Profile;
use crate::span::{stage_tree, StageNode};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the `--metrics-out` and `/metrics` document layout;
/// bumped on breaking schema changes. v2 added the `windows` block, v3
/// the `profile` block (per-stage cost attribution). v4 dropped
/// `windows` and gave each histogram its `bounds` and cumulative
/// `buckets`, from which a reader of two documents derives the window
/// between them ([`crate::slo`]).
pub const SCHEMA_VERSION: u64 = 4;

/// A point-in-time export of everything the observability layer knows:
/// the aggregated stage tree plus a merged snapshot of the global
/// registry and any component-private registries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Whether tracing was enabled while this snapshot was collected
    /// (counters that back normal output count either way).
    pub enabled: bool,
    /// Aggregated span tree, roots sorted by name.
    pub stages: Vec<StageNode>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained series values by name.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Derived rates filled in by the caller (items per second, wall
    /// seconds, …), keyed by measure name.
    pub throughput: BTreeMap<String, f64>,
    /// Per-stage cost attribution ([`crate::profile`]), filled in by
    /// callers that ran a profiler (`--profile-out`, the server's
    /// always-on endpoint profiler); empty otherwise.
    pub profile: Profile,
}

impl Telemetry {
    /// Gather the stage tree, the global registry, and any `extra`
    /// registries (merged in order, later names winning) into one
    /// snapshot.
    pub fn gather(extra: &[&Registry]) -> Self {
        let mut snap = crate::metrics::global().snapshot();
        for r in extra {
            snap.merge(r.snapshot());
        }
        Self::from_parts(stage_tree(), snap)
    }

    /// Assemble a snapshot from already-collected parts.
    pub fn from_parts(stages: Vec<StageNode>, snap: RegistrySnapshot) -> Self {
        Telemetry {
            enabled: crate::enabled(),
            stages,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
            series: snap.series,
            throughput: BTreeMap::new(),
            profile: Profile::default(),
        }
    }
}

/// Format seconds compactly for the human renderer.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

fn render_stage(out: &mut String, node: &StageNode, depth: usize) {
    let indent = "  ".repeat(depth + 1);
    let _ = writeln!(
        out,
        "{indent}{:<w$} {:>8} calls  {:>10}",
        node.name,
        node.count,
        fmt_secs(node.wall_s),
        w = 32usize.saturating_sub(depth * 2),
    );
    for child in &node.children {
        render_stage(out, child, depth + 1);
    }
}

/// Render a telemetry snapshot for terminals: stage tree, then each
/// metric family, skipping empty sections.
pub fn render_human(t: &Telemetry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry (tracing {})",
        if t.enabled { "on" } else { "off" }
    );
    if !t.stages.is_empty() {
        let _ = writeln!(out, "stages:");
        for node in &t.stages {
            render_stage(&mut out, node, 0);
        }
    }
    if !t.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &t.counters {
            let _ = writeln!(out, "  {name:<40} {v:>12}");
        }
    }
    if !t.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &t.gauges {
            let _ = writeln!(out, "  {name:<40} {v:>12.6}");
        }
    }
    if !t.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, h) in &t.histograms {
            let _ = writeln!(
                out,
                "  {name:<40} n={:<8} p50={} p90={} p99={} max={}",
                h.count,
                fmt_secs(h.p50),
                fmt_secs(h.p90),
                fmt_secs(h.p99),
                fmt_secs(h.max),
            );
        }
    }
    if !t.series.is_empty() {
        let _ = writeln!(out, "series:");
        for (name, vals) in &t.series {
            let head: Vec<String> = vals.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if vals.len() > 8 { ", …" } else { "" };
            let _ = writeln!(
                out,
                "  {name:<40} [{}{}] ({} points)",
                head.join(", "),
                ellipsis,
                vals.len()
            );
        }
    }
    if !t.throughput.is_empty() {
        let _ = writeln!(out, "throughput:");
        for (name, v) in &t.throughput {
            let _ = writeln!(out, "  {name:<40} {v:>14.2}");
        }
    }
    if !t.profile.is_empty() {
        let _ = writeln!(
            out,
            "profile ({} clock, {} total ticks):",
            t.profile.clock, t.profile.total_ticks
        );
        for node in &t.profile.nodes {
            let _ = writeln!(
                out,
                "  {:<48} {:>8} calls  total {:>10}  self {:>10}",
                node.path.join(";"),
                node.count,
                node.total_ticks,
                node.self_ticks,
            );
        }
    }
    out
}

fn expect_object<'v>(v: &'v Value, what: &str) -> Result<&'v Vec<(String, Value)>, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object"))
}

/// Field `name` of the object `v`, which `what` names in errors.
fn field<'v>(v: &'v Value, what: &str, name: &str) -> Result<&'v Value, String> {
    expect_object(v, what)?;
    v.get(name)
        .ok_or_else(|| format!("{what} missing field `{name}`"))
}

fn expect_number(v: &Value, what: &str) -> Result<(), String> {
    match v.as_f64() {
        Some(_) => Ok(()),
        None => Err(format!("{what} must be a number")),
    }
}

fn expect_number_map(v: &Value, what: &str) -> Result<(), String> {
    for (key, val) in expect_object(v, what)? {
        expect_number(val, &format!("{what}.{key}"))?;
    }
    Ok(())
}

/// An array of numbers; returns its length.
fn expect_numbers(v: &Value, what: &str) -> Result<usize, String> {
    match v.as_array() {
        Some(a) if a.iter().all(|x| x.as_f64().is_some()) => Ok(a.len()),
        _ => Err(format!("{what} must be an array of numbers")),
    }
}

fn validate_stage(v: &Value, path: &str) -> Result<(), String> {
    if field(v, path, "name")?.as_str().is_none() {
        return Err(format!("{path}.name must be a string"));
    }
    for want in ["count", "wall_s"] {
        expect_number(field(v, path, want)?, &format!("{path}.{want}"))?;
    }
    let children = field(v, path, "children")?
        .as_array()
        .ok_or_else(|| format!("{path}.children must be an array"))?;
    for (i, child) in children.iter().enumerate() {
        validate_stage(child, &format!("{path}.children[{i}]"))?;
    }
    Ok(())
}

/// Validate the shape of a `telemetry` JSON block (as produced by
/// serializing [`Telemetry`]). Returns the first problem found.
pub fn validate_telemetry(v: &Value) -> Result<(), String> {
    let top = |name: &str| field(v, "telemetry", name);
    if top("enabled")?.as_bool().is_none() {
        return Err("telemetry.enabled must be a boolean".to_string());
    }
    let stages = top("stages")?
        .as_array()
        .ok_or_else(|| "telemetry.stages must be an array".to_string())?;
    for (i, stage) in stages.iter().enumerate() {
        validate_stage(stage, &format!("telemetry.stages[{i}]"))?;
    }
    expect_number_map(top("counters")?, "telemetry.counters")?;
    expect_number_map(top("gauges")?, "telemetry.gauges")?;
    for (key, hist) in expect_object(top("histograms")?, "telemetry.histograms")? {
        let what = format!("telemetry.histograms.{key}");
        for want in ["count", "sum", "mean", "min", "max", "p50", "p90", "p99"] {
            expect_number(field(hist, &what, want)?, &format!("{what}.{want}"))?;
        }
        let bounds = expect_numbers(field(hist, &what, "bounds")?, &format!("{what}.bounds"))?;
        let buckets = expect_numbers(field(hist, &what, "buckets")?, &format!("{what}.buckets"))?;
        if buckets != bounds + 1 {
            return Err(format!(
                "{what}.buckets must have one more entry than bounds"
            ));
        }
    }
    for (key, s) in expect_object(top("series")?, "telemetry.series")? {
        expect_numbers(s, &format!("telemetry.series.{key}"))?;
    }
    expect_number_map(top("throughput")?, "telemetry.throughput")?;
    crate::profile::validate_profile(top("profile")?).map_err(|e| format!("telemetry.{e}"))
}

/// Validate a full `--metrics-out` or `/metrics` document:
/// `schema_version`, `command`, and a valid `telemetry` block.
pub fn validate_document(v: &Value) -> Result<(), String> {
    let top = |name: &str| field(v, "document", name);
    match top("schema_version")?.as_f64() {
        Some(version) if version == SCHEMA_VERSION as f64 => {}
        Some(version) => return Err(format!("unsupported schema_version {version}")),
        None => return Err("schema_version must be a number".to_string()),
    }
    if top("command")?.as_str().is_none() {
        return Err("command must be a string".to_string());
    }
    validate_telemetry(top("telemetry")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> Telemetry {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _root = crate::span::enter("extract");
            let _child = crate::span::enter("ner.decode");
        }
        let reg = Registry::new();
        reg.counter("cache.hits").add(7);
        reg.gauge("pool.workers").set(4.0);
        reg.latency_histogram("phrase.latency").record(0.002);
        reg.series("kmeans.inertia").push(12.5);
        let mut t = Telemetry::gather(&[&reg]);
        t.throughput.insert("phrases_per_s".to_string(), 123.0);
        crate::set_enabled(false);
        crate::reset();
        t
    }

    #[test]
    fn telemetry_round_trips_and_validates() {
        let t = sample_telemetry();
        let json = serde_json::to_string_pretty(&t).expect("serialize");
        let value: serde_json::Value = serde_json::from_str(&json).expect("reparse");
        validate_telemetry(&value).expect("valid telemetry");
        let back: Telemetry = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, t);
        let doc = serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "command": "extract",
            "telemetry": value,
        });
        validate_document(&doc).expect("valid document");
    }

    #[test]
    fn validation_rejects_malformed_blocks() {
        let t = sample_telemetry();
        let good = serde_json::to_value(&t);
        assert!(validate_telemetry(&good).is_ok());
        assert!(validate_telemetry(&serde_json::json!([])).is_err());
        assert!(validate_telemetry(&serde_json::json!({})).is_err());
        let doc = serde_json::json!({
            "schema_version": 999,
            "command": "extract",
            "telemetry": good,
        });
        let err = validate_document(&doc).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        assert!(validate_document(&serde_json::json!({"command": "x"})).is_err());
    }

    #[test]
    fn human_render_on_empty_registry_is_header_only() {
        let _lock = crate::tests_lock();
        crate::set_enabled(false);
        crate::reset();
        let t = Telemetry::gather(&[]);
        let text = render_human(&t);
        assert!(text.starts_with("telemetry (tracing off)"), "{text}");
        // Every section is empty, so nothing but the header renders.
        assert_eq!(text.lines().count(), 1, "{text}");
        for absent in ["stages:", "counters:", "gauges:", "histograms:"] {
            assert!(!text.contains(absent), "{text}");
        }
    }

    #[test]
    fn validate_document_rejects_truncated_json() {
        // A document cut off mid-write must fail parsing, and a document
        // parsed from a prefix-complete but field-incomplete text must
        // fail validation — not silently pass.
        let t = sample_telemetry();
        let full = serde_json::to_string(&serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "command": "extract",
            "telemetry": serde_json::to_value(&t),
        }))
        .unwrap();
        let cut = &full[..full.len() / 2];
        assert!(serde_json::from_str::<Value>(cut).is_err(), "parses: {cut}");
        // Truncation that happens to be well-formed JSON (an object with
        // fields missing) still fails validation.
        let partial: Value =
            serde_json::from_str(&format!("{{\"schema_version\": {SCHEMA_VERSION}}}")).unwrap();
        let err = validate_document(&partial).unwrap_err();
        assert!(err.contains("command"), "{err}");
    }

    #[test]
    fn validate_document_flags_nan_bearing_histograms() {
        // Non-finite histogram stats serialize as `null` (the writer's
        // NaN convention); a reloaded document carrying one must be
        // *rejected with a message naming the field*, not silently
        // accepted as healthy telemetry.
        let t = sample_telemetry();
        let text = serde_json::to_string(&serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "command": "extract",
            "telemetry": serde_json::to_value(&t),
        }))
        .unwrap();
        // Poison one percentile the way a NaN serializes.
        let poisoned = text.replacen("\"p99\":", "\"p99\":null,\"p99_orig\":", 1);
        assert_ne!(poisoned, text, "sample telemetry has a p99 field");
        let doc: Value = serde_json::from_str(&poisoned).expect("well-formed");
        let err = validate_document(&doc).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        assert!(err.contains("must be a number"), "{err}");
    }

    #[test]
    fn human_render_mentions_every_section() {
        let t = sample_telemetry();
        let text = render_human(&t);
        for needle in [
            "stages:",
            "extract",
            "ner.decode",
            "counters:",
            "cache.hits",
            "gauges:",
            "histograms:",
            "phrase.latency",
            "series:",
            "kmeans.inertia",
            "throughput:",
            "phrases_per_s",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
