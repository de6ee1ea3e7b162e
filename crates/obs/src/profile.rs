//! Cost attribution: the [`Profile`] data model and its exporters.
//!
//! Two producers fill it:
//!
//! 1. The **span aggregate** ([`crate::span::profile`]): every
//!    `span!()` site's `(count, total_ticks)` per path, the same cells
//!    the stage tree reads (`--profile-out`).
//!
//! 2. An **instanced [`Profiler`]** for components that attribute cost
//!    outside the span machinery — the server records queue/handle/write
//!    tick deltas per endpoint into one of these and serves the snapshot
//!    as the `telemetry.profile` block of `GET /metrics`.
//!
//! Both export a schema-versioned [`Profile`]: a flat, path-sorted list
//! of stages carrying `count`, `total_ticks` and `self_ticks` (total
//! minus direct children — the flamegraph "self" column). [`fold`]
//! renders the collapsed-stack format flamegraph.pl consumes
//! (`a;b;c N`, one line per stage with self time), and
//! [`diff_profiles`] aligns two profiles by stage path and ranks
//! regressions so `bench-diff` can name the stage that ate the ticks,
//! not just the percentile that moved.

use crate::span::Agg;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Version of the `profile` block layout; bumped on breaking changes.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// One stage of an exported profile: a full path from the root span
/// plus its cost. `self_ticks` is `total_ticks` minus the totals of
/// direct children — the time spent *in* this stage rather than below
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Full stage path from the root (`["extract", "ner.decode"]`).
    pub path: Vec<String>,
    /// Spans closed at exactly this path.
    pub count: u64,
    /// Total ticks attributed to this path, children included.
    pub total_ticks: u64,
    /// Ticks spent at this path excluding direct children.
    pub self_ticks: u64,
}

/// A point-in-time cost-attribution snapshot: every observed stage
/// path, sorted by path, with exact tick attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Layout version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which clock produced the ticks (`"monotonic"`, `"virtual"`, …).
    pub clock: String,
    /// Ticks attributed to root stages (depth-1 paths) in total.
    pub total_ticks: u64,
    /// Flat stage list, sorted by path.
    pub nodes: Vec<ProfileNode>,
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            schema_version: PROFILE_SCHEMA_VERSION,
            clock: "none".to_string(),
            total_ticks: 0,
            nodes: Vec::new(),
        }
    }
}

impl Profile {
    /// Assemble a profile from aggregated cells, given in the sorted
    /// path order the format requires (`BTreeMap` iteration order).
    pub(crate) fn from_cells(
        clock: &str,
        cells: impl IntoIterator<Item = (Vec<String>, Agg)>,
    ) -> Self {
        let mut nodes: Vec<ProfileNode> = cells
            .into_iter()
            .map(|(path, agg)| ProfileNode {
                path,
                count: agg.count,
                total_ticks: agg.total_ticks,
                self_ticks: agg.total_ticks,
            })
            .collect();
        // self = total − Σ direct children (saturating: a child closed
        // after its parent's snapshot can carry more ticks than the
        // parent observed).
        for i in 0..nodes.len() {
            let child_sum: u64 = nodes
                .iter()
                .filter(|n| {
                    n.path.len() == nodes[i].path.len() + 1 && n.path.starts_with(&nodes[i].path)
                })
                .map(|n| n.total_ticks)
                .sum();
            nodes[i].self_ticks = nodes[i].total_ticks.saturating_sub(child_sum);
        }
        // Every tick is attributed to exactly one node's self time, so
        // the self sum is the grand total under both producers: the
        // span aggregate (complete trees, where it equals the root
        // totals) and instanced `Profiler`s that record only leaf
        // stages (no depth-1 ancestors to sum).
        let total_ticks = nodes.iter().map(|n| n.self_ticks).sum();
        Profile {
            schema_version: PROFILE_SCHEMA_VERSION,
            clock: clock.to_string(),
            total_ticks,
            nodes,
        }
    }

    /// Whether any cost was attributed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Render a profile in the collapsed-stack ("folded") format
/// flamegraph.pl consumes: one `a;b;c N` line per stage with nonzero
/// self time, in path order.
pub fn fold(profile: &Profile) -> String {
    let mut out = String::new();
    for node in &profile.nodes {
        if node.self_ticks == 0 {
            continue;
        }
        let _ = writeln!(out, "{} {}", node.path.join(";"), node.self_ticks);
    }
    out
}

// ---------------------------------------------------------------------
// Instanced profiler.
// ---------------------------------------------------------------------

/// A self-contained cost-attribution collector for components that
/// stamp ticks themselves instead of riding the span hooks — the
/// server's per-endpoint attribution, and deterministic tests.
/// `record` is order-independent (a multiset sum), so snapshots are
/// byte-identical regardless of how many threads recorded.
#[derive(Debug)]
pub struct Profiler {
    clock_label: String,
    cells: Mutex<BTreeMap<Vec<String>, Agg>>,
}

impl Profiler {
    /// A profiler whose exported snapshots carry `clock_label`.
    pub fn new(clock_label: &str) -> Self {
        Profiler {
            clock_label: clock_label.to_string(),
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attribute `ticks` to stage `path` (one observation).
    pub fn record(&self, path: &[&str], ticks: u64) {
        let mut cells = self
            .cells
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let key: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        cells.entry(key).or_default().add(1, ticks);
    }

    /// Export everything recorded so far.
    pub fn snapshot(&self) -> Profile {
        let cells = self
            .cells
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Profile::from_cells(
            &self.clock_label,
            cells.iter().map(|(path, agg)| (path.clone(), *agg)),
        )
    }

    /// Drop everything recorded so far.
    pub fn reset(&self) {
        self.cells
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clear();
    }
}

// ---------------------------------------------------------------------
// Profile differ.
// ---------------------------------------------------------------------

/// One stage's cost movement between two profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDelta {
    /// The stage path (present in either profile).
    pub path: Vec<String>,
    /// Self ticks in the baseline profile (0 when the stage is new).
    pub before_self_ticks: u64,
    /// Self ticks in the new profile (0 when the stage vanished).
    pub after_self_ticks: u64,
    /// `after − before`, signed.
    pub delta_ticks: i64,
    /// `delta / max(before, 1)` — the relative regression.
    pub delta_frac: f64,
}

/// Align two profiles by stage path and rank cost movements, biggest
/// absolute regression first (ties broken by path, so the ranking is
/// deterministic). Stages present in only one profile align against
/// zero.
pub fn diff_profiles(before: &Profile, after: &Profile) -> Vec<StageDelta> {
    let mut merged: BTreeMap<&[String], (u64, u64)> = BTreeMap::new();
    for node in &before.nodes {
        merged.entry(&node.path).or_default().0 = node.self_ticks;
    }
    for node in &after.nodes {
        merged.entry(&node.path).or_default().1 = node.self_ticks;
    }
    let mut deltas: Vec<StageDelta> = merged
        .into_iter()
        .map(|(path, (b, a))| StageDelta {
            path: path.to_vec(),
            before_self_ticks: b,
            after_self_ticks: a,
            delta_ticks: a as i64 - b as i64,
            delta_frac: (a as i64 - b as i64) as f64 / b.max(1) as f64,
        })
        .collect();
    deltas.sort_by(|x, y| y.delta_ticks.cmp(&x.delta_ticks).then(x.path.cmp(&y.path)));
    deltas
}

/// Render the top `top` regressions (positive deltas only) as indented
/// report lines for `bench-diff` / `profile --diff` output.
pub fn render_diff(deltas: &[StageDelta], top: usize) -> String {
    let mut out = String::new();
    let regressed: Vec<&StageDelta> = deltas.iter().filter(|d| d.delta_ticks > 0).collect();
    if regressed.is_empty() {
        let _ = writeln!(out, "  no stage regressed");
        return out;
    }
    for d in regressed.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:+} ticks ({:+.1}%)  {}  ({} -> {})",
            d.delta_ticks,
            d.delta_frac * 100.0,
            d.path.join(";"),
            d.before_self_ticks,
            d.after_self_ticks,
        );
    }
    out
}

// ---------------------------------------------------------------------
// Schema validation.
// ---------------------------------------------------------------------

fn expect_object<'v>(v: &'v Value, what: &str) -> Result<&'v Vec<(String, Value)>, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object"))
}

/// Validate the shape of a `profile` JSON block (as produced by
/// serializing [`Profile`]). Returns the first problem found.
pub fn validate_profile(v: &Value) -> Result<(), String> {
    let obj = expect_object(v, "profile")?;
    let field = |name: &str| {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("profile missing field `{name}`"))
    };
    match field("schema_version")?.as_f64() {
        Some(version) if version == PROFILE_SCHEMA_VERSION as f64 => {}
        Some(version) => return Err(format!("unsupported profile schema_version {version}")),
        None => return Err("profile.schema_version must be a number".to_string()),
    }
    if field("clock")?.as_str().is_none() {
        return Err("profile.clock must be a string".to_string());
    }
    if field("total_ticks")?.as_f64().is_none() {
        return Err("profile.total_ticks must be a number".to_string());
    }
    let nodes = field("nodes")?
        .as_array()
        .ok_or_else(|| "profile.nodes must be an array".to_string())?;
    for (i, node) in nodes.iter().enumerate() {
        let what = format!("profile.nodes[{i}]");
        let node_obj = expect_object(node, &what)?;
        let nfield = |name: &str| {
            node_obj
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("{what} missing field `{name}`"))
        };
        let path = nfield("path")?
            .as_array()
            .ok_or_else(|| format!("{what}.path must be an array"))?;
        if path.is_empty() || path.iter().any(|seg| seg.as_str().is_none()) {
            return Err(format!("{what}.path must be a nonempty array of strings"));
        }
        for want in ["count", "total_ticks", "self_ticks"] {
            if nfield(want)?.as_f64().is_none() {
                return Err(format!("{what}.{want} must be a number"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_output_lists_self_ticks_per_path() {
        let prof = Profiler::new("virtual");
        prof.record(&["extract"], 45);
        prof.record(&["extract", "ner.decode"], 30);
        prof.record(&["extract", "ner.decode"], 10);
        let snap = prof.snapshot();
        // extract total 45, children 40 → self 5.
        assert_eq!(fold(&snap), "extract 5\nextract;ner.decode 40\n");
        prof.reset();
        assert!(prof.snapshot().is_empty());
    }

    #[test]
    fn diff_ranks_biggest_regression_first() {
        let prof_a = Profiler::new("virtual");
        prof_a.record(&["serve", "extract"], 100);
        prof_a.record(&["serve", "healthz"], 50);
        let prof_b = Profiler::new("virtual");
        prof_b.record(&["serve", "extract"], 400);
        prof_b.record(&["serve", "healthz"], 40);
        prof_b.record(&["serve", "reload"], 5);
        let deltas = diff_profiles(&prof_a.snapshot(), &prof_b.snapshot());
        assert_eq!(deltas.len(), 3, "{deltas:?}");
        assert_eq!(deltas[0].path, vec!["serve", "extract"]);
        assert_eq!(deltas[0].delta_ticks, 300);
        assert!((deltas[0].delta_frac - 3.0).abs() < 1e-9);
        assert_eq!(deltas[1].path, vec!["serve", "reload"]);
        assert_eq!(deltas[1].before_self_ticks, 0);
        assert_eq!(deltas[2].delta_ticks, -10);
        let rendered = render_diff(&deltas, 3);
        assert!(rendered.contains("serve;extract"), "{rendered}");
        assert!(rendered.contains("+300 ticks"), "{rendered}");
        assert!(
            !rendered.contains("healthz"),
            "improvements hidden: {rendered}"
        );
    }

    #[test]
    fn profile_round_trips_and_validates() {
        let prof = Profiler::new("monotonic");
        prof.record(&["serve", "extract", "handle"], 120);
        prof.record(&["serve", "extract"], 200);
        let snap = prof.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let value: Value = serde_json::from_str(&json).expect("reparse");
        validate_profile(&value).expect("valid profile");
        let back: Profile = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);

        assert!(validate_profile(&serde_json::json!([])).is_err());
        assert!(validate_profile(&serde_json::json!({})).is_err());
        let bad = serde_json::json!({
            "schema_version": 999, "clock": "x", "total_ticks": 0, "nodes": [],
        });
        let err = validate_profile(&bad).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn default_profile_validates_as_empty() {
        let value = serde_json::to_value(&Profile::default());
        validate_profile(&value).expect("default profile valid");
        assert!(Profile::default().is_empty());
    }
}
