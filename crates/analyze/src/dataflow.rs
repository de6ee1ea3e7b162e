//! The `RA4xx` dataflow lints: determinism, panic-safety and
//! concurrency-discipline checks that combine token-level pattern
//! matching with the approximate call graph.
//!
//! Every rule here is a *heuristic over tokens* — there is no type
//! inference — so each one is written to overapproximate only where the
//! cost of a false negative is a nondeterministic artifact or a panic in
//! serving, and to suppress aggressively where the workspace has a
//! sanctioned pattern (telemetry behind `recipe_obs`, ordered reduction
//! through `recipe-runtime`, counter-style relaxed atomics).
//!
//! | rule  | finds |
//! |-------|-------|
//! | RA401 | iteration over `HashMap`/`HashSet` feeding a serialized artifact |
//! | RA402 | wall-clock / RNG sources on artifact-producing paths |
//! | RA403 | unordered float reduction not routed through the runtime's ordered reduce |
//! | RA404 | `Ordering::Relaxed` stores on publication-style atomics |
//! | RA405 | inconsistent mutex acquisition order; guards held across pool dispatch |
//! | RA406 | panic sources (`unwrap`, `panic!`, arithmetic indexing) on the serving call graph |
//! | RA407 | load/parse entry points that reinterpret raw bytes without reachable validation |
//! | RA408 | unbounded reads (`read_to_end`/`read_to_string` without a limit) and blocking sleeps on the serving call graph |
//! | RA409 | raw clock reads (`Instant::now`/`SystemTime::now`) on the serving call graph bypassing the injectable `Clock` |
//! | RA410 | loops on the serving or artifact call graph with no span/profiler attribution site |

use crate::callgraph::{call_sites, macro_sites, CallGraph, Workspace};
use crate::diag::Diagnostic;
use crate::items::{match_bracket, FileItems, FnItem};
use crate::lexer::{Lexed, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Hash-container iteration methods whose visit order is nondeterministic.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers whose presence in a body marks it as a serialization
/// sink (it writes an artifact whose bytes depend on visit order).
const SINK_IDENTS: &[&str] = &[
    "serde_json",
    "to_json",
    "to_jsonl",
    "to_writer",
    "to_string_pretty",
    "serialize",
    "write_all",
    "save",
];

/// Worker-pool / thread dispatch entry points (RA405's "don't hold a
/// lock across these" set).
const DISPATCH_CALLS: &[&str] = &[
    "par_chunks_map",
    "par_map",
    "par_map_reduce",
    "par_for_each_mut",
    "par_dot",
    "spawn",
    "scope",
];

/// Receiver-name fragments that mark an atomic as *publication-style*:
/// a flag or slot other threads read to decide whether shared data is
/// visible. Counter/cursor/config atomics (`threads`, `enabled`,
/// `cursor`, …) are deliberately absent — relaxed is correct for those.
const PUBLICATION_FRAGMENTS: &[&str] = &[
    "ready",
    "init",
    "done",
    "publish",
    "current",
    "latest",
    "epoch",
    "generation",
    "model",
    "committed",
];

/// Run every RA4xx pass over the workspace.
pub fn lint_dataflow(ws: &Workspace) -> Vec<Diagnostic> {
    let g = CallGraph::build(ws);

    let serving_roots = g.select(is_serving_root);
    let artifact_roots = g.select(is_artifact_root);
    let sink_fns = g.select(|file, f| {
        !f.in_test && (is_sink_fn(f) || body_has_sink_tokens(&file.lexed, f.body.clone()))
    });

    let serving = g.reachable_from(&serving_roots);
    let artifact = g.reachable_from(&artifact_roots);
    let feeds_sink = g.can_reach(&sink_fns);

    let mut out = Vec::new();
    let mut lock_orders: Vec<LockPair> = Vec::new();

    for id in 0..g.fns.len() {
        let (file, f) = g.item(id);
        if f.in_test || f.body.is_empty() {
            continue;
        }
        ra401_hash_iteration(file, f, feeds_sink[id], &mut out);
        ra402_nondeterministic_sources(file, f, artifact[id], &mut out);
        ra403_unordered_float_reduction(file, f, feeds_sink[id] || artifact[id], &mut out);
        ra404_relaxed_publication(file, f, &mut out);
        ra405_collect_locks(file, f, &mut out, &mut lock_orders);
        if serving[id] {
            ra406_panic_sources(file, f, &mut out);
            ra408_unbounded_io(file, f, &mut out);
            ra409_raw_clock_reads(file, f, &mut out);
        }
        if serving[id] || artifact[id] {
            ra410_unattributed_hot_loop(file, f, &mut out);
        }
    }

    ra405_order_conflicts(&lock_orders, &mut out);
    ra407_unchecked_reinterpretation(&g, &mut out);
    out
}

/// Serving roots: the public inference surface plus the compiled
/// kernels, the CLI commands that answer queries, and the HTTP
/// request handlers in `recipe-serve` (`handle_*`).
fn is_serving_root(file: &FileItems, f: &FnItem) -> bool {
    if f.in_test {
        return false;
    }
    (f.is_pub && f.qual.starts_with("Inference::"))
        || f.name.starts_with("extract_")
        || f.name.starts_with("model_recipe")
        || f.name.starts_with("handle_")
        || matches!(
            f.name.as_str(),
            "model_text" | "decode" | "viterbi_into" | "tag_into" | "predict_ids_into"
        )
        || (file.file.contains("cli") && matches!(f.name.as_str(), "extract" | "mine" | "explain"))
}

/// Artifact roots: everything serving, plus training, corpus
/// generation and model persistence — any path whose output lands in a
/// file another run will compare.
fn is_artifact_root(file: &FileItems, f: &FnItem) -> bool {
    if f.in_test {
        return false;
    }
    is_serving_root(file, f)
        || f.name == "train"
        || f.qual.starts_with("TrainedPipeline::")
        || f.name.starts_with("generate")
}

/// A function is a serialization sink if its name says so or its body
/// touches a serialization identifier.
fn is_sink_fn(f: &FnItem) -> bool {
    f.name.starts_with("save") || f.name.starts_with("to_json") || f.name == "serialize"
}

fn body_has_sink_tokens(lexed: &Lexed, body: Range<usize>) -> bool {
    body.clone()
        .any(|k| lexed.kind(k) == Some(TokenKind::Ident) && SINK_IDENTS.contains(&lexed.text(k)))
        || macro_sites(lexed, body).iter().any(|m| m.name == "json")
}

/// Whether any token in `range` is a float marker: `f64`/`f32` idents
/// or a float literal (`0.0`, `1e9`, `2f64`).
fn has_float_evidence(lexed: &Lexed, range: Range<usize>) -> bool {
    range.into_iter().any(|k| match lexed.kind(k) {
        Some(TokenKind::Ident) => matches!(lexed.text(k), "f64" | "f32"),
        Some(TokenKind::NumLit) => {
            let t = lexed.text(k);
            let radix_prefixed = t.starts_with("0x")
                || t.starts_with("0X")
                || t.starts_with("0b")
                || t.starts_with("0o");
            t.contains('.')
                || t.ends_with("f64")
                || t.ends_with("f32")
                || (!radix_prefixed && (t.contains('e') || t.contains('E')))
        }
        _ => false,
    })
}

/// Names bound to `HashMap`/`HashSet` values in the signature or body:
/// `m: HashMap<…>`, `let mut m = HashMap::new()`, `m: &HashSet<…>`.
fn hash_bindings(lexed: &Lexed, f: &FnItem) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for range in [f.signature.clone(), f.body.clone()] {
        for k in range {
            if !(lexed.is_ident(k, "HashMap") || lexed.is_ident(k, "HashSet")) {
                continue;
            }
            // Walk left over `&`, `mut` and `std::collections::`-style
            // path prefixes to find what this type/constructor binds.
            let mut j = k as isize - 1;
            loop {
                if j >= 1
                    && lexed.is_punct(j as usize, ':')
                    && lexed.is_punct((j - 1) as usize, ':')
                {
                    j -= 2;
                    if j >= 0 && lexed.kind(j as usize) == Some(TokenKind::Ident) {
                        j -= 1;
                    }
                    continue;
                }
                if j >= 0 && (lexed.is_punct(j as usize, '&') || lexed.is_ident(j as usize, "mut"))
                {
                    j -= 1;
                    continue;
                }
                break;
            }
            if j < 1 {
                continue;
            }
            let j = j as usize;
            let single_colon = lexed.is_punct(j, ':') && !lexed.is_punct(j.wrapping_sub(1), ':');
            if (single_colon || lexed.is_punct(j, '='))
                && lexed.kind(j - 1) == Some(TokenKind::Ident)
            {
                out.insert(lexed.text(j - 1).to_string());
            }
        }
    }
    out
}

/// RA401: iteration over a hash-ordered container in a function that
/// can reach a serialization sink, with no visible ordering step.
fn ra401_hash_iteration(file: &FileItems, f: &FnItem, feeds_sink: bool, out: &mut Vec<Diagnostic>) {
    let lexed = &file.lexed;
    if !(feeds_sink || body_has_sink_tokens(lexed, f.body.clone())) {
        return;
    }
    let names = hash_bindings(lexed, f);
    if names.is_empty() {
        return;
    }
    for k in f.body.clone() {
        if lexed.kind(k) != Some(TokenKind::Ident) || !names.contains(lexed.text(k)) {
            continue;
        }
        let name = lexed.text(k);
        let method_iter = lexed.is_punct(k + 1, '.')
            && lexed.kind(k + 2) == Some(TokenKind::Ident)
            && HASH_ITER_METHODS.contains(&lexed.text(k + 2))
            && lexed.is_punct(k + 3, '(');
        let for_iter = {
            // `for x in name` / `for x in &name`.
            let mut p = k as isize - 1;
            while p >= 0 && lexed.is_punct(p as usize, '&') {
                p -= 1;
            }
            p >= 0 && lexed.is_ident(p as usize, "in")
        };
        if !(method_iter || for_iter) {
            continue;
        }
        // Suppress when the rest of the body visibly restores order:
        // a sort call or a BTree re-collection downstream.
        let ordered_later = (k..f.body.end).any(|j| {
            lexed.kind(j) == Some(TokenKind::Ident)
                && (lexed.text(j).starts_with("sort") || lexed.text(j).starts_with("BTree"))
        });
        if ordered_later {
            continue;
        }
        let line = lexed.line(k);
        out.push(
            Diagnostic::new(
                "RA401",
                format!(
                    "iteration over hash-ordered `{name}` in `{}` feeds a serialized artifact",
                    f.qual
                ),
                format!("{}:{line}", file.file),
            )
            .with_note(
                "hash iteration order varies between runs; collect-and-sort or use a \
                 BTreeMap/BTreeSet before serializing",
            ),
        );
    }
}

/// RA402: wall-clock and RNG reads inside artifact-producing call
/// paths, unless the function is telemetry (gated on `recipe_obs`) or
/// lives in the observability/bench crates.
fn ra402_nondeterministic_sources(
    file: &FileItems,
    f: &FnItem,
    on_artifact_path: bool,
    out: &mut Vec<Diagnostic>,
) {
    if !on_artifact_path || telemetry_exempt(file, f) {
        return;
    }
    let lexed = &file.lexed;
    for site in call_sites(lexed, f.body.clone()) {
        let source = match (site.qualifier.as_deref(), site.name.as_str()) {
            (Some(q @ ("SystemTime" | "Instant" | "Utc")), "now") => format!("{q}::now"),
            (Some("rand"), "random") => "rand::random".to_string(),
            (_, n @ ("thread_rng" | "from_entropy")) => n.to_string(),
            _ => continue,
        };
        out.push(
            Diagnostic::new(
                "RA402",
                format!(
                    "nondeterministic source `{source}` in `{}` on an artifact-producing path",
                    f.qual
                ),
                format!("{}:{}", file.file, site.line),
            )
            .with_note(
                "artifacts must be reproducible from (corpus, seed); derive randomness from \
                 the run seed and keep wall-clock reads behind recipe_obs telemetry",
            ),
        );
    }
}

/// Telemetry code is allowed to read clocks: the obs crate itself, the
/// bench harness, and any body that touches `recipe_obs` (the
/// workspace's sanctioned pattern is `if recipe_obs::enabled() { … }`).
fn telemetry_exempt(file: &FileItems, f: &FnItem) -> bool {
    file.file.contains("obs/")
        || file.file.contains("bench")
        || f.body.clone().any(|k| file.lexed.is_ident(k, "recipe_obs"))
}

/// RA403: float reductions whose result depends on summation order —
/// either folding a hash-ordered container, or accumulating across
/// hand-rolled threads instead of the runtime's ordered reduce.
fn ra403_unordered_float_reduction(
    file: &FileItems,
    f: &FnItem,
    on_artifact_path: bool,
    out: &mut Vec<Diagnostic>,
) {
    if !on_artifact_path {
        return;
    }
    let lexed = &file.lexed;
    let names = hash_bindings(lexed, f);

    // (a) `map.values().sum::<f64>()`-style reductions over hash order.
    for site in call_sites(lexed, f.body.clone()) {
        if !site.is_method || !matches!(site.name.as_str(), "sum" | "product" | "fold") {
            continue;
        }
        let stmt_start = (f.body.start..site.token)
            .rev()
            .find(|&j| lexed.is_punct(j, ';') || lexed.is_punct(j, '{'))
            .map(|j| j + 1)
            .unwrap_or(f.body.start);
        let stmt = stmt_start..site.token;
        let over_hash = stmt.clone().any(|j| {
            lexed.kind(j) == Some(TokenKind::Ident)
                && (names.contains(lexed.text(j))
                    || lexed.text(j) == "HashMap"
                    || lexed.text(j) == "HashSet")
        });
        if over_hash && has_float_evidence(lexed, stmt_start..site.token + 8) {
            out.push(
                Diagnostic::new(
                    "RA403",
                    format!(
                        "float `{}()` over hash-ordered data in `{}`",
                        site.name, f.qual
                    ),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "float addition is not associative; fix the iteration order (sort or \
                     BTree) so the reduction is reproducible",
                ),
            );
        }
    }

    // (b) hand-rolled spawn/join float accumulation. The runtime's
    // par_map_reduce folds worker results in worker-index order; ad-hoc
    // `total += handle.join()` folds in completion order.
    if telemetry_exempt(file, f) {
        return;
    }
    let sites = call_sites(lexed, f.body.clone());
    let spawns = sites.iter().any(|s| s.name == "spawn");
    let joins = sites.iter().any(|s| s.name == "join");
    let ordered = f.body.clone().any(|k| {
        lexed.kind(k) == Some(TokenKind::Ident)
            && matches!(lexed.text(k), "par_map_reduce" | "par_dot")
    });
    if spawns && joins && !ordered && has_float_evidence(lexed, f.body.clone()) {
        if let Some(plus) = (f.body.start..f.body.end.saturating_sub(1))
            .find(|&k| lexed.is_punct(k, '+') && lexed.is_punct(k + 1, '='))
        {
            out.push(
                Diagnostic::new(
                    "RA403",
                    format!(
                        "hand-rolled float accumulation across threads in `{}`",
                        f.qual
                    ),
                    format!("{}:{}", file.file, lexed.line(plus)),
                )
                .with_note(
                    "route the reduction through recipe_runtime::Runtime::par_map_reduce, \
                     which folds worker results in a fixed order",
                ),
            );
        }
    }
}

/// RA404: `store`/`swap`/`compare_exchange` with `Ordering::Relaxed` on
/// an atomic whose name says it *publishes* data to other threads.
fn ra404_relaxed_publication(file: &FileItems, f: &FnItem, out: &mut Vec<Diagnostic>) {
    let lexed = &file.lexed;
    for site in call_sites(lexed, f.body.clone()) {
        if !site.is_method
            || !matches!(
                site.name.as_str(),
                "store" | "swap" | "compare_exchange" | "compare_exchange_weak" | "fetch_update"
            )
        {
            continue;
        }
        let recv = site.token.checked_sub(2);
        let Some(recv) = recv.filter(|&r| lexed.kind(r) == Some(TokenKind::Ident)) else {
            continue;
        };
        let recv_name = lexed.text(recv);
        let lower = recv_name.to_ascii_lowercase();
        if !PUBLICATION_FRAGMENTS
            .iter()
            .any(|frag| lower.contains(frag))
        {
            continue;
        }
        let args_end = match_bracket(lexed, site.token + 1, '(', ')');
        let relaxed = (site.token + 1..args_end).any(|k| lexed.is_ident(k, "Relaxed"));
        if relaxed {
            out.push(
                Diagnostic::new(
                    "RA404",
                    format!(
                        "`Ordering::Relaxed` on publication atomic `{recv_name}.{}` in `{}`",
                        site.name, f.qual
                    ),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "a relaxed store does not order earlier writes; use Release (and Acquire \
                     on the reader) when the flag gates access to other data",
                ),
            );
        }
    }
}

/// One lock acquisition inside a function body.
struct LockAcq {
    recv: String,
    line: u32,
    token: usize,
    /// `let guard = …` binding name, when the guard outlives the
    /// statement. Temporary guards drop at the end of their statement.
    binding: Option<String>,
}

/// A (first, second) lock-acquisition order observed in one function.
struct LockPair {
    first: String,
    second: String,
    file: String,
    qual: String,
    line: u32,
}

/// RA405 per-function pass: held-across-dispatch diagnostics now,
/// acquisition orders accumulated for the global conflict check.
fn ra405_collect_locks(
    file: &FileItems,
    f: &FnItem,
    out: &mut Vec<Diagnostic>,
    orders: &mut Vec<LockPair>,
) {
    let lexed = &file.lexed;
    let mut acqs: Vec<LockAcq> = Vec::new();
    for site in call_sites(lexed, f.body.clone()) {
        if site.name != "lock" || !site.is_method {
            continue;
        }
        let Some(recv) = site
            .token
            .checked_sub(2)
            .filter(|&r| lexed.kind(r) == Some(TokenKind::Ident) && !lexed.is_ident(r, "self"))
        else {
            continue;
        };
        let stmt_start = (f.body.start..site.token)
            .rev()
            .find(|&j| lexed.is_punct(j, ';') || lexed.is_punct(j, '{') || lexed.is_punct(j, '}'))
            .map(|j| j + 1)
            .unwrap_or(f.body.start);
        let binding = if lexed.is_ident(stmt_start, "let") {
            let name_tok = if lexed.is_ident(stmt_start + 1, "mut") {
                stmt_start + 2
            } else {
                stmt_start + 1
            };
            (lexed.kind(name_tok) == Some(TokenKind::Ident))
                .then(|| lexed.text(name_tok).to_string())
        } else {
            None
        };
        acqs.push(LockAcq {
            recv: lexed.text(recv).to_string(),
            line: site.line,
            token: site.token,
            binding,
        });
    }
    if acqs.is_empty() {
        return;
    }

    let dropped_between = |binding: &str, from: usize, to: usize| {
        (from..to).any(|k| {
            lexed.is_ident(k, "drop")
                && lexed.is_punct(k + 1, '(')
                && lexed.is_ident(k + 2, binding)
        })
    };

    // Guards held across worker-pool dispatch.
    for acq in &acqs {
        let Some(binding) = &acq.binding else {
            continue;
        };
        for site in call_sites(lexed, acq.token..f.body.end) {
            if DISPATCH_CALLS.contains(&site.name.as_str())
                && !dropped_between(binding, acq.token, site.token)
            {
                out.push(
                    Diagnostic::new(
                        "RA405",
                        format!(
                            "mutex guard `{binding}` (locked line {}) held across `{}` dispatch \
                             in `{}`",
                            acq.line, site.name, f.qual
                        ),
                        format!("{}:{}", file.file, site.line),
                    )
                    .with_note(
                        "a guard held while fanning out to the pool serializes the workers \
                         (or deadlocks if they take the same lock); drop it first",
                    ),
                );
                break;
            }
        }
    }

    // Acquisition orders for the cross-function conflict check; only
    // bound guards survive past their statement.
    for i in 0..acqs.len() {
        if acqs[i].binding.is_none() {
            continue;
        }
        for j in (i + 1)..acqs.len() {
            if acqs[i].recv == acqs[j].recv {
                continue;
            }
            let b = acqs[i].binding.as_deref().unwrap_or("");
            if dropped_between(b, acqs[i].token, acqs[j].token) {
                continue;
            }
            orders.push(LockPair {
                first: acqs[i].recv.clone(),
                second: acqs[j].recv.clone(),
                file: file.file.clone(),
                qual: f.qual.clone(),
                line: acqs[j].line,
            });
        }
    }
}

/// RA405 global pass: report each unordered pair of mutexes that two
/// functions acquire in opposite orders.
fn ra405_order_conflicts(orders: &[LockPair], out: &mut Vec<Diagnostic>) {
    let mut by_dir: BTreeMap<(&str, &str), &LockPair> = BTreeMap::new();
    for p in orders {
        by_dir.entry((&p.first, &p.second)).or_insert(p);
    }
    let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
    for (&(a, b), p) in &by_dir {
        let key = if a < b { (a, b) } else { (b, a) };
        if reported.contains(&key) {
            continue;
        }
        if let Some(q) = by_dir.get(&(b, a)) {
            reported.insert(key);
            // Deterministic site choice: the lexicographically later
            // (file, line) of the two conflicting acquisitions.
            let (site, other) = if (&p.file, p.line) >= (&q.file, q.line) {
                (p, q)
            } else {
                (q, p)
            };
            out.push(
                Diagnostic::new(
                    "RA405",
                    format!(
                        "`{}` then `{}` locked here in `{}`, but `{}` locks them in the \
                         opposite order",
                        site.first, site.second, site.qual, other.qual
                    ),
                    format!("{}:{}", site.file, site.line),
                )
                .with_note(
                    "two lock orders can deadlock under contention; pick one global order \
                     and acquire in it everywhere",
                ),
            );
        }
    }
}

/// RA406: panic sources in functions reachable from the serving roots.
fn ra406_panic_sources(file: &FileItems, f: &FnItem, out: &mut Vec<Diagnostic>) {
    let lexed = &file.lexed;
    for site in call_sites(lexed, f.body.clone()) {
        if site.is_method && matches!(site.name.as_str(), "unwrap" | "expect") {
            out.push(
                Diagnostic::new(
                    "RA406",
                    format!("`.{}()` on the serving path in `{}`", site.name, f.qual),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "a panic here takes down the request; return the error or document the \
                     invariant that rules it out",
                ),
            );
        }
    }
    for site in macro_sites(lexed, f.body.clone()) {
        if matches!(site.name.as_str(), "panic" | "unreachable") {
            out.push(
                Diagnostic::new(
                    "RA406",
                    format!(
                        "`{}!` reachable on the serving path in `{}`",
                        site.name, f.qual
                    ),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "a panic here takes down the request; return the error or document the \
                     invariant that rules it out",
                ),
            );
        }
    }
    // Arithmetic indexing (`m[r * n + c]`): one capped finding per
    // function with a site count, so kernel-heavy bodies don't flood
    // the report — the count still changes the fingerprint when sites
    // are added.
    let mut arith_sites = 0usize;
    let mut first_line = 0u32;
    let mut k = f.body.start;
    while k < f.body.end {
        let indexish = lexed.is_punct(k, '[')
            && k > 0
            && (lexed.kind(k - 1) == Some(TokenKind::Ident)
                || lexed.is_punct(k - 1, ')')
                || lexed.is_punct(k - 1, ']'));
        if indexish {
            let end = match_bracket(lexed, k, '[', ']');
            let arith = (k + 1..end).any(|j| {
                lexed.is_punct(j, '+') || lexed.is_punct(j, '-') || lexed.is_punct(j, '*')
            });
            if arith {
                arith_sites += 1;
                if first_line == 0 {
                    first_line = lexed.line(k);
                }
            }
            k = if end > k { end + 1 } else { k + 1 };
            continue;
        }
        k += 1;
    }
    if arith_sites > 0 {
        out.push(
            Diagnostic::new(
                "RA406",
                format!(
                    "arithmetic indexing ({arith_sites} site{}) on the serving path in `{}`",
                    if arith_sites == 1 { "" } else { "s" },
                    f.qual
                ),
                format!("{}:{first_line}", file.file),
            )
            .with_note(
                "computed indices can leave bounds and panic; prefer get()/chunks() or \
                 assert the bound once at entry",
            ),
        );
    }
}

/// RA408: unbounded reads and blocking sleeps on serving-reachable
/// functions.
///
/// An HTTP handler that calls `read_to_end`/`read_to_string` on a
/// socket lets one slow or malicious client allocate without bound
/// and pin a shard for the stream timeout; a `thread::sleep` on the
/// same path stalls every request batched behind it. Both are flagged
/// only where the serving call graph can reach them. The read check
/// is suppressed when the body mentions `take` — `reader.take(limit)`
/// is the sanctioned way to bound a read — and skips
/// `fs::read_to_string`-style qualified calls, which read local files
/// the operator controls, not peer-controlled streams.
fn ra408_unbounded_io(file: &FileItems, f: &FnItem, out: &mut Vec<Diagnostic>) {
    let lexed = &file.lexed;
    let body_has_take = f
        .body
        .clone()
        .any(|k| lexed.kind(k) == Some(TokenKind::Ident) && lexed.text(k) == "take");
    for site in call_sites(lexed, f.body.clone()) {
        let unbounded_read = matches!(site.name.as_str(), "read_to_end" | "read_to_string")
            && (site.is_method || site.qualifier.as_deref() == Some("Read"))
            && !body_has_take;
        if unbounded_read {
            out.push(
                Diagnostic::new(
                    "RA408",
                    format!(
                        "unbounded `{}` on the serving path in `{}`",
                        site.name, f.qual
                    ),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "a peer-fed reader can grow without limit; wrap it in `Read::take(max)` \
                     or read a length-checked body instead",
                ),
            );
        }
        if matches!(site.name.as_str(), "sleep" | "sleep_ms") {
            out.push(
                Diagnostic::new(
                    "RA408",
                    format!(
                        "blocking `{}` on the serving path in `{}`",
                        site.name, f.qual
                    ),
                    format!("{}:{}", file.file, site.line),
                )
                .with_note(
                    "a sleep here stalls the whole shard and every batched request behind \
                     this one; use socket timeouts or the queue's deadline wait instead",
                ),
            );
        }
    }
}

/// RA409: raw clock reads on serving-reachable functions.
///
/// The serving layer's lifecycle stamps, uptime gauge and drift
/// windows all run on one injected `Clock`, which is what lets tests
/// drive them deterministically with a virtual clock. A raw
/// `Instant::now()`/`SystemTime::now()` on the same path is a second
/// time source the virtual clock cannot move, so the behavior it feeds
/// (deadlines, stamps, expiry) silently diverges from what tests see. The obs crate (which *implements* the clock
/// abstraction over `Instant`) and the bench harness are exempt.
fn ra409_raw_clock_reads(file: &FileItems, f: &FnItem, out: &mut Vec<Diagnostic>) {
    if file.file.contains("obs/") || file.file.contains("bench") {
        return;
    }
    let lexed = &file.lexed;
    for site in call_sites(lexed, f.body.clone()) {
        let source = match (site.qualifier.as_deref(), site.name.as_str()) {
            (Some(q @ ("Instant" | "SystemTime")), "now") => format!("{q}::now"),
            _ => continue,
        };
        out.push(
            Diagnostic::new(
                "RA409",
                format!(
                    "raw `{source}` on the serving path in `{}` bypasses the injectable Clock",
                    f.qual
                ),
                format!("{}:{}", file.file, site.line),
            )
            .with_note(
                "lifecycle stamps, the uptime gauge and drift windows run on the injected \
                 Clock; thread the server's Arc<dyn Clock> (clock.now_ticks()) here so \
                 virtual-clock tests can drive this path too",
            ),
        );
    }
}

/// RA410: loops on the hot graph with no attribution site.
///
/// The continuous profiler can only attribute cost to stages that
/// announce themselves — a `span!` guard, a `Profiler::record` call, or
/// anything else routed through `recipe_obs`. A loop on the serving or
/// artifact call graph whose enclosing function carries none of that
/// evidence is a cost sink the collapsed-stack profile folds into its
/// parent: a regression there shows up in `bench-diff` percentiles but
/// no stage path names it. One finding per function, anchored at the
/// first loop keyword; the obs crate (which implements the profiler)
/// and the bench harness are exempt.
fn ra410_unattributed_hot_loop(file: &FileItems, f: &FnItem, out: &mut Vec<Diagnostic>) {
    if file.file.contains("obs/") || file.file.contains("bench") {
        return;
    }
    let lexed = &file.lexed;
    let mut first_loop: Option<usize> = None;
    let mut attributed = false;
    for k in f.body.clone() {
        if lexed.kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        let text = lexed.text(k);
        if first_loop.is_none() && matches!(text, "for" | "while" | "loop") {
            first_loop = Some(k);
        }
        // Attribution evidence: span guards, instanced profilers or
        // anything qualified through the obs crate. Case-insensitive
        // fragment matching keeps wrappers (`span_guard`,
        // `profiled_extract`) and types (`Profiler`) counted.
        let lower = text.to_ascii_lowercase();
        if lower.contains("span") || lower.contains("profil") || text == "recipe_obs" {
            attributed = true;
        }
    }
    let Some(at) = first_loop else { return };
    if attributed {
        return;
    }
    out.push(
        Diagnostic::new(
            "RA410",
            format!(
                "unattributed hot loop in `{}` on the serving/artifact graph",
                f.qual
            ),
            format!("{}:{}", file.file, lexed.line(at)),
        )
        .with_note(
            "the profiler folds this loop's cost into its caller, so a regression here \
             reaches bench-diff as an unnamed percentile shift; wrap the stage in a \
             `recipe_obs` span (or record it on the shard's Profiler) so collapsed-stack \
             profiles and stage diffs can attribute it",
        ),
    );
}

/// Byte-reinterpretation calls: each one turns raw bytes into typed
/// values, so its result is only as trustworthy as the bytes.
const REINTERP_CALLS: &[&str] = &[
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    "transmute",
    "from_raw_parts",
    "align_to",
];

/// Identifier fragments that count as validation evidence on a load
/// path: a magic check, a checksum, a schema-version gate, or an
/// explicit validate/verify call anywhere in the entry's reachable set.
const VALIDATION_FRAGMENTS: &[&str] = &[
    "magic",
    "crc",
    "checksum",
    "schema_version",
    "validate",
    "verify",
];

/// RA407: a deserialization entry point (`load*`/`parse*`) whose
/// forward-reachable call graph reinterprets raw bytes
/// (`from_le_bytes`, `transmute`, …) while neither the entry nor
/// anything it reaches shows validation evidence (magic, checksum,
/// schema version, validate/verify). Flagging the *entry* rather than
/// each reinterpretation site keeps validated decoders (where one
/// header check covers thousands of reads) clean without per-site
/// suppressions.
fn ra407_unchecked_reinterpretation(g: &CallGraph<'_>, out: &mut Vec<Diagnostic>) {
    for id in 0..g.fns.len() {
        let (file, f) = g.item(id);
        if f.in_test
            || f.body.is_empty()
            || !(f.name.starts_with("load") || f.name.starts_with("parse"))
        {
            continue;
        }
        let reach = g.reachable_from(&[id]);
        let mut reinterp: Option<String> = None;
        let mut evidence = false;
        for rid in 0..g.fns.len() {
            if !reach[rid] {
                continue;
            }
            let (rfile, rf) = g.item(rid);
            for k in rf.body.clone() {
                if rfile.lexed.kind(k) != Some(TokenKind::Ident) {
                    continue;
                }
                let text = rfile.lexed.text(k);
                if REINTERP_CALLS.contains(&text) && reinterp.is_none() {
                    reinterp = Some(text.to_string());
                }
                let lower = text.to_ascii_lowercase();
                if VALIDATION_FRAGMENTS.iter().any(|frag| lower.contains(frag)) {
                    evidence = true;
                }
            }
        }
        if let (Some(call), false) = (reinterp, evidence) {
            out.push(
                Diagnostic::new(
                    "RA407",
                    format!(
                        "`{}` reinterprets raw bytes (`{call}`) with no reachable validation",
                        f.qual
                    ),
                    format!("{}:{}", file.file, file.lexed.line(f.signature.start)),
                )
                .with_note(
                    "corrupt or truncated input flows straight into typed values; check a \
                     magic number, schema version or checksum before decoding (any reachable \
                     magic/crc/checksum/schema_version/validate/verify identifier counts)",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let mut ws = Workspace::default();
        ws.files.push(parse_file("m.rs", src));
        lint_dataflow(&ws)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ra401_fires_on_hash_iteration_into_serialization() {
        let src = "\
use std::collections::HashMap;
pub fn save_counts(counts: &HashMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in counts {
        out.push_str(&serde_json::to_string(&(k, v)).unwrap_or_default());
    }
    out
}
";
        let diags = lint(src);
        assert!(codes(&diags).contains(&"RA401"), "{diags:?}");
        assert_eq!(
            diags.iter().find(|d| d.code == "RA401").unwrap().location,
            "m.rs:4"
        );
    }

    #[test]
    fn ra401_respects_sorting_and_btree() {
        let sorted = "\
use std::collections::HashMap;
pub fn save_counts(counts: &HashMap<String, u64>) -> String {
    let mut rows: Vec<_> = counts.iter().collect();
    rows.sort();
    serde_json::to_string(&rows).unwrap_or_default()
}
";
        let diags = lint(sorted);
        assert!(!codes(&diags).contains(&"RA401"), "{diags:?}");
    }

    #[test]
    fn ra402_fires_only_on_artifact_paths_and_skips_telemetry() {
        let src = "\
pub fn extract_summary() -> u64 { stamp() + telemetry_stamp() }
fn stamp() -> u64 {
    SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
fn unrelated() -> u64 {
    SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
fn telemetry_stamp() -> u64 {
    if recipe_obs::enabled() { SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0) } else { 0 }
}
";
        let diags = lint(src);
        let ra402: Vec<_> = diags.iter().filter(|d| d.code == "RA402").collect();
        assert_eq!(ra402.len(), 1, "{diags:?}");
        assert_eq!(ra402[0].location, "m.rs:3");
        assert!(ra402[0].message.contains("stamp"), "{diags:?}");
    }

    #[test]
    fn ra403_fires_on_spawn_join_accumulation() {
        let src = "\
pub fn train() -> f64 {
    let mut handles = Vec::new();
    for c in 0..4 {
        handles.push(std::thread::spawn(move || c as f64 * 0.5));
    }
    let mut total = 0.0f64;
    for h in handles {
        total += h.join().unwrap_or(0.0);
    }
    total
}
";
        let diags = lint(src);
        assert!(codes(&diags).contains(&"RA403"), "{diags:?}");
    }

    #[test]
    fn ra403_quiet_when_routed_through_ordered_reduce() {
        let src = "\
pub fn train(rt: &Runtime, xs: &[f64]) -> f64 {
    rt.par_map_reduce(xs, |x| x * 0.5, 0.0, |a, b| a + b)
}
";
        let diags = lint(src);
        assert!(!codes(&diags).contains(&"RA403"), "{diags:?}");
    }

    #[test]
    fn ra404_fires_on_relaxed_publication_store_only() {
        let src = "\
fn publish(ready: &AtomicBool, threads: &AtomicUsize) {
    ready.store(true, Ordering::Relaxed);
    threads.store(4, Ordering::Relaxed);
    ready.store(true, Ordering::Release);
}
";
        let diags = lint(src);
        let ra404: Vec<_> = diags.iter().filter(|d| d.code == "RA404").collect();
        assert_eq!(ra404.len(), 1, "{diags:?}");
        assert_eq!(ra404[0].location, "m.rs:2");
    }

    #[test]
    fn ra405_fires_on_opposite_lock_orders() {
        let src = "\
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock();
    let ga = a.lock();
    drop(ga);
    drop(gb);
}
";
        let diags = lint(src);
        let ra405: Vec<_> = diags.iter().filter(|d| d.code == "RA405").collect();
        assert_eq!(ra405.len(), 1, "{diags:?}");
        assert!(ra405[0].message.contains("opposite order"), "{diags:?}");
    }

    #[test]
    fn ra405_fires_on_lock_across_dispatch_and_respects_drop() {
        let held = "\
fn f(state: &Mutex<u32>, rt: &Runtime, xs: &[u32]) {
    let g = state.lock();
    rt.par_map(xs, |x| x + 1);
}
";
        let diags = lint(held);
        assert!(codes(&diags).contains(&"RA405"), "{diags:?}");

        let dropped = "\
fn f(state: &Mutex<u32>, rt: &Runtime, xs: &[u32]) {
    let g = state.lock();
    drop(g);
    rt.par_map(xs, |x| x + 1);
}
";
        let diags = lint(dropped);
        assert!(!codes(&diags).contains(&"RA405"), "{diags:?}");
    }

    #[test]
    fn ra406_reports_panic_sources_only_on_serving_paths() {
        let src = "\
pub fn decode(xs: &[u32], table: &[u32]) -> u32 {
    let first = xs.first().unwrap();
    helper(*first, table)
}
fn helper(x: u32, table: &[u32]) -> u32 {
    table[x as usize * 2 + 1]
}
fn offline(xs: &[u32]) -> u32 {
    xs.first().unwrap_or(&0) + xs[0]
}
";
        let diags = lint(src);
        let ra406: Vec<_> = diags.iter().filter(|d| d.code == "RA406").collect();
        // decode's unwrap + helper's arithmetic index; `offline` is not
        // serving-reachable and its plain `xs[0]` has no arithmetic.
        assert_eq!(ra406.len(), 2, "{diags:?}");
        assert!(
            ra406.iter().any(|d| d.message.contains("unwrap")),
            "{diags:?}"
        );
        assert!(
            ra406
                .iter()
                .any(|d| d.message.contains("arithmetic indexing")),
            "{diags:?}"
        );
    }

    #[test]
    fn ra407_fires_on_unchecked_load_entry() {
        let src = "\
pub fn load_header(buf: &[u8]) -> u32 {
    read_u32(buf, 0)
}
fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(raw)
}
";
        let diags = lint(src);
        let ra407: Vec<_> = diags.iter().filter(|d| d.code == "RA407").collect();
        assert_eq!(ra407.len(), 1, "{diags:?}");
        assert_eq!(ra407[0].location, "m.rs:1");
        assert!(ra407[0].message.contains("load_header"), "{diags:?}");
        assert!(ra407[0].message.contains("from_le_bytes"), "{diags:?}");
    }

    #[test]
    fn ra407_quiet_with_reachable_validation_evidence() {
        // The entry itself has no check, but a reachable callee touches
        // the magic constant and a checksum — that is the sanctioned
        // "validate once at the container boundary" shape.
        let src = "\
pub fn load_header(buf: &[u8]) -> u32 {
    check_container(buf);
    read_u32(buf, 0)
}
fn check_container(buf: &[u8]) {
    assert_eq!(&buf[..8], MAGIC);
    assert_eq!(crc32(&buf[8..]), read_u32(buf, 4));
}
fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(raw)
}
";
        let diags = lint(src);
        assert!(!codes(&diags).contains(&"RA407"), "{diags:?}");
    }

    #[test]
    fn ra407_ignores_non_load_entries_and_plain_parsers() {
        // A helper that is not a load/parse entry point never fires,
        // and a parse that never reinterprets bytes never fires.
        let src = "\
pub fn decode_row(buf: &[u8]) -> u32 {
    u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]])
}
pub fn parse_name(s: &str) -> String {
    s.trim().to_string()
}
";
        let diags = lint(src);
        assert!(!codes(&diags).contains(&"RA407"), "{diags:?}");
    }

    #[test]
    fn ra408_fires_on_unbounded_read_in_handler() {
        let src = "\
pub fn handle_extract(stream: &mut TcpStream) -> Vec<u8> {
    let mut body = Vec::new();
    stream.read_to_end(&mut body).ok();
    body
}
";
        let diags = lint(src);
        let ra408: Vec<_> = diags.iter().filter(|d| d.code == "RA408").collect();
        assert_eq!(ra408.len(), 1, "{diags:?}");
        assert_eq!(ra408[0].location, "m.rs:3");
        assert!(ra408[0].message.contains("read_to_end"), "{diags:?}");
    }

    #[test]
    fn ra408_quiet_with_take_bound_and_off_serving_path() {
        // `take(limit)` bounds the read; a fn nothing serving reaches
        // never fires at all.
        let src = "\
pub fn handle_extract(stream: &mut TcpStream) -> String {
    let mut body = String::new();
    stream.take(1024).read_to_string(&mut body).ok();
    body
}
fn offline_slurp(stream: &mut TcpStream) -> Vec<u8> {
    let mut body = Vec::new();
    stream.read_to_end(&mut body).ok();
    body
}
";
        let diags = lint(src);
        assert!(!codes(&diags).contains(&"RA408"), "{diags:?}");
    }

    #[test]
    fn ra408_fires_on_sleep_but_skips_fs_reads() {
        // A blocking sleep on the handler path fires; a qualified
        // `fs::read_to_string` reads an operator-controlled file, not a
        // peer-fed stream, and stays quiet.
        let src = "\
pub fn handle_reload(path: &str) -> String {
    std::thread::sleep(std::time::Duration::from_millis(5));
    std::fs::read_to_string(path).unwrap_or_default()
}
";
        let diags = lint(src);
        let ra408: Vec<_> = diags.iter().filter(|d| d.code == "RA408").collect();
        assert_eq!(ra408.len(), 1, "{diags:?}");
        assert_eq!(ra408[0].location, "m.rs:2");
        assert!(ra408[0].message.contains("sleep"), "{diags:?}");
    }

    #[test]
    fn ra409_fires_on_raw_clock_reads_in_serving_reachable_fns() {
        let src = "\
pub fn handle_extract(req: &[u8]) -> u64 {
    let started = Instant::now();
    stamp() + started.elapsed().as_secs() + req.len() as u64
}
fn stamp() -> u64 {
    SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)
}
fn offline() -> u64 {
    Instant::now().elapsed().as_secs()
}
";
        let diags = lint(src);
        let ra409: Vec<_> = diags.iter().filter(|d| d.code == "RA409").collect();
        // The handler's own read plus the reachable helper's; `offline`
        // is not on the serving call graph.
        assert_eq!(ra409.len(), 2, "{diags:?}");
        assert_eq!(ra409[0].location, "m.rs:2");
        assert!(ra409[0].message.contains("Instant::now"), "{diags:?}");
        assert_eq!(ra409[1].location, "m.rs:6");
        assert!(ra409[1].message.contains("SystemTime::now"), "{diags:?}");
    }

    #[test]
    fn ra409_quiet_through_injected_clock_and_in_obs_files() {
        let clock_routed = "\
pub fn handle_extract(clock: &Arc<dyn Clock>, req: &[u8]) -> u64 {
    let started = clock.now_ticks();
    clock.now_ticks() - started + req.len() as u64
}
";
        let diags = lint(clock_routed);
        assert!(!codes(&diags).contains(&"RA409"), "{diags:?}");

        // The obs crate implements the Clock abstraction over Instant,
        // so its own files are exempt.
        let mut ws = Workspace::default();
        ws.files.push(parse_file(
            "crates/obs/src/window.rs",
            "pub fn handle_ticks() -> u64 { Instant::now().elapsed().as_micros() as u64 }\n",
        ));
        let diags = lint_dataflow(&ws);
        assert!(!codes(&diags).contains(&"RA409"), "{diags:?}");
    }

    #[test]
    fn ra410_fires_on_unattributed_loops_in_hot_fns() {
        let src = "\
pub fn handle_extract(req: &[u8]) -> u64 {
    let mut acc = 0;
    for b in req {
        acc += *b as u64;
    }
    acc + helper(req)
}
fn helper(req: &[u8]) -> u64 {
    let mut n = 0;
    while n < req.len() as u64 {
        n += 1;
    }
    n
}
fn offline(req: &[u8]) -> u64 {
    let mut acc = 0;
    for b in req {
        acc += *b as u64;
    }
    acc
}
";
        let diags = lint(src);
        let ra410: Vec<_> = diags.iter().filter(|d| d.code == "RA410").collect();
        // One finding per hot function, at the first loop keyword;
        // `offline` is on neither the serving nor the artifact graph.
        assert_eq!(ra410.len(), 2, "{diags:?}");
        assert_eq!(ra410[0].location, "m.rs:3");
        assert!(ra410[0].message.contains("handle_extract"), "{diags:?}");
        assert_eq!(ra410[1].location, "m.rs:10");
        assert!(ra410[1].message.contains("helper"), "{diags:?}");
    }

    #[test]
    fn ra410_quiet_with_span_evidence_and_in_obs_files() {
        let spanned = "\
pub fn handle_extract(req: &[u8]) -> u64 {
    let _span = recipe_obs::span::enter(\"extract\");
    let mut acc = 0;
    for b in req {
        acc += *b as u64;
    }
    acc
}
";
        let diags = lint(spanned);
        assert!(!codes(&diags).contains(&"RA410"), "{diags:?}");

        let profiled = "\
pub fn handle_extract(profiler: &Profiler, req: &[u8]) -> u64 {
    let mut acc = 0;
    for b in req {
        acc += *b as u64;
    }
    profiler.record(&[\"serve\", \"extract\"], acc);
    acc
}
";
        let diags = lint(profiled);
        assert!(!codes(&diags).contains(&"RA410"), "{diags:?}");

        let loopless = "\
pub fn handle_extract(req: &[u8]) -> u64 {
    req.len() as u64
}
";
        let diags = lint(loopless);
        assert!(!codes(&diags).contains(&"RA410"), "{diags:?}");

        // The obs crate implements the profiler itself: exempt.
        let mut ws = Workspace::default();
        ws.files.push(parse_file(
            "crates/obs/src/profile.rs",
            "pub fn handle_cells(xs: &[u64]) -> u64 {\n    \
                 let mut acc = 0;\n    \
                 for x in xs { acc += *x; }\n    \
                 acc\n\
             }\n",
        ));
        let diags = lint_dataflow(&ws);
        assert!(!codes(&diags).contains(&"RA410"), "{diags:?}");
    }

    #[test]
    fn hash_bindings_sees_decls_params_and_constructors() {
        let src = "\
fn f(m: &HashMap<u32, u32>) {
    let mut s = HashSet::new();
    let t: std::collections::HashMap<u32, u32> = Default::default();
    s.insert(1);
    t.len();
    m.len();
}
";
        let file = parse_file("m.rs", src);
        let names = hash_bindings(&file.lexed, &file.fns[0]);
        let names: Vec<_> = names.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["m", "s", "t"]);
    }
}
