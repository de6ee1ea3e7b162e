//! Prediction provenance: why the pipeline decided what it decided.
//!
//! Inside a provenance scope (the CLI `--explain` flag, the `explain`
//! subcommand, the server's `/explain` and its drift samples), decision
//! sites in the compiled decode paths record *why* each prediction
//! happened:
//!
//! - `viterbi.margin` — per-token score margin (best minus runner-up
//!   accumulated Viterbi score) from the compiled NER decoders; small
//!   margins flag low-confidence tags.
//! - `tagger.margin` — per-token margin from the compiled POS tagger,
//!   with `detail` distinguishing tag-dictionary short-circuits
//!   (`"tagdict"`, no margin) from scored predictions (`"model"`).
//! - `cache.lookup` — phrase/sentence cache hit-or-miss origin, so an
//!   explained result can be traced to a fresh decode or a cached one.
//! - `dict.decision` — dictionary accept/reject outcomes (the paper's
//!   Table V process/utensil thresholds), with `detail` naming what
//!   backed the acceptance (`"dictionary"`, `"ner"`, or `"none"`).
//!
//! A scope is a [`Recorder`] installed on the thread that asked for it
//! ([`capture`], [`Capture`]); the runtime installs the caller's
//! recorder in each worker it dispatches to ([`current`], [`install`]).
//! Nothing is shared between scopes, so concurrent requests never see
//! each other's decisions, and a thread outside any scope pays one
//! thread-local read per decision site.
//!
//! Recording is bounded (at most [`CAPACITY`] records per scope) and
//! **canonical**: [`Capture::finish`] sorts by every field and
//! de-duplicates, so the exported block is identical whatever the
//! worker-thread interleaving — the same determinism contract as the
//! rest of the crate. Records carry no timestamps for the same reason.
//! Provenance is observational only: decision sites compute margins
//! from values the decode already produced and never influence any
//! result.

use serde_json::{json, Value};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

/// Maximum records one scope retains; further records are discarded.
/// A full `mine` over the bundled corpus stays well under this.
pub const CAPACITY: usize = 1 << 18;

/// One recorded decision. All label fields are static site names except
/// `subject` (the token/phrase/word the decision was about) and
/// `decision` (the chosen outcome, e.g. a tag name or `hit`/`miss`).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What kind of decision: `viterbi.margin`, `tagger.margin`,
    /// `cache.lookup`, or `dict.decision`.
    pub kind: &'static str,
    /// Where it happened: `ner.ingredient`, `ner.instruction`,
    /// `tagger.pos`, `cache.ingredient`, `cache.events`,
    /// `dicts.process`, `dicts.utensil`.
    pub site: &'static str,
    /// The token, word, or phrase the decision concerned.
    pub subject: String,
    /// The outcome (predicted tag, `hit`/`miss`, `accept`/`reject`).
    pub decision: String,
    /// Qualifier for the outcome (`model`/`tagdict`, `dictionary`/
    /// `ner`/`none`), empty when not applicable.
    pub detail: String,
    /// Token position within its phrase/sentence (0 when positionless).
    pub index: usize,
    /// Score margin (best minus runner-up), when the site computes one.
    /// Non-finite margins (single-label models) are recorded as `None`.
    pub margin: Option<f64>,
}

impl Record {
    fn sort_key(&self) -> (&str, usize, &str, &str, &str, &str, u64) {
        (
            self.site,
            self.index,
            self.subject.as_str(),
            self.kind,
            self.decision.as_str(),
            self.detail.as_str(),
            self.margin.unwrap_or(f64::NEG_INFINITY).to_bits(),
        )
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "kind": self.kind,
            "site": self.site,
            "subject": self.subject,
            "decision": self.decision,
            "detail": self.detail,
            "index": self.index as u64,
            "margin": self.margin.filter(|m| m.is_finite()),
        })
    }
}

/// A bounded sink for one scope's records: at most [`CAPACITY`]; later
/// records are discarded. It is shared by the thread that opened the
/// scope and the runtime workers that thread dispatches to, so it
/// locks; only scopes that asked for provenance ever reach it.
#[derive(Debug, Default)]
pub struct Recorder {
    records: Mutex<Vec<Record>>,
}

impl Recorder {
    fn records(&self) -> MutexGuard<'_, Vec<Record>> {
        self.records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn push(&self, r: Record) {
        let mut records = self.records();
        if records.len() < CAPACITY {
            records.push(r);
        }
    }

    /// Take all records in canonical order: sorted by every field and
    /// de-duplicated. Duplicates arise when concurrent workers race on
    /// the same cache miss and decode the same phrase twice — the set
    /// of decisions is what provenance reports, so the canonical form
    /// is identical at any thread count.
    fn drain(&self) -> Vec<Record> {
        let mut records = std::mem::take(&mut *self.records());
        records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        records.dedup();
        records
    }
}

thread_local! {
    /// The recorder decision sites on this thread record into; `None`
    /// (the default) means no scope on this thread asked for provenance.
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Whether `CURRENT` holds a recorder. Kept beside it because a
    /// `Cell<bool>` has no destructor to register, so reading it is one
    /// load.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Whether decision sites on this thread should record provenance. One
/// load of a thread-local, no lock and no atomic; instrumented sites
/// check this before computing margins.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Record one decision into this thread's recorder. No-op when none is
/// installed or the recorder is at [`CAPACITY`].
pub fn record(r: Record) {
    CURRENT.with(|c| {
        if let Some(recorder) = c.borrow().as_ref() {
            recorder.push(r);
        }
    });
}

/// This thread's recorder, for a worker thread to [`install`] so its
/// decisions land in the same scope.
pub fn current() -> Option<Arc<Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Put back the recorder that was current before [`install`].
#[must_use = "the recorder is installed only while the guard lives"]
#[derive(Debug)]
pub struct Installed {
    previous: Option<Arc<Recorder>>,
    /// Thread-bound: the guard restores *this* thread's recorder.
    _thread: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = ACTIVE.try_with(|a| a.set(previous.is_some()));
        let _ = CURRENT.try_with(|c| c.replace(previous));
    }
}

/// Make `recorder` this thread's recorder until the guard drops.
pub fn install(recorder: Option<Arc<Recorder>>) -> Installed {
    ACTIVE.with(|a| a.set(recorder.is_some()));
    Installed {
        previous: CURRENT.with(|c| c.replace(recorder)),
        _thread: PhantomData,
    }
}

/// A provenance scope: a fresh recorder, installed on the calling
/// thread from [`Capture::start`] until [`Capture::finish`] takes its
/// records. Runtime workers dispatched in between inherit it.
#[must_use = "records are collected only while the capture lives"]
#[derive(Debug)]
pub struct Capture {
    recorder: Arc<Recorder>,
    _installed: Installed,
}

impl Capture {
    /// Open a scope on the calling thread.
    pub fn start() -> Capture {
        let recorder = Arc::new(Recorder::default());
        Capture {
            _installed: install(Some(Arc::clone(&recorder))),
            recorder,
        }
    }

    /// Close the scope and take its records in canonical order.
    pub fn finish(self) -> Vec<Record> {
        self.recorder.drain()
    }
}

/// Run `f` in a provenance scope of its own; returns its result and
/// the canonical records its decisions left.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Record>) {
    let scope = Capture::start();
    let out = f();
    (out, scope.finish())
}

/// Render records as a JSON array (one object per record).
pub fn to_json(records: &[Record]) -> Value {
    Value::Array(records.iter().map(Record::to_json).collect())
}

/// Validate a serialized provenance block: an array of objects each
/// carrying string `kind`/`site`/`subject`/`decision`/`detail`, a
/// numeric `index`, and a numeric-or-null `margin`.
pub fn validate_provenance(v: &Value) -> Result<(), String> {
    let records = v
        .as_array()
        .ok_or_else(|| "provenance must be an array".to_string())?;
    for (i, rec) in records.iter().enumerate() {
        let obj = rec
            .as_object()
            .ok_or_else(|| format!("provenance[{i}] must be an object"))?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("provenance[{i}] missing `{name}`"))
        };
        for want in ["kind", "site", "subject", "decision", "detail"] {
            if field(want)?.as_str().is_none() {
                return Err(format!("provenance[{i}].{want} must be a string"));
            }
        }
        if field("index")?.as_u64().is_none() {
            return Err(format!("provenance[{i}].index must be an integer"));
        }
        let margin = field("margin")?;
        if !margin.is_null() && margin.as_f64().is_none() {
            return Err(format!("provenance[{i}].margin must be a number or null"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(site: &'static str, subject: &str, index: usize, margin: Option<f64>) -> Record {
        Record {
            kind: "viterbi.margin",
            site,
            subject: subject.to_string(),
            decision: "ingredient-name".to_string(),
            detail: String::new(),
            index,
            margin,
        }
    }

    #[test]
    fn recording_outside_a_scope_stores_nothing() {
        assert!(!enabled());
        record(sample("ner.ingredient", "flour", 0, Some(1.5)));
        let ((), records) = capture(|| assert!(enabled()));
        assert!(records.is_empty(), "{records:?}");
        assert!(!enabled(), "the scope ended with the capture");
    }

    #[test]
    fn finish_is_sorted_and_deduplicated() {
        let ((), records) = capture(|| {
            // Same phrase decoded twice (cache-miss race) plus another
            // site, pushed out of order.
            record(sample("ner.ingredient", "flour", 1, Some(0.5)));
            record(sample("ner.ingredient", "cups", 0, Some(2.0)));
            record(sample("ner.ingredient", "flour", 1, Some(0.5)));
            record(sample("cache.ingredient", "2 cups flour", 0, None));
        });
        assert_eq!(records.len(), 3, "duplicate collapsed: {records:?}");
        assert_eq!(records[0].site, "cache.ingredient");
        assert_eq!(records[1].subject, "cups");
        assert_eq!(records[2].subject, "flour");
    }

    #[test]
    fn concurrent_scopes_see_only_their_own_records_and_workers_inherit() {
        let barrier = std::sync::Barrier::new(3);
        let (mine, theirs) = std::thread::scope(|s| {
            let scoped = |subject: &'static str| {
                let barrier = &barrier;
                s.spawn(move || {
                    let ((), records) = capture(|| {
                        barrier.wait();
                        record(sample("ner.ingredient", subject, 0, None));
                        // A worker this thread dispatches to records
                        // into the same scope.
                        let inherited = current();
                        std::thread::scope(|w| {
                            w.spawn(|| {
                                let _scope = install(inherited);
                                record(sample("ner.ingredient", subject, 1, None));
                            });
                        });
                        barrier.wait();
                    });
                    records
                })
            };
            let mine = scoped("flour");
            let theirs = scoped("sugar");
            // A thread with no recorder stores nothing, even while both
            // scopes are open.
            s.spawn(|| {
                barrier.wait();
                assert!(!enabled());
                record(sample("ner.ingredient", "salt", 0, None));
                barrier.wait();
            });
            (mine.join().unwrap(), theirs.join().unwrap())
        });
        let subjects = |records: &[Record]| -> Vec<(String, usize)> {
            records
                .iter()
                .map(|r| (r.subject.clone(), r.index))
                .collect()
        };
        assert_eq!(
            subjects(&mine),
            vec![("flour".to_string(), 0), ("flour".to_string(), 1)]
        );
        assert_eq!(
            subjects(&theirs),
            vec![("sugar".to_string(), 0), ("sugar".to_string(), 1)]
        );
    }

    #[test]
    fn nested_scopes_restore_the_outer_recorder() {
        let (inner, outer) = capture(|| {
            record(sample("ner.ingredient", "outer", 0, None));
            let ((), inner) = capture(|| record(sample("ner.ingredient", "inner", 0, None)));
            record(sample("ner.ingredient", "outer", 1, None));
            inner
        });
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].subject, "inner");
        assert_eq!(outer.len(), 2);
        assert!(outer.iter().all(|r| r.subject == "outer"), "{outer:?}");
    }

    #[test]
    fn json_round_trip_validates_and_nonfinite_margins_are_null() {
        let ((), records) = capture(|| {
            record(sample("ner.ingredient", "flour", 0, Some(f64::INFINITY)));
            record(sample("ner.ingredient", "cups", 1, Some(1.25)));
        });
        let block = to_json(&records);
        validate_provenance(&block).expect("valid block");
        assert!(block[0]["margin"].is_null(), "{block}");
        assert_eq!(block[1]["margin"], 1.25);
        // Survives a text round trip too.
        let text = serde_json::to_string(&block).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate_provenance(&back).expect("valid after round trip");
    }

    #[test]
    fn validator_rejects_malformed_blocks() {
        assert!(validate_provenance(&json!({})).is_err());
        assert!(validate_provenance(&json!([json!({"kind": "x"})])).is_err());
        assert!(validate_provenance(&json!([json!({
            "kind": "viterbi.margin", "site": "ner.ingredient",
            "subject": "flour", "decision": "name", "detail": "",
            "index": "zero", "margin": Value::Null,
        })]))
        .is_err());
        assert!(validate_provenance(&json!([json!({
            "kind": "viterbi.margin", "site": "ner.ingredient",
            "subject": "flour", "decision": "name", "detail": "",
            "index": 0, "margin": 1.5,
        })]))
        .is_ok());
    }

    #[test]
    fn a_full_recorder_stores_nothing_more() {
        let scope = Capture::start();
        scope
            .recorder
            .records()
            .extend((0..CAPACITY).map(|i| sample("ner.ingredient", "x", i, None)));
        record(sample("ner.ingredient", "overflow", 0, None));
        let records = scope.finish();
        assert_eq!(records.len(), CAPACITY);
        assert!(records.iter().all(|r| r.subject == "x"));
    }
}
