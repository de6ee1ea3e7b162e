//! Compiled inference path: sparse CSR parameters and allocation-free
//! Viterbi decoding.
//!
//! Training wants a dense, growable [`Params`] block; serving wants the
//! opposite — a frozen model in a compact layout that decodes a corpus
//! without touching the allocator. [`CompiledParams`] freezes a trained
//! parameter block into a CSR (compressed sparse row) emission table:
//! exact-zero weights are pruned and each feature's surviving
//! `(label, weight)` entries are stored contiguously, so an emission row
//! costs one pass over the feature's nonzeros instead of a pass over every
//! label of the dense block. [`CompiledSequenceModel`] bundles that with
//! the frozen interner and feature extractor so feature lookup streams
//! through [`FeatureExtractor::for_each_at`] — no feature `String` is ever
//! materialized at decode time — and [`DecodeScratch`] holds every buffer
//! Viterbi needs so a worker allocates once and reuses across a corpus.
//!
//! # Bitwise identity with the dense path
//!
//! Compiled decode is *bitwise-identical* to [`crate::decode::viterbi`]
//! over the dense parameters it was compiled from, enforced by tests here
//! and by lint rule RA208 in `recipe-analyze`:
//!
//! * The emission row accumulates weights feature-by-feature in caller
//!   order, then label-by-label within a feature — the same summation
//!   order as [`Params::emit_row_into`]. Skipping an exact-zero weight can
//!   only change a `+0.0` intermediate into `-0.0` (or vice versa); the
//!   two compare equal under every comparison Viterbi performs and produce
//!   identical sums when combined with any other value, so max/argmax
//!   decisions — and therefore the decoded label sequence — are unchanged.
//! * The Viterbi recurrence mirrors the dense implementation's comparison
//!   and tie-breaking order exactly (strict `>`, first-best wins).
//! * Feature encoding replicates [`crate::encode::encode_tokens`]:
//!   identical streaming order, `sort_unstable`, `dedup`, and silent
//!   dropping of out-of-vocabulary features.

use crate::decode::Params;
use crate::encode::Interner;
use crate::features::FeatureExtractor;
use crate::labels::LabelSet;
use crate::model::SequenceModel;
use std::sync::{Arc, OnceLock};

/// Telemetry handles for the compiled decode path, resolved once from
/// the global registry. All recording is gated on
/// [`recipe_obs::enabled`] and never affects decoded output.
pub(crate) struct DecodeMetrics {
    /// Phrases decoded through [`CompiledSequenceModel::predict_ids_into`].
    pub(crate) phrases: Arc<recipe_obs::Counter>,
    /// Tokens across those phrases.
    pub(crate) tokens: Arc<recipe_obs::Counter>,
    /// Tokens whose entire feature set was out of vocabulary.
    pub(crate) oov_tokens: Arc<recipe_obs::Counter>,
    /// Encodes served by an already-large-enough scratch arena.
    pub(crate) scratch_reuses: Arc<recipe_obs::Counter>,
    /// Encodes that had to grow the scratch arena.
    pub(crate) scratch_grows: Arc<recipe_obs::Counter>,
}

pub(crate) fn decode_metrics() -> &'static DecodeMetrics {
    static METRICS: OnceLock<DecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = recipe_obs::global();
        DecodeMetrics {
            phrases: reg.counter("ner.decode.phrases"),
            tokens: reg.counter("ner.decode.tokens"),
            oov_tokens: reg.counter("ner.decode.oov_tokens"),
            scratch_reuses: reg.counter("ner.decode.scratch_reuses"),
            scratch_grows: reg.counter("ner.decode.scratch_grows"),
        }
    })
}

/// A trained parameter block frozen into a sparse CSR emission layout.
///
/// Emission entries for feature `f` live at `labels[offsets[f]..offsets[f+1]]`
/// / `weights[..]`, sorted by label id. Transition/start/end blocks are
/// dense — they are `O(L²)` and fully populated after training.
#[derive(Debug, Clone)]
pub struct CompiledParams {
    /// Number of labels `L`.
    pub n_labels: usize,
    /// Number of features covered by the emission table.
    pub n_features: usize,
    /// CSR row offsets, length `n_features + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Label ids of the nonzero emission entries, row-major by feature.
    pub(crate) labels: Vec<u32>,
    /// Weights parallel to `labels`.
    pub(crate) weights: Vec<f64>,
    /// Dense transition weights, indexed `prev * L + next`.
    pub(crate) trans: Vec<f64>,
    /// Start-of-sequence weights, one per label.
    pub(crate) start: Vec<f64>,
    /// End-of-sequence weights, one per label.
    pub(crate) end: Vec<f64>,
}

impl CompiledParams {
    /// Freeze a dense parameter block, pruning exact-zero emission weights.
    pub fn from_params(params: &Params) -> Self {
        let l = params.n_labels;
        let n_features = if l == 0 { 0 } else { params.emit.len() / l };
        let mut offsets = Vec::with_capacity(n_features + 1);
        let mut labels = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u32);
        for f in 0..n_features {
            let base = f * l;
            for y in 0..l {
                let w = params.emit[base + y];
                if w != 0.0 {
                    labels.push(y as u32);
                    weights.push(w);
                }
            }
            offsets.push(labels.len() as u32);
        }
        CompiledParams {
            n_labels: l,
            n_features,
            offsets,
            labels,
            weights,
            trans: params.trans.clone(),
            start: params.start.clone(),
            end: params.end.clone(),
        }
    }

    /// Number of stored (nonzero) emission entries.
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Fraction of the dense emission table pruned away (0.0 when the
    /// dense table is empty).
    pub fn pruned_fraction(&self) -> f64 {
        let dense = self.n_features * self.n_labels;
        if dense == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / dense as f64
        }
    }

    /// Emission scores for one position written into `out` (length
    /// `n_labels`). Out-of-range feature ids are skipped, mirroring
    /// [`Params::emit_row_into`].
    #[inline]
    pub fn emit_row_into(&self, feats: &[u32], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_labels);
        out.fill(0.0);
        for &f in feats {
            let f = f as usize;
            if f < self.n_features {
                let lo = self.offsets[f] as usize;
                let hi = self.offsets[f + 1] as usize;
                for k in lo..hi {
                    out[self.labels[k] as usize] += self.weights[k];
                }
            }
        }
    }

    /// Viterbi decode into `scratch`/`out` without allocating (buffers in
    /// `scratch` grow on first use and are reused afterwards). `feats` is
    /// the per-position feature-id slice, `out` receives the best path.
    ///
    /// Identical comparison and tie-breaking order to
    /// [`crate::decode::viterbi`].
    pub fn viterbi_into(
        &self,
        feats: &[Vec<u32>],
        scratch: &mut DecodeScratch,
        out: &mut Vec<usize>,
    ) {
        // Provenance margins are pure reads over δ rows the decode
        // already computed; the decode itself is untouched either way.
        let explain = recipe_obs::provenance::enabled();
        scratch.margins.clear();
        out.clear();
        let n = feats.len();
        if n == 0 {
            return;
        }
        let l = self.n_labels;
        scratch.et.clear();
        scratch.et.resize(l, 0.0);
        scratch.delta_prev.clear();
        scratch.delta_prev.resize(l, 0.0);
        scratch.delta_cur.clear();
        scratch.delta_cur.resize(l, 0.0);
        scratch.back.clear();
        scratch.back.resize(n * l, 0);

        self.emit_row_into(&feats[0], &mut scratch.et);
        for y in 0..l {
            scratch.delta_prev[y] = self.start[y] + scratch.et[y];
        }
        if explain {
            scratch.margins.push(row_margin(&scratch.delta_prev));
        }
        for t in 1..n {
            self.emit_row_into(&feats[t], &mut scratch.et);
            for y in 0..l {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0usize;
                for yp in 0..l {
                    let s = scratch.delta_prev[yp] + self.trans[yp * l + y];
                    if s > best {
                        best = s;
                        arg = yp;
                    }
                }
                scratch.delta_cur[y] = best + scratch.et[y];
                scratch.back[t * l + y] = arg;
            }
            if explain {
                scratch.margins.push(row_margin(&scratch.delta_cur));
            }
            std::mem::swap(&mut scratch.delta_prev, &mut scratch.delta_cur);
        }
        let mut last = 0usize;
        let mut best = f64::NEG_INFINITY;
        for y in 0..l {
            let s = scratch.delta_prev[y] + self.end[y];
            if s > best {
                best = s;
                last = y;
            }
        }
        out.resize(n, 0);
        out[n - 1] = last;
        for t in (1..n).rev() {
            out[t - 1] = scratch.back[t * l + out[t]];
        }
    }
}

/// Best minus second-best of a Viterbi δ row: how decisively the top
/// label won at that position. Infinite when the model has one label.
pub(crate) fn row_margin(row: &[f64]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &s in row {
        if s > best {
            second = best;
            best = s;
        } else if s > second {
            second = s;
        }
    }
    best - second
}

/// Per-worker scratch arena for compiled decoding: every buffer Viterbi,
/// emission scoring and feature encoding need, allocated once and reused
/// across an entire corpus.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Per-position feature-id buffers (inner `Vec`s are reused).
    pub(crate) feats: Vec<Vec<u32>>,
    /// Emission row for the current position.
    pub(crate) et: Vec<f64>,
    /// Best path scores at the previous position.
    pub(crate) delta_prev: Vec<f64>,
    /// Best path scores at the current position.
    pub(crate) delta_cur: Vec<f64>,
    /// Backpointers, flattened `position * n_labels + label`.
    pub(crate) back: Vec<usize>,
    /// Format buffer for streaming feature extraction.
    pub(crate) scratch_str: String,
    /// Per-position δ-row margins from the last decode; filled only
    /// while provenance recording is enabled, empty otherwise.
    pub(crate) margins: Vec<f64>,
}

impl DecodeScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-position score margins (best minus runner-up δ entry) from
    /// the most recent decode. Empty unless provenance recording
    /// ([`recipe_obs::provenance::enabled`]) was on during the decode.
    /// These are forward-pass margins per position, not margins of the
    /// globally decoded path.
    pub fn margins(&self) -> &[f64] {
        &self.margins
    }
}

/// A [`SequenceModel`] frozen for serving: CSR parameters plus the frozen
/// interner and extractor, decoding through a caller-owned
/// [`DecodeScratch`].
#[derive(Debug, Clone)]
pub struct CompiledSequenceModel {
    pub(crate) labels: LabelSet,
    pub(crate) extractor: FeatureExtractor,
    pub(crate) interner: Interner,
    pub(crate) params: CompiledParams,
}

impl CompiledSequenceModel {
    /// Compile a trained model. The compiled model snapshots the weights:
    /// later mutation of `model` (e.g. via `params_mut`) is not reflected.
    pub fn compile(model: &SequenceModel) -> Self {
        CompiledSequenceModel {
            labels: model.labels().clone(),
            extractor: model.extractor().clone(),
            interner: model.interner().clone(),
            params: CompiledParams::from_params(model.params()),
        }
    }

    /// The model's label inventory.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// The frozen CSR parameter block.
    pub fn params(&self) -> &CompiledParams {
        &self.params
    }

    /// Encode `tokens` into per-position feature ids inside `scratch`,
    /// replicating [`crate::encode::encode_tokens`] exactly (same feature
    /// order, sort, dedup, and unknown-feature dropping) with zero
    /// allocation after warm-up.
    fn encode_into(&self, tokens: &[String], scratch: &mut DecodeScratch) {
        let trace = recipe_obs::enabled();
        let grew = scratch.feats.len() < tokens.len();
        if grew {
            scratch.feats.resize_with(tokens.len(), Vec::new);
        }
        let DecodeScratch {
            feats, scratch_str, ..
        } = scratch;
        let mut oov = 0u64;
        for (i, ids) in feats.iter_mut().enumerate().take(tokens.len()) {
            ids.clear();
            self.extractor.for_each_at(tokens, i, scratch_str, |f| {
                if let Some(id) = self.interner.get(f) {
                    ids.push(id);
                }
            });
            ids.sort_unstable();
            ids.dedup();
            if ids.is_empty() {
                oov += 1;
            }
        }
        if trace {
            let m = decode_metrics();
            m.tokens.add(tokens.len() as u64);
            m.oov_tokens.add(oov);
            if grew {
                m.scratch_grows.inc();
            } else {
                m.scratch_reuses.inc();
            }
        }
    }

    /// Predict dense label ids into `out`, reusing `scratch` for every
    /// intermediate buffer. Bitwise-identical to
    /// [`SequenceModel::predict_ids`] on the model this was compiled from.
    pub fn predict_ids_into(
        &self,
        tokens: &[String],
        scratch: &mut DecodeScratch,
        out: &mut Vec<usize>,
    ) {
        let _span = recipe_obs::span!("ner.decode");
        if recipe_obs::enabled() {
            decode_metrics().phrases.inc();
        }
        self.encode_into(tokens, scratch);
        // Split the borrow: feats is read-only during decoding while the
        // numeric buffers are written.
        let feats = std::mem::take(&mut scratch.feats);
        self.params
            .viterbi_into(&feats[..tokens.len()], scratch, out);
        scratch.feats = feats;
    }

    /// Predict label names (allocating convenience wrapper used by tests
    /// and lints; hot paths call [`Self::predict_ids_into`]).
    pub fn predict(&self, tokens: &[String]) -> Vec<String> {
        let mut scratch = DecodeScratch::new();
        let mut ids = Vec::new();
        self.predict_ids_into(tokens, &mut scratch, &mut ids);
        ids.into_iter()
            .map(|id| self.labels.name(id).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::viterbi;
    use crate::model::{TrainConfig, Trainer};

    fn tiny_params() -> Params {
        let mut p = Params::zeros(6, 3);
        for (i, w) in p.emit.iter_mut().enumerate() {
            // Mix of zeros and nonzeros so pruning actually prunes.
            *w = if i % 3 == 0 {
                0.0
            } else {
                ((i * 7919 % 13) as f64 - 6.0) / 3.0
            };
        }
        for (i, w) in p.trans.iter_mut().enumerate() {
            *w = ((i * 104729 % 11) as f64 - 5.0) / 4.0;
        }
        p.start = vec![0.3, -0.2, 0.1];
        p.end = vec![-0.1, 0.4, 0.0];
        p
    }

    #[test]
    fn csr_emission_rows_match_dense_bits_up_to_zero_sign() {
        let p = tiny_params();
        let c = CompiledParams::from_params(&p);
        assert!(c.nnz() < p.emit.len(), "pruning removed nothing");
        let mut dense = vec![0.0f64; 3];
        let mut sparse = vec![0.0f64; 3];
        let cases: Vec<Vec<u32>> = vec![vec![], vec![0], vec![5, 1, 0], vec![2, 2, 4], vec![99]];
        for feats in &cases {
            p.emit_row_into(feats, &mut dense);
            c.emit_row_into(feats, &mut sparse);
            for (d, s) in dense.iter().zip(&sparse) {
                // Equal as numbers; zero-sign may legitimately differ.
                assert_eq!(d, s, "feats {feats:?}");
            }
        }
    }

    #[test]
    fn compiled_viterbi_matches_dense_viterbi_exactly() {
        let p = tiny_params();
        let c = CompiledParams::from_params(&p);
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![],
            vec![vec![1]],
            vec![vec![0, 2], vec![1], vec![5, 0], vec![2]],
            vec![vec![99], vec![0], vec![3, 4]],
        ];
        for feats in &cases {
            c.viterbi_into(feats, &mut scratch, &mut out);
            assert_eq!(out, viterbi(&p, feats), "feats {feats:?}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_inputs() {
        let p = tiny_params();
        let c = CompiledParams::from_params(&p);
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        // Long input first, then shorter ones: stale buffer contents from
        // the long decode must not influence the short ones.
        let long: Vec<Vec<u32>> = (0..12).map(|i| vec![i % 6]).collect();
        c.viterbi_into(&long, &mut scratch, &mut out);
        assert_eq!(out, viterbi(&p, &long));
        for feats in [vec![vec![3u32]], vec![vec![2], vec![0, 1]]] {
            c.viterbi_into(&feats, &mut scratch, &mut out);
            assert_eq!(out, viterbi(&p, &feats), "feats {feats:?}");
        }
    }

    #[test]
    fn compiled_model_predictions_match_reference() {
        let labels = LabelSet::new(&["O", "NAME", "QUANTITY", "UNIT"]);
        let seq = |tokens: &[&str], tags: &[&str]| {
            (
                tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                tags.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        let data = vec![
            seq(&["2", "cups", "flour"], &["QUANTITY", "UNIT", "NAME"]),
            seq(&["1", "pinch", "salt"], &["QUANTITY", "UNIT", "NAME"]),
            seq(
                &["3", "tablespoons", "butter"],
                &["QUANTITY", "UNIT", "NAME"],
            ),
        ];
        for trainer in [Trainer::Crf, Trainer::Perceptron] {
            let cfg = TrainConfig {
                trainer,
                epochs: 10,
                ..Default::default()
            };
            let model = SequenceModel::train(&labels, &data, &cfg);
            let compiled = CompiledSequenceModel::compile(&model);
            let mut scratch = DecodeScratch::new();
            let mut ids = Vec::new();
            let inputs: Vec<Vec<String>> = vec![
                vec!["2".into(), "cups".into(), "flour".into()],
                vec!["5".into(), "cups".into(), "zoodles".into()],
                vec!["salt".into()],
                vec![],
            ];
            for tokens in &inputs {
                compiled.predict_ids_into(tokens, &mut scratch, &mut ids);
                assert_eq!(ids, model.predict_ids(tokens), "{trainer:?} {tokens:?}");
                assert_eq!(compiled.predict(tokens), model.predict(tokens));
            }
        }
    }

    #[test]
    fn margins_fill_only_under_provenance_and_never_change_the_path() {
        let p = tiny_params();
        let c = CompiledParams::from_params(&p);
        let mut scratch = DecodeScratch::new();
        let mut out_plain = Vec::new();
        let mut out_explained = Vec::new();
        let feats: Vec<Vec<u32>> = vec![vec![0, 2], vec![1], vec![5, 0], vec![2]];

        c.viterbi_into(&feats, &mut scratch, &mut out_plain);
        assert!(scratch.margins().is_empty(), "margins without --explain");

        recipe_obs::provenance::capture(|| {
            c.viterbi_into(&feats, &mut scratch, &mut out_explained);
        });
        assert_eq!(out_explained, out_plain, "margins perturbed the decode");
        assert_eq!(scratch.margins().len(), feats.len(), "one margin per token");
        for (i, &m) in scratch.margins().iter().enumerate() {
            assert!(m >= 0.0, "margin[{i}] = {m} negative");
            assert!(m.is_finite(), "three labels give finite margins");
        }

        // A later non-explained decode clears stale margins.
        c.viterbi_into(&feats, &mut scratch, &mut out_plain);
        assert!(scratch.margins().is_empty());
    }

    #[test]
    fn row_margin_picks_best_minus_runner_up() {
        assert_eq!(row_margin(&[3.0, 7.5, -1.0]), 4.5);
        assert_eq!(row_margin(&[2.0, 2.0]), 0.0);
        assert_eq!(row_margin(&[5.0]), f64::INFINITY);
    }

    #[test]
    fn pruned_fraction_reports_sparsity() {
        let p = Params::zeros(4, 3);
        let c = CompiledParams::from_params(&p);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.pruned_fraction(), 1.0);
        let c2 = CompiledParams::from_params(&tiny_params());
        assert!(c2.pruned_fraction() > 0.0 && c2.pruned_fraction() < 1.0);
    }
}
