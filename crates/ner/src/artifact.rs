//! Zero-copy artifact serialization for [`CompiledSequenceModel`] plus
//! the [`NerView`] reader that decodes straight out of the artifact
//! bytes.
//!
//! A sequence model occupies a contiguous block of section kinds
//! starting at a caller-chosen `base` (the ingredient and instruction
//! models share one container under different bases). The f64 sections
//! mirror [`CompiledParams`] exactly — same CSR layout, same values —
//! so [`NerView`] decoding is bitwise-identical to the in-process
//! compiled path. The `Q_*` sections add fixed-point i16 variants of
//! the emission and transition tables with per-row scale factors; the
//! quantized decode trades bounded argmax drift (gated by tests) for a
//! dense, auto-vectorization-friendly emission kernel.
//!
//! # Byte-identity with [`CompiledSequenceModel`]
//!
//! * The feature string table is sorted for binary search, but a
//!   parallel id array maps each string back to its original interner
//!   id, so encoded id sets — and therefore emission summation order —
//!   match [`crate::encode::encode_tokens`] exactly.
//! * The f64 emission/transition kernels replicate the compiled loops
//!   verbatim (same iteration order, strict `>` first-best ties).
//! * Encoding streams through the same [`FeatureExtractor`] with the
//!   config flags recorded in the meta section.
//!
//! # Corruption posture
//!
//! [`NerView::from_artifact`] checks every section length against the
//! counts in the meta section (O(sections), not O(weights)); decode
//! kernels additionally clamp CSR ranges and label ids so a payload
//! that was corrupted *after* structural validation degrades to wrong
//! scores rather than a panic on the serving path. Callers wanting
//! hard integrity run [`recipe_artifact::Artifact::verify_crc`] first.

use crate::compiled::{decode_metrics, row_margin, CompiledSequenceModel, DecodeScratch};
use crate::features::{FeatureConfig, FeatureExtractor};
use crate::labels::LabelSet;
use recipe_artifact::{
    put_f64, put_i16, put_u32, read_f64, read_i16, read_u32, write_str_table, Artifact,
    ArtifactError, ArtifactWriter, StrTable,
};
use std::ops::Range;
use std::sync::Arc;

/// Section kind offsets relative to a model's base kind.
pub mod section {
    /// Meta: `[n_labels u32][n_features u32][feature flags u32][reserved u32]`.
    pub const META: u32 = 0;
    /// CSR row offsets, `(n_features + 1) x u32`.
    pub const OFFSETS: u32 = 1;
    /// CSR label ids, `nnz x u32`.
    pub const LABELS: u32 = 2;
    /// CSR weights, `nnz x f64`.
    pub const WEIGHTS: u32 = 3;
    /// Dense transitions, `L*L x f64`.
    pub const TRANS: u32 = 4;
    /// Start weights, `L x f64`.
    pub const START: u32 = 5;
    /// End weights, `L x f64`.
    pub const END: u32 = 6;
    /// Label names, string table in label-id order.
    pub const LABEL_NAMES: u32 = 7;
    /// Feature strings, string table sorted for binary search.
    pub const FEATURES: u32 = 8;
    /// Original interner ids parallel to the sorted feature strings,
    /// `count x u32`.
    pub const FEATURE_IDS: u32 = 9;
    /// Quantized dense emissions, `n_features * L x i16`.
    pub const Q_EMIT: u32 = 10;
    /// Per-feature-row emission scales, `n_features x f64`.
    pub const Q_EMIT_SCALES: u32 = 11;
    /// Quantized transitions, `L*L x i16`.
    pub const Q_TRANS: u32 = 12;
    /// Per-previous-label transition scales, `L x f64`.
    pub const Q_TRANS_SCALES: u32 = 13;
}

/// Feature-config bit flags stored in the meta section.
const FLAG_LEXICAL: u32 = 1;
const FLAG_SHAPE: u32 = 2;
const FLAG_AFFIXES: u32 = 4;
const FLAG_CONTEXT: u32 = 8;

fn config_flags(c: &FeatureConfig) -> u32 {
    let mut flags = 0;
    if c.lexical {
        flags |= FLAG_LEXICAL;
    }
    if c.shape {
        flags |= FLAG_SHAPE;
    }
    if c.affixes {
        flags |= FLAG_AFFIXES;
    }
    if c.context {
        flags |= FLAG_CONTEXT;
    }
    flags
}

fn config_from_flags(flags: u32) -> FeatureConfig {
    FeatureConfig {
        lexical: flags & FLAG_LEXICAL != 0,
        shape: flags & FLAG_SHAPE != 0,
        affixes: flags & FLAG_AFFIXES != 0,
        context: flags & FLAG_CONTEXT != 0,
    }
}

/// Quantize one weight row to i16 with a shared scale: `q = round(w /
/// scale)` where `scale = max|w| / i16::MAX`. An all-zero row gets
/// scale 0 and readers skip it entirely.
fn quantize_row(row: &[f64], q: &mut Vec<u8>) -> f64 {
    let max_abs = row.iter().fold(0.0f64, |m, &w| m.max(w.abs()));
    let scale = if max_abs == 0.0 {
        0.0
    } else {
        max_abs / i16::MAX as f64
    };
    for &w in row {
        let v = if scale == 0.0 {
            0
        } else {
            (w / scale).round().clamp(i16::MIN as f64, i16::MAX as f64) as i16
        };
        put_i16(q, v);
    }
    scale
}

/// Serialize `model` into `writer` as the section block starting at
/// `base`, including the quantized i16 variants.
pub fn append_model(writer: &mut ArtifactWriter, base: u32, model: &CompiledSequenceModel) {
    let p = &model.params;
    let l = p.n_labels;
    let nf = p.n_features;

    let mut meta = Vec::with_capacity(16);
    put_u32(&mut meta, l as u32);
    put_u32(&mut meta, nf as u32);
    put_u32(&mut meta, config_flags(&model.extractor.config));
    put_u32(&mut meta, 0);
    writer.push_section(base + section::META, meta);

    let mut offsets = Vec::with_capacity(p.offsets.len() * 4);
    for &o in &p.offsets {
        put_u32(&mut offsets, o);
    }
    writer.push_section(base + section::OFFSETS, offsets);

    let mut labels = Vec::with_capacity(p.labels.len() * 4);
    for &y in &p.labels {
        put_u32(&mut labels, y);
    }
    writer.push_section(base + section::LABELS, labels);

    for (kind, values) in [
        (section::WEIGHTS, &p.weights),
        (section::TRANS, &p.trans),
        (section::START, &p.start),
        (section::END, &p.end),
    ] {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for &w in values {
            put_f64(&mut bytes, w);
        }
        writer.push_section(base + kind, bytes);
    }

    let names: Vec<&str> = model.labels.names().collect();
    let mut label_names = Vec::new();
    write_str_table(&mut label_names, &names);
    writer.push_section(base + section::LABEL_NAMES, label_names);

    // Feature strings sorted for binary search; the parallel id array
    // preserves the interner's original string -> id mapping so encoded
    // feature-id sets are identical to the in-process path.
    let mut feats: Vec<(&str, u32)> = model.interner.iter().collect();
    feats.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let strings: Vec<&str> = feats.iter().map(|&(s, _)| s).collect();
    let mut feat_table = Vec::new();
    write_str_table(&mut feat_table, &strings);
    writer.push_section(base + section::FEATURES, feat_table);
    let mut feat_ids = Vec::with_capacity(feats.len() * 4);
    for &(_, id) in &feats {
        put_u32(&mut feat_ids, id);
    }
    writer.push_section(base + section::FEATURE_IDS, feat_ids);

    // Quantized emission table is dense (zeros included) so the decode
    // kernel streams contiguous i16 rows.
    let mut qemit = Vec::with_capacity(nf * l * 2);
    let mut qemit_scales = Vec::with_capacity(nf * 8);
    let mut dense_row = vec![0.0f64; l];
    for f in 0..nf {
        dense_row.fill(0.0);
        let lo = p.offsets[f] as usize;
        let hi = p.offsets[f + 1] as usize;
        for k in lo..hi {
            dense_row[p.labels[k] as usize] = p.weights[k];
        }
        let scale = quantize_row(&dense_row, &mut qemit);
        put_f64(&mut qemit_scales, scale);
    }
    writer.push_section(base + section::Q_EMIT, qemit);
    writer.push_section(base + section::Q_EMIT_SCALES, qemit_scales);

    let mut qtrans = Vec::with_capacity(l * l * 2);
    let mut qtrans_scales = Vec::with_capacity(l * 8);
    for yp in 0..l {
        let scale = quantize_row(&p.trans[yp * l..(yp + 1) * l], &mut qtrans);
        put_f64(&mut qtrans_scales, scale);
    }
    writer.push_section(base + section::Q_TRANS, qtrans);
    writer.push_section(base + section::Q_TRANS_SCALES, qtrans_scales);
}

/// A sequence model served directly from artifact bytes.
///
/// Holds the shared buffer, the byte ranges of each section, and two
/// small materialized pieces (label names and the feature extractor);
/// weights and feature strings are read in place.
#[derive(Clone)]
pub struct NerView {
    buf: Arc<[u8]>,
    n_labels: usize,
    n_features: usize,
    nnz: usize,
    offsets: Range<usize>,
    csr_labels: Range<usize>,
    weights: Range<usize>,
    trans: Range<usize>,
    start: Range<usize>,
    end: Range<usize>,
    features: Range<usize>,
    feature_ids: Range<usize>,
    qemit: Range<usize>,
    qemit_scales: Range<usize>,
    qtrans: Range<usize>,
    qtrans_scales: Range<usize>,
    labels: LabelSet,
    extractor: FeatureExtractor,
    quantized: bool,
}

impl NerView {
    /// Open the model block at `base` inside `art`, validating every
    /// section length against the meta counts (O(sections)).
    ///
    /// `quantized` selects the i16 decode kernels for every subsequent
    /// [`NerView::predict_ids_into`] call.
    pub fn from_artifact(
        art: &Artifact,
        base: u32,
        quantized: bool,
    ) -> Result<Self, ArtifactError> {
        let buf = art.buf().clone();
        let meta = art.require_section(base + section::META)?;
        if meta.len() != 16 {
            return Err(ArtifactError::Malformed("ner meta section size"));
        }
        let l = read_u32(&buf, meta.start) as usize;
        let nf = read_u32(&buf, meta.start + 4) as usize;
        let config = config_from_flags(read_u32(&buf, meta.start + 8));

        let offsets = art.require_section(base + section::OFFSETS)?;
        if offsets.len() != (nf + 1) * 4 {
            return Err(ArtifactError::Malformed("ner CSR offsets size"));
        }
        let csr_labels = art.require_section(base + section::LABELS)?;
        let nnz = csr_labels.len() / 4;
        if csr_labels.len() != nnz * 4 {
            return Err(ArtifactError::Malformed("ner CSR labels size"));
        }
        // O(1) cross-check: the final row offset must equal nnz.
        if read_u32(&buf, offsets.start + nf * 4) as usize != nnz {
            return Err(ArtifactError::Malformed("ner CSR offsets/labels mismatch"));
        }
        let weights = art.require_section(base + section::WEIGHTS)?;
        if weights.len() != nnz * 8 {
            return Err(ArtifactError::Malformed("ner CSR weights size"));
        }
        let trans = art.require_section(base + section::TRANS)?;
        if trans.len() != l * l * 8 {
            return Err(ArtifactError::Malformed("ner transition block size"));
        }
        let start = art.require_section(base + section::START)?;
        let end = art.require_section(base + section::END)?;
        if start.len() != l * 8 || end.len() != l * 8 {
            return Err(ArtifactError::Malformed("ner start/end block size"));
        }

        let label_names = art.require_section(base + section::LABEL_NAMES)?;
        let names = StrTable::new(&buf[label_names])
            .ok_or(ArtifactError::Malformed("ner label-name table"))?;
        if names.len() != l {
            return Err(ArtifactError::Malformed("ner label-name count"));
        }
        let owned: Vec<String> = (0..l).map(|i| names.at(i).to_string()).collect();
        let labels = LabelSet::new(&owned);

        let features = art.require_section(base + section::FEATURES)?;
        let table = StrTable::new(&buf[features.clone()])
            .ok_or(ArtifactError::Malformed("ner feature table"))?;
        if table.len() != nf {
            return Err(ArtifactError::Malformed("ner feature count"));
        }
        let feature_ids = art.require_section(base + section::FEATURE_IDS)?;
        if feature_ids.len() != nf * 4 {
            return Err(ArtifactError::Malformed("ner feature-id array size"));
        }

        let qemit = art.require_section(base + section::Q_EMIT)?;
        if qemit.len() != nf * l * 2 {
            return Err(ArtifactError::Malformed("ner quantized emission size"));
        }
        let qemit_scales = art.require_section(base + section::Q_EMIT_SCALES)?;
        if qemit_scales.len() != nf * 8 {
            return Err(ArtifactError::Malformed(
                "ner quantized emission scales size",
            ));
        }
        let qtrans = art.require_section(base + section::Q_TRANS)?;
        if qtrans.len() != l * l * 2 {
            return Err(ArtifactError::Malformed("ner quantized transition size"));
        }
        let qtrans_scales = art.require_section(base + section::Q_TRANS_SCALES)?;
        if qtrans_scales.len() != l * 8 {
            return Err(ArtifactError::Malformed(
                "ner quantized transition scales size",
            ));
        }

        Ok(NerView {
            buf,
            n_labels: l,
            n_features: nf,
            nnz,
            offsets,
            csr_labels,
            weights,
            trans,
            start,
            end,
            features,
            feature_ids,
            qemit,
            qemit_scales,
            qtrans,
            qtrans_scales,
            labels,
            extractor: FeatureExtractor::with_config(config),
            quantized,
        })
    }

    /// The model's label inventory (materialized at load; tiny).
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Whether this view decodes through the quantized i16 kernels.
    pub fn quantized(&self) -> bool {
        self.quantized
    }

    /// Look up a feature string: binary search in the sorted table,
    /// then map back to the original interner id.
    #[inline]
    fn feature_id(&self, feature: &str) -> Option<u32> {
        let table = StrTable::new(&self.buf[self.features.clone()])?;
        let i = table.find(feature)?;
        Some(read_u32(&self.buf, self.feature_ids.start + i * 4))
    }

    /// Encode `tokens` into per-position feature ids inside `scratch`,
    /// replicating [`CompiledSequenceModel`]'s encode exactly.
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
                if let Some(id) = self.feature_id(f) {
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

    /// CSR emission row read straight from artifact bytes; mirrors
    /// [`crate::CompiledParams::emit_row_into`] (same summation order).
    #[inline]
    fn emit_row_into(&self, feats: &[u32], out: &mut [f64]) {
        out.fill(0.0);
        let l = out.len();
        for &f in feats {
            let f = f as usize;
            if f < self.n_features {
                // Clamp against nnz: a corrupt offsets payload degrades
                // to a short row instead of an out-of-bounds read.
                let lo = (read_u32(&self.buf, self.offsets.start + f * 4) as usize).min(self.nnz);
                let hi =
                    (read_u32(&self.buf, self.offsets.start + (f + 1) * 4) as usize).min(self.nnz);
                for k in lo..hi {
                    let y = read_u32(&self.buf, self.csr_labels.start + k * 4) as usize;
                    if y < l {
                        out[y] += read_f64(&self.buf, self.weights.start + k * 8);
                    }
                }
            }
        }
    }

    /// Dense quantized emission row: contiguous i16 row scaled by the
    /// per-feature factor; zero-scale rows (all-zero originals) skip.
    #[inline]
    fn emit_row_quantized_into(&self, feats: &[u32], out: &mut [f64]) {
        out.fill(0.0);
        let l = out.len();
        for &f in feats {
            let f = f as usize;
            if f < self.n_features {
                let scale = read_f64(&self.buf, self.qemit_scales.start + f * 8);
                if scale != 0.0 {
                    let base = self.qemit.start + f * l * 2;
                    for (y, slot) in out.iter_mut().enumerate() {
                        *slot += read_i16(&self.buf, base + y * 2) as f64 * scale;
                    }
                }
            }
        }
    }

    /// Viterbi decode over artifact bytes. With `quantized` off this is
    /// bitwise-identical to [`crate::CompiledParams::viterbi_into`] on
    /// the source model; with it on, emissions and transitions come
    /// from the i16 tables.
    fn viterbi_into(&self, feats: &[Vec<u32>], scratch: &mut DecodeScratch, out: &mut Vec<usize>) {
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

        let quantized = self.quantized;
        if quantized {
            self.emit_row_quantized_into(&feats[0], &mut scratch.et);
        } else {
            self.emit_row_into(&feats[0], &mut scratch.et);
        }
        for y in 0..l {
            scratch.delta_prev[y] = read_f64(&self.buf, self.start.start + y * 8) + scratch.et[y];
        }
        if explain {
            scratch.margins.push(row_margin(&scratch.delta_prev));
        }
        for t in 1..n {
            if quantized {
                self.emit_row_quantized_into(&feats[t], &mut scratch.et);
            } else {
                self.emit_row_into(&feats[t], &mut scratch.et);
            }
            for y in 0..l {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0usize;
                for yp in 0..l {
                    let s = scratch.delta_prev[yp] + self.trans_at(yp, y);
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
            let s = scratch.delta_prev[y] + read_f64(&self.buf, self.end.start + y * 8);
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

    /// Transition weight `prev -> next`, from the f64 or quantized table.
    #[inline]
    fn trans_at(&self, yp: usize, y: usize) -> f64 {
        let idx = yp * self.n_labels + y;
        if self.quantized {
            read_i16(&self.buf, self.qtrans.start + idx * 2) as f64
                * read_f64(&self.buf, self.qtrans_scales.start + yp * 8)
        } else {
            read_f64(&self.buf, self.trans.start + idx * 8)
        }
    }

    /// Predict dense label ids into `out`, reusing `scratch`. Same
    /// contract (and telemetry) as
    /// [`CompiledSequenceModel::predict_ids_into`].
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
        // Split the borrow exactly like the compiled path: feats is
        // read-only during decoding while the numeric buffers are written.
        let feats = std::mem::take(&mut scratch.feats);
        self.viterbi_into(&feats[..tokens.len()], scratch, out);
        scratch.feats = feats;
    }

    /// Predict label names (allocating convenience wrapper for tests).
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
    use crate::model::{SequenceModel, TrainConfig, Trainer};

    fn trained() -> CompiledSequenceModel {
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
            seq(&["3", "sticks", "butter"], &["QUANTITY", "UNIT", "NAME"]),
        ];
        let cfg = TrainConfig {
            trainer: Trainer::Crf,
            epochs: 8,
            ..Default::default()
        };
        CompiledSequenceModel::compile(&SequenceModel::train(&labels, &data, &cfg))
    }

    fn to_artifact(model: &CompiledSequenceModel, base: u32) -> Artifact {
        let mut w = ArtifactWriter::new();
        append_model(&mut w, base, model);
        Artifact::parse(w.finish().into()).expect("parse")
    }

    fn inputs() -> Vec<Vec<String>> {
        vec![
            vec!["2".into(), "cups".into(), "flour".into()],
            vec!["5".into(), "cups".into(), "zoodles".into()],
            vec!["salt".into()],
            vec!["a".into(); 9],
            vec![],
        ]
    }

    #[test]
    fn f64_view_decode_is_identical_to_compiled() {
        let model = trained();
        let art = to_artifact(&model, 100);
        art.verify_crc().expect("checksums");
        let view = NerView::from_artifact(&art, 100, false).expect("view");
        assert_eq!(view.labels().len(), model.labels().len());

        let mut s1 = DecodeScratch::new();
        let mut s2 = DecodeScratch::new();
        let mut ids1 = Vec::new();
        let mut ids2 = Vec::new();
        for tokens in &inputs() {
            model.predict_ids_into(tokens, &mut s1, &mut ids1);
            view.predict_ids_into(tokens, &mut s2, &mut ids2);
            assert_eq!(ids1, ids2, "{tokens:?}");
        }
    }

    #[test]
    fn view_margins_match_compiled_margins() {
        let model = trained();
        let art = to_artifact(&model, 100);
        let view = NerView::from_artifact(&art, 100, false).expect("view");
        let tokens: Vec<String> = vec!["2".into(), "cups".into(), "flour".into()];
        let mut s1 = DecodeScratch::new();
        let mut s2 = DecodeScratch::new();
        let mut ids = Vec::new();
        recipe_obs::provenance::capture(|| {
            model.predict_ids_into(&tokens, &mut s1, &mut ids);
            view.predict_ids_into(&tokens, &mut s2, &mut ids);
        });
        assert_eq!(s1.margins(), s2.margins());
    }

    #[test]
    fn quantized_decode_agrees_on_training_style_inputs() {
        let model = trained();
        let art = to_artifact(&model, 100);
        let view = NerView::from_artifact(&art, 100, true).expect("view");
        assert!(view.quantized());
        let mut s1 = DecodeScratch::new();
        let mut s2 = DecodeScratch::new();
        let mut ids1 = Vec::new();
        let mut ids2 = Vec::new();
        let mut agree = 0usize;
        let mut total = 0usize;
        for tokens in &inputs() {
            model.predict_ids_into(tokens, &mut s1, &mut ids1);
            view.predict_ids_into(tokens, &mut s2, &mut ids2);
            assert_eq!(ids1.len(), ids2.len());
            total += ids1.len();
            agree += ids1.iter().zip(&ids2).filter(|(a, b)| a == b).count();
        }
        assert!(total > 0);
        // i16 quantization of a tiny, well-separated model should not
        // flip any argmax; the corpus-level gate lives in tests/artifact.rs.
        assert_eq!(agree, total, "quantized decode drifted on toy model");
    }

    #[test]
    fn multiple_models_share_one_container_under_different_bases() {
        let model = trained();
        let mut w = ArtifactWriter::new();
        append_model(&mut w, 100, &model);
        append_model(&mut w, 200, &model);
        let art = Artifact::parse(w.finish().into()).expect("parse");
        for base in [100, 200] {
            let view = NerView::from_artifact(&art, base, false).expect("view");
            assert_eq!(
                view.predict(&["2".into(), "cups".into(), "flour".into()]),
                model.predict(&["2".into(), "cups".into(), "flour".into()]),
                "base {base}"
            );
        }
        assert!(NerView::from_artifact(&art, 300, false).is_err());
    }

    #[test]
    fn truncated_or_mis_sized_sections_are_rejected() {
        let model = trained();
        // Drop one section at a time: every one is required.
        for missing in 0..=13u32 {
            let mut w = ArtifactWriter::new();
            let mut full = ArtifactWriter::new();
            append_model(&mut full, 100, &model);
            let bytes = full.finish();
            let art = Artifact::parse(bytes.into()).expect("parse");
            for kind in 0..=13u32 {
                if kind == missing {
                    continue;
                }
                let r = art.require_section(100 + kind).expect("section");
                w.push_section(100 + kind, art.buf()[r].to_vec());
            }
            let partial = Artifact::parse(w.finish().into()).expect("parse");
            assert!(
                NerView::from_artifact(&partial, 100, false).is_err(),
                "section {missing} missing but view loaded"
            );
        }
    }
}
