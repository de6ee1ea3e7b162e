//! Zero-copy artifact serialization for [`CompiledPosTagger`] plus the
//! [`PosView`] reader that tags straight out of the artifact bytes.
//!
//! The POS model occupies seven sections starting at a caller-chosen
//! `base`. Compilation assigns feature row ids in sorted
//! feature-string order ([`CompiledPosTagger::compile`] sorts before
//! numbering), so the sorted feature string table needs **no** parallel
//! id array: a string's binary-search index *is* its CSR row id. The
//! tag dictionary is a sorted word table plus a parallel tag-index
//! array.
//!
//! [`PosView::tag_into`] replicates the compiled greedy decode exactly
//! — tag-dictionary short-circuit, feature stream order, accumulation
//! order, argmax tie-breaking, provenance records, and telemetry — so
//! tags are identical to [`CompiledPosTagger::tag_into`] on every
//! input. The greedy perceptron row is O(active features), already
//! cache-friendly, so no quantized variant exists on this path.

use crate::compiled::{tag_metrics, CompiledPosTagger, TagScratch};
use crate::perceptron::argmax;
use crate::tagger::{for_each_feature, normalize_into, END, START};
use crate::tagset::{PennTag, NUM_TAGS};
use recipe_artifact::{
    put_f64, put_u32, read_f64, read_u32, write_str_table, Artifact, ArtifactError, ArtifactWriter,
    StrTable,
};
use std::ops::Range;
use std::sync::Arc;

/// Section kind offsets relative to the POS model's base kind.
pub mod section {
    /// Meta: `[num_classes u32][num_features u32][tagdict_len u32][reserved u32]`.
    pub const META: u32 = 0;
    /// CSR row offsets, `(num_features + 1) x u32`.
    pub const OFFSETS: u32 = 1;
    /// CSR class ids, `nnz x u32`.
    pub const CLASSES: u32 = 2;
    /// CSR weights, `nnz x f64`.
    pub const WEIGHTS: u32 = 3;
    /// Feature strings, sorted; a string's index is its CSR row id.
    pub const FEATURES: u32 = 4;
    /// Tag-dictionary words, string table sorted for binary search.
    pub const TAGDICT_WORDS: u32 = 5;
    /// Tag indices parallel to the dictionary words, `count x u32`.
    pub const TAGDICT_TAGS: u32 = 6;
}

/// Serialize `tagger` into `writer` as the section block at `base`.
pub fn append_tagger(writer: &mut ArtifactWriter, base: u32, tagger: &CompiledPosTagger) {
    let nf = tagger.num_features();

    let mut meta = Vec::with_capacity(16);
    put_u32(&mut meta, tagger.num_classes as u32);
    put_u32(&mut meta, nf as u32);
    put_u32(&mut meta, tagger.tagdict.len() as u32);
    put_u32(&mut meta, 0);
    writer.push_section(base + section::META, meta);

    let mut offsets = Vec::with_capacity(tagger.offsets.len() * 4);
    for &o in &tagger.offsets {
        put_u32(&mut offsets, o);
    }
    writer.push_section(base + section::OFFSETS, offsets);

    let mut classes = Vec::with_capacity(tagger.classes.len() * 4);
    for &c in &tagger.classes {
        put_u32(&mut classes, c);
    }
    writer.push_section(base + section::CLASSES, classes);

    let mut weights = Vec::with_capacity(tagger.weights.len() * 8);
    for &w in &tagger.weights {
        put_f64(&mut weights, w);
    }
    writer.push_section(base + section::WEIGHTS, weights);

    // Row ids were assigned in sorted-string order at compile time, so
    // sorting the strings again reproduces id order exactly: the table
    // index doubles as the row id.
    let mut features: Vec<&str> = tagger.ids.keys().map(String::as_str).collect();
    features.sort_unstable();
    debug_assert!(features
        .iter()
        .enumerate()
        .all(|(i, f)| tagger.ids[*f] as usize == i));
    let mut feat_table = Vec::new();
    write_str_table(&mut feat_table, &features);
    writer.push_section(base + section::FEATURES, feat_table);

    let mut dict: Vec<(&str, PennTag)> = tagger
        .tagdict
        .iter()
        .map(|(w, &t)| (w.as_str(), t))
        .collect();
    dict.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let words: Vec<&str> = dict.iter().map(|&(w, _)| w).collect();
    let mut word_table = Vec::new();
    write_str_table(&mut word_table, &words);
    writer.push_section(base + section::TAGDICT_WORDS, word_table);
    let mut tags = Vec::with_capacity(dict.len() * 4);
    for &(_, t) in &dict {
        put_u32(&mut tags, t.index() as u32);
    }
    writer.push_section(base + section::TAGDICT_TAGS, tags);
}

/// A POS tagger served directly from artifact bytes.
#[derive(Clone)]
pub struct PosView {
    buf: Arc<[u8]>,
    num_classes: usize,
    num_features: usize,
    nnz: usize,
    offsets: Range<usize>,
    classes: Range<usize>,
    weights: Range<usize>,
    features: Range<usize>,
    tagdict_words: Range<usize>,
    tagdict_tags: Range<usize>,
}

impl PosView {
    /// Open the POS block at `base` inside `art`, validating every
    /// section length against the meta counts (O(sections)).
    pub fn from_artifact(art: &Artifact, base: u32) -> Result<Self, ArtifactError> {
        let buf = art.buf().clone();
        let meta = art.require_section(base + section::META)?;
        if meta.len() != 16 {
            return Err(ArtifactError::Malformed("pos meta section size"));
        }
        let num_classes = read_u32(&buf, meta.start) as usize;
        let num_features = read_u32(&buf, meta.start + 4) as usize;
        let dict_len = read_u32(&buf, meta.start + 8) as usize;

        let offsets = art.require_section(base + section::OFFSETS)?;
        if offsets.len() != (num_features + 1) * 4 {
            return Err(ArtifactError::Malformed("pos CSR offsets size"));
        }
        let classes = art.require_section(base + section::CLASSES)?;
        let nnz = classes.len() / 4;
        if classes.len() != nnz * 4 {
            return Err(ArtifactError::Malformed("pos CSR classes size"));
        }
        if read_u32(&buf, offsets.start + num_features * 4) as usize != nnz {
            return Err(ArtifactError::Malformed("pos CSR offsets/classes mismatch"));
        }
        let weights = art.require_section(base + section::WEIGHTS)?;
        if weights.len() != nnz * 8 {
            return Err(ArtifactError::Malformed("pos CSR weights size"));
        }

        let features = art.require_section(base + section::FEATURES)?;
        let table = StrTable::new(&buf[features.clone()])
            .ok_or(ArtifactError::Malformed("pos feature table"))?;
        if table.len() != num_features {
            return Err(ArtifactError::Malformed("pos feature count"));
        }

        let tagdict_words = art.require_section(base + section::TAGDICT_WORDS)?;
        let words = StrTable::new(&buf[tagdict_words.clone()])
            .ok_or(ArtifactError::Malformed("pos tagdict word table"))?;
        if words.len() != dict_len {
            return Err(ArtifactError::Malformed("pos tagdict word count"));
        }
        let tagdict_tags = art.require_section(base + section::TAGDICT_TAGS)?;
        if tagdict_tags.len() != dict_len * 4 {
            return Err(ArtifactError::Malformed("pos tagdict tag array size"));
        }

        Ok(PosView {
            buf,
            num_classes,
            num_features,
            nnz,
            offsets,
            classes,
            weights,
            features,
            tagdict_words,
            tagdict_tags,
        })
    }

    /// Number of compiled feature rows.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Tag-dictionary lookup on the sorted word table; out-of-range tag
    /// indices (possible only under payload corruption) read as misses.
    #[inline]
    fn tagdict_at(&self, norm: &str) -> Option<PennTag> {
        let words = StrTable::new(&self.buf[self.tagdict_words.clone()])?;
        let i = words.find(norm)?;
        let idx = read_u32(&self.buf, self.tagdict_tags.start + i * 4) as usize;
        if idx < NUM_TAGS {
            Some(PennTag::from_index(idx))
        } else {
            None
        }
    }

    /// Feature lookup: the sorted-table index is the CSR row id.
    #[inline]
    fn feature_id(&self, feature: &str) -> Option<u32> {
        let table = StrTable::new(&self.buf[self.features.clone()])?;
        table.find(feature).map(|i| i as u32)
    }

    /// Class scores read straight from artifact bytes; mirrors the
    /// compiled `scores_into` accumulation order, with CSR ranges
    /// clamped so corrupt payloads degrade instead of panicking.
    #[inline]
    fn scores_into(&self, ids: &[u32], scores: &mut [f64]) {
        scores.fill(0.0);
        let nc = scores.len();
        for &id in ids {
            let id = id as usize;
            let lo = (read_u32(&self.buf, self.offsets.start + id * 4) as usize).min(self.nnz);
            let hi =
                (read_u32(&self.buf, self.offsets.start + (id + 1) * 4) as usize).min(self.nnz);
            for k in lo..hi {
                let c = read_u32(&self.buf, self.classes.start + k * 4) as usize;
                if c < nc {
                    scores[c] += read_f64(&self.buf, self.weights.start + k * 8);
                }
            }
        }
    }

    /// Tag a tokenized sentence into `out`, reusing `scratch`. Output,
    /// provenance and telemetry are identical to
    /// [`CompiledPosTagger::tag_into`] on the source tagger.
    pub fn tag_into(&self, words: &[String], scratch: &mut TagScratch, out: &mut Vec<PennTag>) {
        let _span = recipe_obs::span!("tagger.tag");
        out.clear();
        let n = words.len();
        let ctx_len = n + 4;
        if scratch.context.len() < ctx_len {
            scratch.context.resize_with(ctx_len, String::new);
        }
        let TagScratch {
            context,
            ids,
            scores,
            scratch_str,
        } = scratch;
        scores.resize(self.num_classes, 0.0);
        context[0].clear();
        context[0].push_str(START[0]);
        context[1].clear();
        context[1].push_str(START[1]);
        for (k, w) in words.iter().enumerate() {
            normalize_into(w, &mut context[k + 2]);
        }
        context[n + 2].clear();
        context[n + 2].push_str(END[0]);
        context[n + 3].clear();
        context[n + 3].push_str(END[1]);
        let context = &context[..ctx_len];

        let mut prev: &str = START[0];
        let mut prev2: &str = START[1];
        let mut dict_hits = 0u64;
        let explain = recipe_obs::provenance::enabled();
        for i in 0..n {
            let norm = context[i + 2].as_str();
            let tag = if let Some(t) = self.tagdict_at(norm) {
                dict_hits += 1;
                if explain {
                    recipe_obs::provenance::record(recipe_obs::provenance::Record {
                        kind: "tagger.margin",
                        site: "tagger.pos",
                        subject: words[i].clone(),
                        decision: t.as_str().to_string(),
                        detail: "tagdict".to_string(),
                        index: i,
                        margin: None,
                    });
                }
                t
            } else {
                ids.clear();
                for_each_feature(i, context, prev, prev2, scratch_str, |feat| {
                    if let Some(id) = self.feature_id(feat) {
                        ids.push(id);
                    }
                });
                self.scores_into(ids, scores);
                let tag = PennTag::from_index(argmax(scores));
                if explain {
                    recipe_obs::provenance::record(recipe_obs::provenance::Record {
                        kind: "tagger.margin",
                        site: "tagger.pos",
                        subject: words[i].clone(),
                        decision: tag.as_str().to_string(),
                        detail: "model".to_string(),
                        index: i,
                        margin: Some(CompiledPosTagger::margin_of(scores)),
                    });
                }
                tag
            };
            out.push(tag);
            prev2 = prev;
            prev = tag.as_str();
        }
        if recipe_obs::enabled() {
            let m = tag_metrics();
            m.sentences.inc();
            m.tokens.add(n as u64);
            m.tagdict_hits.add(dict_hits);
        }
    }

    /// Allocating convenience wrapper around [`Self::tag_into`].
    pub fn tag(&self, words: &[String]) -> Vec<PennTag> {
        let mut scratch = TagScratch::new();
        let mut out = Vec::new();
        self.tag_into(words, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::{PosTagger, TaggedSentence};

    fn s(words: &[&str], tags: &[PennTag]) -> TaggedSentence {
        (words.iter().map(|w| w.to_string()).collect(), tags.to_vec())
    }

    fn toy_corpus() -> Vec<TaggedSentence> {
        use PennTag::*;
        let mut c = Vec::new();
        for _ in 0..12 {
            c.push(s(&["2", "cups", "flour"], &[CD, NNS, NN]));
            c.push(s(&["boil", "the", "water"], &[VB, DT, NN]));
            c.push(s(&["mix", "the", "batter"], &[VB, DT, NN]));
            c.push(s(&["pour", "the", "mix"], &[VB, DT, NN]));
            c.push(s(&["finely", "chopped", "onion"], &[RB, VBN, NN]));
        }
        c
    }

    fn to_artifact(tagger: &CompiledPosTagger) -> Artifact {
        let mut w = ArtifactWriter::new();
        append_tagger(&mut w, 300, tagger);
        Artifact::parse(w.finish().into()).expect("parse")
    }

    #[test]
    fn view_tags_are_identical_to_compiled() {
        let tagger = PosTagger::train(&toy_corpus(), 6, 7);
        let compiled = CompiledPosTagger::compile(&tagger);
        let art = to_artifact(&compiled);
        art.verify_crc().expect("checksums");
        let view = PosView::from_artifact(&art, 300).expect("view");
        assert_eq!(view.num_features(), compiled.num_features());

        let mut s1 = TagScratch::new();
        let mut s2 = TagScratch::new();
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let sentences: Vec<Vec<String>> = vec![
            vec![],
            vec!["flour".into()],
            vec!["Mix".into(), "the".into(), "chopped".into(), "onion".into()],
            (0..20).map(|i| format!("word{i}")).collect(),
            vec!["boil".into()],
        ];
        for words in &sentences {
            compiled.tag_into(words, &mut s1, &mut out1);
            view.tag_into(words, &mut s2, &mut out2);
            assert_eq!(out1, out2, "{words:?}");
        }
    }

    #[test]
    fn view_provenance_matches_compiled() {
        let tagger = PosTagger::train(&toy_corpus(), 6, 7);
        let compiled = CompiledPosTagger::compile(&tagger);
        let view = PosView::from_artifact(&to_artifact(&compiled), 300).expect("view");
        let words: Vec<String> = vec!["mix".into(), "the".into(), "batter".into()];
        let mut scratch = TagScratch::new();
        let mut out = Vec::new();

        let ((), from_compiled) = recipe_obs::provenance::capture(|| {
            compiled.tag_into(&words, &mut scratch, &mut out);
        });
        let ((), from_view) = recipe_obs::provenance::capture(|| {
            view.tag_into(&words, &mut scratch, &mut out);
        });

        let key = |r: &recipe_obs::provenance::Record| {
            (
                r.subject.clone(),
                r.decision.clone(),
                r.detail.clone(),
                r.margin.map(f64::to_bits),
            )
        };
        let ours = |records: Vec<recipe_obs::provenance::Record>| {
            records
                .into_iter()
                .filter(|r| r.site == "tagger.pos")
                .map(|r| key(&r))
                .collect::<Vec<_>>()
        };
        assert_eq!(ours(from_compiled), ours(from_view));
    }

    #[test]
    fn missing_sections_are_rejected() {
        let tagger = PosTagger::train(&toy_corpus(), 4, 1);
        let compiled = CompiledPosTagger::compile(&tagger);
        let full = to_artifact(&compiled);
        for missing in 0..=6u32 {
            let mut w = ArtifactWriter::new();
            for kind in 0..=6u32 {
                if kind == missing {
                    continue;
                }
                let r = full.require_section(300 + kind).expect("section");
                w.push_section(300 + kind, full.buf()[r].to_vec());
            }
            let partial = Artifact::parse(w.finish().into()).expect("parse");
            assert!(
                PosView::from_artifact(&partial, 300).is_err(),
                "section {missing} missing but view loaded"
            );
        }
        assert!(PosView::from_artifact(&full, 999).is_err());
    }
}
