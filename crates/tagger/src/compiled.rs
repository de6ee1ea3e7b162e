//! Compiled POS tagging: the averaged perceptron frozen into a sparse CSR
//! weight layout, decoding through a reusable [`TagScratch`] arena.
//!
//! [`PosTagger::tag`] already streams feature strings through a scratch
//! buffer, but it still allocates a fresh normalized-context `Vec<String>`
//! per sentence and scores every class of every feature row, zeros
//! included. [`CompiledPosTagger`] freezes the trained weights into CSR
//! runs of `(class, weight)` nonzeros and reuses the context buffer, the
//! feature-id buffer and the score row across an entire corpus.
//!
//! The greedy decode loop — tag-dictionary short-circuit, feature stream
//! order, score accumulation order, and `argmax` tie-breaking — replicates
//! the reference tagger exactly. Pruning an exact-zero weight can only
//! flip the sign of a zero intermediate sum, which no comparison in the
//! decoder can observe, so compiled tags are identical to
//! [`PosTagger::tag`] on every input (enforced by tests here and by lint
//! rule RA208).

use crate::perceptron::argmax;
use crate::tagger::{for_each_feature, normalize_into, PosTagger, END, START};
use crate::tagset::PennTag;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Telemetry handles for compiled tagging, resolved once from the global
/// registry. Recording is gated on [`recipe_obs::enabled`] and never
/// affects the tags produced.
pub(crate) struct TagMetrics {
    /// Sentences tagged through [`CompiledPosTagger::tag_into`].
    pub(crate) sentences: Arc<recipe_obs::Counter>,
    /// Tokens across those sentences.
    pub(crate) tokens: Arc<recipe_obs::Counter>,
    /// Tokens short-circuited by the unambiguous-word dictionary.
    pub(crate) tagdict_hits: Arc<recipe_obs::Counter>,
}

pub(crate) fn tag_metrics() -> &'static TagMetrics {
    static METRICS: OnceLock<TagMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = recipe_obs::global();
        TagMetrics {
            sentences: reg.counter("tagger.sentences"),
            tokens: reg.counter("tagger.tokens"),
            tagdict_hits: reg.counter("tagger.tagdict_hits"),
        }
    })
}

/// Per-worker scratch buffers for compiled tagging: allocated once, reused
/// across every sentence a worker processes.
#[derive(Debug, Default)]
pub struct TagScratch {
    /// Normalized context (two START sentinels, the words, two END
    /// sentinels); the inner `String`s are reused.
    pub(crate) context: Vec<String>,
    /// Active feature ids for the current position.
    pub(crate) ids: Vec<u32>,
    /// Per-class score row.
    pub(crate) scores: Vec<f64>,
    /// Format buffer for streaming feature extraction.
    pub(crate) scratch_str: String,
}

impl TagScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A [`PosTagger`] frozen for serving: CSR weight runs plus the
/// unambiguous-word dictionary, tagging through a caller-owned
/// [`TagScratch`].
#[derive(Debug, Clone)]
pub struct CompiledPosTagger {
    /// Feature string → compiled row id. Ids are assigned in sorted
    /// feature-string order, so compilation is deterministic.
    pub(crate) ids: HashMap<String, u32>,
    /// CSR row offsets, length `num_features + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Class ids of the nonzero weights, row-major by feature.
    pub(crate) classes: Vec<u32>,
    /// Weights parallel to `classes`.
    pub(crate) weights: Vec<f64>,
    pub(crate) num_classes: usize,
    /// Words that always carry the same tag in training data.
    pub(crate) tagdict: HashMap<String, PennTag>,
}

impl CompiledPosTagger {
    /// Compile a trained tagger. The compiled tagger snapshots the
    /// weights: later mutation of `tagger` is not reflected.
    pub fn compile(tagger: &PosTagger) -> Self {
        let model = tagger.model();
        let num_classes = model.num_classes();
        let mut rows: Vec<(&str, &[f64])> = model.weight_rows().collect();
        rows.sort_by_key(|&(f, _)| f);
        let mut ids = HashMap::with_capacity(rows.len());
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut classes = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u32);
        for (feature, row) in rows {
            ids.insert(feature.to_string(), (offsets.len() - 1) as u32);
            for (c, &w) in row.iter().enumerate() {
                if w != 0.0 {
                    classes.push(c as u32);
                    weights.push(w);
                }
            }
            offsets.push(weights.len() as u32);
        }
        CompiledPosTagger {
            ids,
            offsets,
            classes,
            weights,
            num_classes,
            tagdict: tagger.tagdict().map(|(w, t)| (w.to_string(), t)).collect(),
        }
    }

    /// Number of compiled feature rows.
    pub fn num_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (nonzero) weights.
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Class scores for the active feature ids, written into
    /// `scores` (length `num_classes`). Same per-feature accumulation
    /// order as [`crate::perceptron::AveragedPerceptron::scores_ids`],
    /// minus the exact-zero terms.
    #[inline]
    fn scores_into(&self, ids: &[u32], scores: &mut [f64]) {
        scores.fill(0.0);
        for &id in ids {
            let lo = self.offsets[id as usize] as usize;
            let hi = self.offsets[id as usize + 1] as usize;
            for k in lo..hi {
                scores[self.classes[k] as usize] += self.weights[k];
            }
        }
    }

    /// Tag a tokenized sentence into `out`, reusing `scratch` for every
    /// intermediate buffer. Output is identical to [`PosTagger::tag`] on
    /// the tagger this was compiled from.
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
        // Provenance is purely observational: margins are read off the
        // score row the tagger already computed.
        let explain = recipe_obs::provenance::enabled();
        for i in 0..n {
            let norm = context[i + 2].as_str();
            let tag = if let Some(&t) = self.tagdict.get(norm) {
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
                    if let Some(&id) = self.ids.get(feat) {
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
                        margin: Some(Self::margin_of(scores)),
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

    /// Best minus second-best class score: how decisively the predicted
    /// tag won. Infinite for a single-class score row.
    pub(crate) fn margin_of(scores: &[f64]) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &s in scores {
            if s > best {
                second = best;
                best = s;
            } else if s > second {
                second = s;
            }
        }
        best - second
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
    use crate::tagger::TaggedSentence;

    fn s(words: &[&str], tags: &[PennTag]) -> TaggedSentence {
        (words.iter().map(|w| w.to_string()).collect(), tags.to_vec())
    }

    fn toy_corpus() -> Vec<TaggedSentence> {
        use PennTag::*;
        let mut c = Vec::new();
        for _ in 0..12 {
            c.push(s(&["2", "cups", "flour"], &[CD, NNS, NN]));
            c.push(s(&["1", "cup", "sugar"], &[CD, NN, NN]));
            c.push(s(&["boil", "the", "water"], &[VB, DT, NN]));
            c.push(s(&["finely", "chopped", "onion"], &[RB, VBN, NN]));
            c.push(s(&["2-3", "large", "eggs"], &[CD, JJ, NNS]));
            // "mix" is ambiguous (verb and noun) so it stays out of the
            // tag dictionary and forces real perceptron training.
            c.push(s(&["mix", "the", "batter"], &[VB, DT, NN]));
            c.push(s(&["pour", "the", "mix"], &[VB, DT, NN]));
            c.push(s(&["mix", "well"], &[VB, RB]));
        }
        c
    }

    #[test]
    fn compiled_tags_match_reference_on_varied_inputs() {
        let tagger = PosTagger::train(&toy_corpus(), 6, 7);
        let compiled = CompiledPosTagger::compile(&tagger);
        let mut scratch = TagScratch::new();
        let mut out = Vec::new();
        let sentences: Vec<Vec<String>> = vec![
            vec![],
            vec!["flour".into()],
            vec!["7".into(), "cups".into(), "sugar".into()],
            vec!["Mix".into(), "the".into(), "chopped".into(), "onion".into()],
            vec!["1/2".into(), "jalapeño".into()],
            // Longer than anything before it: scratch buffers must grow.
            (0..20).map(|i| format!("word{i}")).collect(),
            // Then short again: stale buffer contents must not leak.
            vec!["boil".into()],
        ];
        for words in &sentences {
            compiled.tag_into(words, &mut scratch, &mut out);
            assert_eq!(out, tagger.tag(words), "{words:?}");
            assert_eq!(compiled.tag(words), tagger.tag(words));
        }
    }

    #[test]
    fn provenance_labels_tagdict_and_model_decisions_without_changing_tags() {
        let tagger = PosTagger::train(&toy_corpus(), 6, 7);
        let compiled = CompiledPosTagger::compile(&tagger);
        let mut scratch = TagScratch::new();
        let mut plain = Vec::new();
        let mut explained = Vec::new();
        // "the" is unambiguous (tagdict), "mix" is ambiguous (model).
        let words: Vec<String> = vec!["mix".into(), "the".into(), "batter".into()];

        compiled.tag_into(&words, &mut scratch, &mut plain);
        let ((), records) = recipe_obs::provenance::capture(|| {
            compiled.tag_into(&words, &mut scratch, &mut explained);
        });

        assert_eq!(explained, plain, "provenance perturbed tagging");
        let ours: Vec<_> = records
            .iter()
            .filter(|r| r.site == "tagger.pos" && words.iter().any(|w| *w == r.subject))
            .collect();
        assert_eq!(ours.len(), words.len(), "{records:?}");
        let mix = ours.iter().find(|r| r.subject == "mix").expect("mix");
        assert_eq!(mix.detail, "model");
        assert!(mix.margin.is_some(), "scored tokens carry a margin");
        let the = ours.iter().find(|r| r.subject == "the").expect("the");
        assert_eq!(the.detail, "tagdict");
        assert_eq!(the.margin, None, "dictionary hits have no margin");
        assert_eq!(the.decision, "DT");
    }

    #[test]
    fn compilation_prunes_zero_weights() {
        let tagger = PosTagger::train(&toy_corpus(), 4, 1);
        let compiled = CompiledPosTagger::compile(&tagger);
        assert_eq!(compiled.num_features(), tagger.model().num_features());
        let dense = compiled.num_features() * tagger.model().num_classes();
        assert!(compiled.nnz() < dense, "{} !< {dense}", compiled.nnz());
        assert!(compiled.nnz() > 0);
    }

    #[test]
    fn compilation_is_deterministic() {
        let tagger = PosTagger::train(&toy_corpus(), 4, 3);
        let a = CompiledPosTagger::compile(&tagger);
        let b = CompiledPosTagger::compile(&tagger);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.classes, b.classes);
        assert_eq!(
            a.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            b.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
    }
}
