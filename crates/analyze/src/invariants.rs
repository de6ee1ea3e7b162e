//! Invariant lints (`RA2xx`): cross-crate constants the paper fixes —
//! tagset size, k, dictionary thresholds, label inventories — checked
//! against each other so a change in one crate can't silently skew
//! another.
//!
//! The checks are pure functions over an [`Observed`] snapshot, so tests
//! can verify each rule fires by feeding skewed values.
//!
//! The determinism audit (RA207, [`lint_parallel_determinism`]) follows
//! the same shape: [`DeterminismAudit::recompute`] trains miniature
//! models serially and on worker threads, and the lint compares the
//! serialized artifacts byte-for-byte. The compiled-model drift audit
//! (RA208, [`lint_compiled_drift`]) freezes miniature models into their
//! sparse (CSR) compiled forms and byte-compares compiled vs. reference
//! decodes over a fixed phrase set.

use crate::diag::Diagnostic;
use recipe_cluster::{KMeans, KMeansConfig};
use recipe_core::PipelineConfig;
use recipe_ner::scheme::bio_label_names;
use recipe_ner::{IngredientTag, InstructionTag};
use recipe_tagger::tagset::NUM_TAGS;
use recipe_tagger::POS_VECTOR_DIM;

/// The paper's constants, restated once, here, as the lint's ground truth.
pub mod paper {
    /// Penn Treebank tagset size (§II.D) and POS-vector dimensionality.
    pub const TAGSET: usize = 36;
    /// K-Means cluster count from the elbow analysis (§II.E).
    pub const K: usize = 23;
    /// Process-dictionary frequency threshold (§III.B).
    pub const PROCESS_THRESHOLD: usize = 47;
    /// Utensil-dictionary frequency threshold (§III.B).
    pub const UTENSIL_THRESHOLD: usize = 10;
    /// Entity labels of Table II (plus `O` in the model inventory).
    pub const INGREDIENT_LABELS: [&str; 7] =
        ["NAME", "STATE", "UNIT", "QUANTITY", "SIZE", "TEMP", "DF"];
    /// Instruction-section entity labels (§III.A).
    pub const INSTRUCTION_LABELS: [&str; 3] = ["PROCESS", "UTENSIL", "INGREDIENT"];
}

/// A snapshot of the values the invariant rules compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// `recipe_tagger::NUM_TAGS`.
    pub tagset_len: usize,
    /// `recipe_tagger::POS_VECTOR_DIM`.
    pub pos_vector_dim: usize,
    /// k in `PipelineConfig::paper()`.
    pub paper_k: usize,
    /// k in `KMeansConfig::default()`.
    pub default_k: usize,
    /// Process threshold in `PipelineConfig::paper()`.
    pub process_threshold: usize,
    /// Utensil threshold in `PipelineConfig::paper()`.
    pub utensil_threshold: usize,
    /// Ingredient label inventory (id order), from `IngredientTag::ALL`.
    pub ingredient_labels: Vec<String>,
    /// Instruction label inventory (id order), from `InstructionTag::ALL`.
    pub instruction_labels: Vec<String>,
}

impl Observed {
    /// Gather the current values from the workspace crates.
    pub fn gather() -> Self {
        let paper_cfg = PipelineConfig::paper();
        Observed {
            tagset_len: NUM_TAGS,
            pos_vector_dim: POS_VECTOR_DIM,
            paper_k: paper_cfg.kmeans.k,
            default_k: KMeansConfig::default().k,
            process_threshold: paper_cfg.process_threshold,
            utensil_threshold: paper_cfg.utensil_threshold,
            ingredient_labels: IngredientTag::ALL.iter().map(|t| t.to_string()).collect(),
            instruction_labels: InstructionTag::ALL.iter().map(|t| t.to_string()).collect(),
        }
    }
}

/// Run every invariant rule over a snapshot.
pub fn lint_invariants(obs: &Observed) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // RA201: tagset size == POS-vector dimensionality == 36.
    if obs.tagset_len != paper::TAGSET || obs.pos_vector_dim != paper::TAGSET {
        out.push(
            Diagnostic::new(
                "RA201",
                format!(
                    "tagset has {} tags, POS vectors have {} dims; the paper fixes both at {}",
                    obs.tagset_len,
                    obs.pos_vector_dim,
                    paper::TAGSET
                ),
                "invariant: recipe-tagger NUM_TAGS / POS_VECTOR_DIM",
            )
            .with_note(
                "clustering distance is computed in this space; a skew silently changes Fig. 2",
            ),
        );
    } else if obs.tagset_len != obs.pos_vector_dim {
        out.push(Diagnostic::new(
            "RA201",
            format!(
                "tagset size {} != POS-vector dimensionality {}",
                obs.tagset_len, obs.pos_vector_dim
            ),
            "invariant: recipe-tagger NUM_TAGS / POS_VECTOR_DIM",
        ));
    }

    // RA202: the paper clusters with k = 23.
    if obs.paper_k != paper::K {
        out.push(Diagnostic::new(
            "RA202",
            format!(
                "PipelineConfig::paper() clusters with k = {}, the paper uses {}",
                obs.paper_k,
                paper::K
            ),
            "invariant: recipe-core PipelineConfig::paper().kmeans.k",
        ));
    }
    if obs.default_k != paper::K {
        out.push(Diagnostic::new(
            "RA202",
            format!(
                "KMeansConfig::default() has k = {}, the paper uses {}",
                obs.default_k,
                paper::K
            ),
            "invariant: recipe-cluster KMeansConfig::default().k",
        ));
    }

    // RA203: dictionary thresholds 47 / 10.
    if (obs.process_threshold, obs.utensil_threshold)
        != (paper::PROCESS_THRESHOLD, paper::UTENSIL_THRESHOLD)
    {
        out.push(Diagnostic::new(
            "RA203",
            format!(
                "paper config thresholds are ({}, {}), the paper uses ({}, {})",
                obs.process_threshold,
                obs.utensil_threshold,
                paper::PROCESS_THRESHOLD,
                paper::UTENSIL_THRESHOLD
            ),
            "invariant: recipe-core PipelineConfig::paper() process/utensil thresholds",
        ));
    }

    // RA204: ingredient inventory = O + the seven Table II labels.
    let expected_ing: Vec<String> = std::iter::once("O".to_string())
        .chain(paper::INGREDIENT_LABELS.iter().map(|s| s.to_string()))
        .collect();
    if obs.ingredient_labels != expected_ing {
        out.push(
            Diagnostic::new(
                "RA204",
                format!(
                    "ingredient inventory is {:?}, expected {:?}",
                    obs.ingredient_labels, expected_ing
                ),
                "invariant: recipe-ner IngredientTag::ALL",
            )
            .with_note("label ids are positional; reordering breaks every saved artifact"),
        );
    }

    // RA205: instruction inventory = O + process/utensil/ingredient.
    let expected_ins: Vec<String> = std::iter::once("O".to_string())
        .chain(paper::INSTRUCTION_LABELS.iter().map(|s| s.to_string()))
        .collect();
    if obs.instruction_labels != expected_ins {
        out.push(Diagnostic::new(
            "RA205",
            format!(
                "instruction inventory is {:?}, expected {:?}",
                obs.instruction_labels, expected_ins
            ),
            "invariant: recipe-ner InstructionTag::ALL",
        ));
    }

    // RA206: the BIO expansion must be 2(n-1)+1 labels and strip back to
    // the raw inventory.
    let raw: Vec<&str> = obs.ingredient_labels.iter().map(|s| s.as_str()).collect();
    if !raw.is_empty() {
        let bio = bio_label_names(&raw, "O");
        let expected_len = 2 * (raw.len() - 1) + 1;
        if bio.len() != expected_len {
            out.push(Diagnostic::new(
                "RA206",
                format!(
                    "BIO inventory has {} labels, expected {expected_len}",
                    bio.len()
                ),
                "invariant: recipe-ner scheme::bio_label_names",
            ));
        }
        let stripped = recipe_ner::scheme::from_bio(&bio);
        let mut uniq: Vec<String> = stripped.clone();
        uniq.dedup();
        let mut sorted_raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        sorted_raw.sort();
        let mut sorted_uniq = uniq.clone();
        sorted_uniq.sort();
        sorted_uniq.dedup();
        if sorted_uniq != sorted_raw {
            out.push(Diagnostic::new(
                "RA206",
                format!("from_bio over the BIO inventory yields {sorted_uniq:?}, expected {sorted_raw:?}"),
                "invariant: recipe-ner scheme::from_bio",
            ));
        }
    }

    out
}

/// Serialized artifacts recomputed for the RA207 determinism audit:
/// one serial and one multi-threaded training run of each parallelized
/// model family, as JSON strings ready for byte comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DeterminismAudit {
    /// Worker threads used for the parallel recompute.
    pub threads: usize,
    /// CRF (L-BFGS) model trained on one thread.
    pub crf_serial: String,
    /// The same training run on `threads` worker threads.
    pub crf_parallel: String,
    /// K-Means model fitted on one thread.
    pub kmeans_serial: String,
    /// The same fit on `threads` worker threads.
    pub kmeans_parallel: String,
}

impl DeterminismAudit {
    /// Train the miniature models serially and on `threads` worker
    /// threads (the fixed inputs keep the audit at a few milliseconds).
    pub fn recompute(threads: usize) -> Self {
        use recipe_ner::model::LabeledSequence;
        use recipe_ner::{SequenceModel, TrainConfig, Trainer};
        use recipe_runtime::Runtime;

        let seq = |words: &[&str], tags: &[&str]| -> LabeledSequence {
            (
                words.iter().map(|w| w.to_string()).collect(),
                tags.iter().map(|t| t.to_string()).collect(),
            )
        };
        let data = vec![
            seq(&["2", "cups", "flour"], &["QUANTITY", "UNIT", "NAME"]),
            seq(
                &["1", "pinch", "sea", "salt"],
                &["QUANTITY", "UNIT", "NAME", "NAME"],
            ),
            seq(
                &["3", "large", "eggs", "beaten"],
                &["QUANTITY", "SIZE", "NAME", "STATE"],
            ),
            seq(
                &["1/2", "cup", "warm", "water"],
                &["QUANTITY", "UNIT", "TEMP", "NAME"],
            ),
            seq(&["fresh", "basil", "leaves"], &["DF", "NAME", "NAME"]),
        ];
        let labels = recipe_ner::IngredientTag::label_set();
        let crf_cfg = |threads: usize| TrainConfig {
            trainer: Trainer::CrfLbfgs,
            epochs: 8,
            threads,
            ..TrainConfig::default()
        };
        let crf_json = |threads: usize| {
            serde_json::to_string(&SequenceModel::train(&labels, &data, &crf_cfg(threads)))
                .expect("serialize CRF model")
        };

        let mut points: Vec<Vec<f64>> = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (12.0, 12.0), (24.0, 0.0)] {
            for j in 0..20 {
                points.push(vec![cx + (j % 4) as f64 * 0.1, cy + (j % 5) as f64 * 0.1]);
            }
        }
        let kcfg = KMeansConfig {
            k: 3,
            max_iters: 25,
            ..KMeansConfig::default()
        };
        let km_json = |rt: &Runtime| {
            serde_json::to_string(&KMeans::fit_rt(&points, &kcfg, rt))
                .expect("serialize K-Means model")
        };

        DeterminismAudit {
            threads,
            crf_serial: crf_json(1),
            crf_parallel: crf_json(threads),
            kmeans_serial: km_json(&Runtime::serial()),
            kmeans_parallel: km_json(&Runtime::new(threads)),
        }
    }
}

/// RA207: the parallel recompute of each trained artifact must be
/// byte-identical to the serial artifact.
pub fn lint_parallel_determinism(audit: &DeterminismAudit) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (what, serial, parallel, location) in [
        (
            "CRF (L-BFGS) model",
            &audit.crf_serial,
            &audit.crf_parallel,
            "invariant: recipe-ner train_lbfgs via recipe-runtime",
        ),
        (
            "K-Means model",
            &audit.kmeans_serial,
            &audit.kmeans_parallel,
            "invariant: recipe-cluster KMeans::fit_rt via recipe-runtime",
        ),
    ] {
        if serial != parallel {
            out.push(
                Diagnostic::new(
                    "RA207",
                    format!(
                        "{what} trained on {} worker threads differs from the serial artifact",
                        audit.threads
                    ),
                    location,
                )
                .with_note(
                    "the runtime contract (fixed chunking + ordered reduction) guarantees \
                     bit-identical artifacts at every thread count",
                ),
            );
        }
    }
    out
}

/// Decoded outputs recomputed for the RA208 compiled-model drift audit:
/// a miniature CRF and POS tagger are frozen into their compiled (sparse
/// CSR) forms, a miniature dependency parser decodes from its integer
/// feature keys, and both paths of each decode a fixed input set; the
/// serialized outputs are compared byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDriftAudit {
    /// NER tag sequences from the reference (dense) decoder.
    pub ner_reference: String,
    /// NER tag sequences from the compiled (CSR) decoder.
    pub ner_compiled: String,
    /// POS tag sequences from the reference tagger.
    pub pos_reference: String,
    /// POS tag sequences from the compiled tagger.
    pub pos_compiled: String,
    /// Dependency trees from the string-feature parser decode.
    pub parser_reference: String,
    /// Dependency trees from the integer-key parser decode.
    pub parser_compiled: String,
}

impl CompiledDriftAudit {
    /// Train the miniature models, freeze them, and decode the fixed
    /// phrase set through both paths (a few milliseconds end to end).
    pub fn recompute() -> Self {
        use recipe_ner::model::LabeledSequence;
        use recipe_ner::{CompiledSequenceModel, SequenceModel, TrainConfig, Trainer};
        use recipe_tagger::{CompiledPosTagger, PennTag, PosTagger};

        // Miniature CRF on the same fixed corpus as the RA207 audit.
        let seq = |words: &[&str], tags: &[&str]| -> LabeledSequence {
            (
                words.iter().map(|w| w.to_string()).collect(),
                tags.iter().map(|t| t.to_string()).collect(),
            )
        };
        let data = vec![
            seq(&["2", "cups", "flour"], &["QUANTITY", "UNIT", "NAME"]),
            seq(
                &["1", "pinch", "sea", "salt"],
                &["QUANTITY", "UNIT", "NAME", "NAME"],
            ),
            seq(
                &["3", "large", "eggs", "beaten"],
                &["QUANTITY", "SIZE", "NAME", "STATE"],
            ),
            seq(
                &["1/2", "cup", "warm", "water"],
                &["QUANTITY", "UNIT", "TEMP", "NAME"],
            ),
            seq(&["fresh", "basil", "leaves"], &["DF", "NAME", "NAME"]),
        ];
        let labels = recipe_ner::IngredientTag::label_set();
        let model = SequenceModel::train(
            &labels,
            &data,
            &TrainConfig {
                trainer: Trainer::CrfLbfgs,
                epochs: 8,
                threads: 1,
                ..TrainConfig::default()
            },
        );
        let compiled = CompiledSequenceModel::compile(&model);

        // Fixed decode set: in-domain phrases plus unseen tokens, so the
        // out-of-vocabulary path is exercised too.
        let phrases: Vec<Vec<String>> = [
            &["2", "cups", "flour"][..],
            &["1/2", "cup", "diced", "unseen-word"][..],
            &["3", "small", "ripe", "tomatoes"][..],
            &["fresh", "warm", "water"][..],
            &["1", "pinch", "salt"][..],
        ]
        .iter()
        .map(|p| p.iter().map(|w| w.to_string()).collect())
        .collect();
        let ner_reference =
            serde_json::to_string(&phrases.iter().map(|p| model.predict(p)).collect::<Vec<_>>())
                .expect("serialize reference NER decode");
        let ner_compiled = serde_json::to_string(
            &phrases
                .iter()
                .map(|p| compiled.predict(p))
                .collect::<Vec<_>>(),
        )
        .expect("serialize compiled NER decode");

        // Miniature POS tagger. "mix" is ambiguous (verb and noun) so it
        // stays out of the tag dictionary and the perceptron path runs.
        let ts = |words: &[&str], tags: &[PennTag]| -> (Vec<String>, Vec<PennTag>) {
            (words.iter().map(|w| w.to_string()).collect(), tags.to_vec())
        };
        let mut pos_data = Vec::new();
        for _ in 0..12 {
            use PennTag::*;
            pos_data.push(ts(&["2", "cups", "flour"], &[CD, NNS, NN]));
            pos_data.push(ts(&["boil", "the", "water"], &[VB, DT, NN]));
            pos_data.push(ts(&["finely", "chopped", "onion"], &[RB, VBN, NN]));
            pos_data.push(ts(&["mix", "the", "batter"], &[VB, DT, NN]));
            pos_data.push(ts(&["pour", "the", "mix"], &[VB, DT, NN]));
            pos_data.push(ts(&["mix", "well"], &[VB, RB]));
        }
        let tagger = PosTagger::train(&pos_data, 6, 7);
        let compiled_pos = CompiledPosTagger::compile(&tagger);
        let tag_names =
            |tags: &[PennTag]| -> Vec<&'static str> { tags.iter().map(|t| t.as_str()).collect() };
        let pos_reference = serde_json::to_string(
            &phrases
                .iter()
                .map(|p| tag_names(&tagger.tag(p)))
                .collect::<Vec<_>>(),
        )
        .expect("serialize reference POS decode");
        let pos_compiled = serde_json::to_string(
            &phrases
                .iter()
                .map(|p| tag_names(&compiled_pos.tag(p)))
                .collect::<Vec<_>>(),
        )
        .expect("serialize compiled POS decode");

        let (parser_reference, parser_compiled) = parser_decodes();
        CompiledDriftAudit {
            ner_reference,
            ner_compiled,
            pos_reference,
            pos_compiled,
            parser_reference,
            parser_compiled,
        }
    }
}

/// Train a miniature parser on a fixed treebank and decode a fixed
/// sentence set, including an unseen word and a token containing `|`,
/// through `parse_reference` and `parse`; returns both serialized.
fn parser_decodes() -> (String, String) {
    use recipe_parser::parser::{DependencyParser, ParseExample, ParserConfig};
    use recipe_parser::{DepLabel, DepTree};
    use recipe_tagger::PennTag::{self, *};
    use DepLabel::{Advmod, Det, Dobj, Pobj, Prep, Root};

    let words = |ws: &[&str]| -> Vec<String> { ws.iter().map(|w| w.to_string()).collect() };
    let gold = [
        (
            &["boil", "the", "water"][..],
            &[VB, DT, NN][..],
            &[None, Some(2), Some(0)][..],
            &[Root, Det, Dobj][..],
        ),
        (
            &["chop", "the", "onion"],
            &[VB, DT, NN],
            &[None, Some(2), Some(0)],
            &[Root, Det, Dobj],
        ),
        (
            &["stir", "gently"],
            &[VB, RB],
            &[None, Some(0)],
            &[Root, Advmod],
        ),
        (
            &["fry", "the", "potatoes", "in", "a", "pan"],
            &[VB, DT, NNS, IN, DT, NN],
            &[None, Some(2), Some(0), Some(0), Some(5), Some(3)],
            &[Root, Det, Dobj, Prep, Det, Pobj],
        ),
    ];
    let bank: Vec<ParseExample> = gold
        .iter()
        .filter_map(|&(ws, tags, heads, labels)| {
            Some(ParseExample {
                words: words(ws),
                tags: tags.to_vec(),
                tree: DepTree::new(heads.to_vec(), labels.to_vec()).ok()?,
            })
        })
        .collect();
    let parser = DependencyParser::train(&bank, &ParserConfig { epochs: 6, seed: 3 });
    let sentences: Vec<(Vec<String>, Vec<PennTag>)> = vec![
        (words(&["boil", "the", "potatoes"]), vec![VB, DT, NNS]),
        (words(&["mince", "the", "garlic"]), vec![VB, DT, NN]),
        (
            words(&["fry", "the", "a|b", "in", "a", "pan"]),
            vec![VB, DT, NN, IN, DT, NN],
        ),
        (words(&["stir", "-ROOT-", "gently"]), vec![VB, NN, RB]),
    ];
    let decode = |parse: &dyn Fn(&[String], &[PennTag]) -> DepTree| {
        let trees: Vec<DepTree> = sentences.iter().map(|(w, t)| parse(w, t)).collect();
        serde_json::to_value(&trees).to_compact_string()
    };
    (
        decode(&|w, t| parser.parse_reference(w, t)),
        decode(&|w, t| parser.parse(w, t)),
    )
}

/// RA208: the compiled decode of a frozen model must be byte-identical
/// to the reference decode.
pub fn lint_compiled_drift(audit: &CompiledDriftAudit) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (what, reference, compiled, location) in [
        (
            "CRF (sparse CSR Viterbi)",
            &audit.ner_reference,
            &audit.ner_compiled,
            "invariant: recipe-ner CompiledSequenceModel vs SequenceModel::predict",
        ),
        (
            "POS tagger (sparse CSR scoring)",
            &audit.pos_reference,
            &audit.pos_compiled,
            "invariant: recipe-tagger CompiledPosTagger vs PosTagger::tag",
        ),
        (
            "dependency parser (integer feature keys)",
            &audit.parser_reference,
            &audit.parser_compiled,
            "invariant: recipe-parser DependencyParser::parse vs parse_reference",
        ),
    ] {
        if reference != compiled {
            out.push(
                Diagnostic::new(
                    "RA208",
                    format!("{what} decode differs from the reference decode"),
                    location,
                )
                .with_note(
                    "pruning exact-zero weights only perturbs ±0.0 intermediates, which are \
                     invisible to comparisons — any drift is a real decoding bug",
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_workspace_satisfies_all_invariants() {
        let diags = lint_invariants(&Observed::gather());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn skewed_tagset_fires_ra201() {
        let mut obs = Observed::gather();
        obs.pos_vector_dim = 35;
        let diags = lint_invariants(&obs);
        assert!(diags.iter().any(|d| d.code == "RA201"), "{diags:?}");
    }

    #[test]
    fn skewed_k_fires_ra202() {
        let mut obs = Observed::gather();
        obs.paper_k = 20;
        let diags = lint_invariants(&obs);
        assert!(diags.iter().any(|d| d.code == "RA202"), "{diags:?}");
    }

    #[test]
    fn skewed_thresholds_fire_ra203() {
        let mut obs = Observed::gather();
        obs.process_threshold = 48;
        let diags = lint_invariants(&obs);
        assert!(diags.iter().any(|d| d.code == "RA203"), "{diags:?}");
    }

    #[test]
    fn reordered_inventory_fires_ra204() {
        let mut obs = Observed::gather();
        obs.ingredient_labels.swap(1, 2);
        let diags = lint_invariants(&obs);
        assert!(diags.iter().any(|d| d.code == "RA204"), "{diags:?}");
    }

    #[test]
    fn missing_instruction_label_fires_ra205() {
        let mut obs = Observed::gather();
        obs.instruction_labels.pop();
        let diags = lint_invariants(&obs);
        assert!(diags.iter().any(|d| d.code == "RA205"), "{diags:?}");
    }

    #[test]
    fn determinism_audit_is_clean_on_current_workspace() {
        let audit = DeterminismAudit::recompute(2);
        let diags = lint_parallel_determinism(&audit);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_audit_fires_ra207() {
        let mut audit = DeterminismAudit::recompute(2);
        audit.crf_parallel.push('x');
        let diags = lint_parallel_determinism(&audit);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA207");
        audit.kmeans_parallel.push('x');
        assert_eq!(lint_parallel_determinism(&audit).len(), 2);
    }

    #[test]
    fn compiled_drift_audit_is_clean_on_current_workspace() {
        let audit = CompiledDriftAudit::recompute();
        let diags = lint_compiled_drift(&audit);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_compiled_audit_fires_ra208() {
        let mut audit = CompiledDriftAudit::recompute();
        audit.ner_compiled.push('x');
        let diags = lint_compiled_drift(&audit);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA208");
        audit.pos_compiled.push('x');
        assert_eq!(lint_compiled_drift(&audit).len(), 2);
        audit.parser_compiled.push('x');
        assert_eq!(lint_compiled_drift(&audit).len(), 3);
    }
}
