//! Binary `.rma` model artifacts: serialize a trained pipeline's
//! compiled models into the zero-copy container defined by
//! `recipe-artifact`, and serve extraction straight from the loaded
//! bytes.
//!
//! The JSON path ([`crate::persist`]) ships *trainable* parameters and
//! recompiles on load — seconds of cold start. This module ships the
//! *compiled* forms (CSR weights, interned feature tables, quantized
//! variants), so loading is a structural O(sections) validation plus a
//! handful of tiny materializations (label names), independent of model
//! size. An [`ArtifactPipeline`] serves `extract` workloads; training,
//! dependency parsing and event mining still require the JSON pipeline
//! (the parser and dictionaries are not part of the `.rma` format).
//!
//! Section kind assignment inside the container:
//!
//! | kind base | contents |
//! |-----------|----------|
//! | 1         | manifest (creator strings) |
//! | 100..=113 | ingredient NER (`recipe_ner::artifact::section`) |
//! | 200..=213 | instruction NER |
//! | 300..=306 | POS tagger (`recipe_tagger::artifact::section`) |
//! | 400       | drift reference (frozen margin/label/cache distribution) |

use crate::infer::Inference;
use crate::model::IngredientEntry;
use crate::pipeline::TrainedPipeline;
use recipe_artifact::{write_str_table, Artifact, ArtifactError, ArtifactWriter};
use recipe_ner::NerView;
use recipe_tagger::PosView;
use recipe_text::Preprocessor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Section kind of the manifest string table.
pub const KIND_MANIFEST: u32 = 1;
/// Base section kind of the ingredient NER model block.
pub const KIND_INGREDIENT_NER: u32 = 100;
/// Base section kind of the instruction NER model block.
pub const KIND_INSTRUCTION_NER: u32 = 200;
/// Base section kind of the POS tagger block.
pub const KIND_POS: u32 = 300;
/// Section kind of the prediction-drift reference distribution.
pub const KIND_DRIFT: u32 = 400;

/// Version of the drift-reference section payload.
pub const DRIFT_SCHEMA_VERSION: u64 = 1;

/// Bucket upper bounds over per-token Viterbi margins (best minus
/// runner-up accumulated score), one overflow bucket implied. Both the
/// compile-time reference capture and the server's live sampler bucket
/// through [`drift_margin_bucket`], so PSI compares like with like.
pub const DRIFT_MARGIN_BOUNDS: [f64; 10] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Index of the margin bucket for `margin` (overflow bucket last).
pub fn drift_margin_bucket(margin: f64) -> usize {
    DRIFT_MARGIN_BOUNDS.partition_point(|&b| b < margin.max(0.0))
}

/// A frozen reference distribution of prediction behaviour, captured at
/// `compile` time by running extraction with provenance recording over
/// a corpus sample. The server compares its live windowed distribution
/// against this section with a population-stability index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReference {
    /// Payload layout version ([`DRIFT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Number of phrases the reference run extracted.
    pub phrases: u64,
    /// Margin bucket upper bounds ([`DRIFT_MARGIN_BOUNDS`]).
    pub margin_bounds: Vec<f64>,
    /// Per-bucket Viterbi margin counts, overflow bucket last.
    pub margin_counts: Vec<u64>,
    /// Predicted-label counts from the ingredient NER decode.
    pub label_counts: BTreeMap<String, u64>,
    /// Phrase-cache hits observed during the reference run.
    pub cache_hits: u64,
    /// Phrase-cache misses observed during the reference run.
    pub cache_misses: u64,
}

impl DriftReference {
    /// Serialize for the artifact section (JSON payload; the container
    /// supplies framing and CRC).
    pub fn encode(&self) -> Vec<u8> {
        // Serializing a plain in-memory struct cannot fail; an empty
        // payload would simply decode to `None` and disable drift
        // scoring, matching the forward-compatibility contract below.
        serde_json::to_string(self)
            .map(String::into_bytes)
            .unwrap_or_default()
    }

    /// Decode a drift section payload; `None` when the payload is not
    /// a current-version reference (forward compatibility: an unknown
    /// drift section disables drift scoring, never the model).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let _span = recipe_obs::span!("artifact.drift_decode");
        let text = std::str::from_utf8(bytes).ok()?;
        let reference: DriftReference = serde_json::from_str(text).ok()?;
        (reference.schema_version == DRIFT_SCHEMA_VERSION).then_some(reference)
    }
}

/// Capture a [`DriftReference`] by extracting `phrases` in a provenance
/// scope of its own and aggregating the margin/label/cache records.
/// Other threads recording provenance at the same time do not affect
/// it.
pub fn capture_drift_reference(pipeline: &TrainedPipeline, phrases: &[String]) -> DriftReference {
    let ((), records) = recipe_obs::provenance::capture(|| {
        for phrase in phrases {
            pipeline.extract_ingredient(phrase);
        }
    });

    let mut margin_counts = vec![0u64; DRIFT_MARGIN_BOUNDS.len() + 1];
    let mut label_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for r in &records {
        match r.kind {
            "viterbi.margin" => {
                if let Some(m) = r.margin {
                    margin_counts[drift_margin_bucket(m)] += 1;
                }
                *label_counts.entry(r.decision.clone()).or_insert(0) += 1;
            }
            "cache.lookup" => match r.decision.as_str() {
                "hit" => cache_hits += 1,
                "miss" => cache_misses += 1,
                _ => {}
            },
            _ => {}
        }
    }
    DriftReference {
        schema_version: DRIFT_SCHEMA_VERSION,
        phrases: phrases.len() as u64,
        margin_bounds: DRIFT_MARGIN_BOUNDS.to_vec(),
        margin_counts,
        label_counts,
        cache_hits,
        cache_misses,
    }
}

/// Errors from writing or loading `.rma` pipeline artifacts.
#[derive(Debug)]
pub enum ArtifactPipelineError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The container or a model section failed validation.
    Format(ArtifactError),
    /// The pipeline's inference bundle is artifact-backed, so the
    /// compiled models needed for serialization are not present.
    NotCompiled,
}

impl fmt::Display for ArtifactPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactPipelineError::Io(e) => write!(f, "io error: {e}"),
            ArtifactPipelineError::Format(e) => write!(f, "artifact error: {e}"),
            ArtifactPipelineError::NotCompiled => {
                write!(
                    f,
                    "pipeline is artifact-backed; re-serialization needs compiled models"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactPipelineError {}

impl From<std::io::Error> for ArtifactPipelineError {
    fn from(e: std::io::Error) -> Self {
        ArtifactPipelineError::Io(e)
    }
}

impl From<ArtifactError> for ArtifactPipelineError {
    fn from(e: ArtifactError) -> Self {
        ArtifactPipelineError::Format(e)
    }
}

/// Serialize the pipeline's compiled models into `.rma` container bytes.
/// Byte-identical to pre-drift artifacts: the drift section is only
/// appended by [`artifact_bytes_with_reference`].
pub fn artifact_bytes(pipeline: &TrainedPipeline) -> Result<Vec<u8>, ArtifactPipelineError> {
    artifact_bytes_with_reference(pipeline, None)
}

/// Serialize the pipeline's compiled models, optionally appending a
/// frozen [`DriftReference`] section ([`KIND_DRIFT`]).
pub fn artifact_bytes_with_reference(
    pipeline: &TrainedPipeline,
    reference: Option<&DriftReference>,
) -> Result<Vec<u8>, ArtifactPipelineError> {
    let inference = &pipeline.inference;
    let ingredient = inference
        .ingredient_model()
        .ok_or(ArtifactPipelineError::NotCompiled)?;
    let instruction = inference
        .instruction_model()
        .ok_or(ArtifactPipelineError::NotCompiled)?;
    let pos = inference
        .pos_model()
        .ok_or(ArtifactPipelineError::NotCompiled)?;

    let mut writer = ArtifactWriter::new();
    let mut manifest = Vec::new();
    write_str_table(
        &mut manifest,
        &[
            "recipe-knowledge-mining",
            "ingredient-ner instruction-ner pos",
        ],
    );
    writer.push_section(KIND_MANIFEST, manifest);
    recipe_ner::artifact::append_model(&mut writer, KIND_INGREDIENT_NER, ingredient);
    recipe_ner::artifact::append_model(&mut writer, KIND_INSTRUCTION_NER, instruction);
    recipe_tagger::artifact::append_tagger(&mut writer, KIND_POS, pos);
    if let Some(reference) = reference {
        writer.push_section(KIND_DRIFT, reference.encode());
    }
    Ok(writer.finish())
}

/// Write the pipeline's compiled models to a `.rma` file at `path`.
pub fn save_artifact(
    pipeline: &TrainedPipeline,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactPipelineError> {
    let bytes = artifact_bytes(pipeline)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Whether the file at `path` starts with the `.rma` magic (used by the
/// CLI to dispatch between JSON and binary model files). Unreadable
/// files report `false`; the subsequent open surfaces the real error.
pub fn sniffs_as_artifact(path: impl AsRef<Path>) -> bool {
    use std::io::Read;
    let mut head = [0u8; 8];
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && head == recipe_artifact::MAGIC,
        Err(_) => false,
    }
}

/// An extraction pipeline served from `.rma` artifact bytes: the
/// stateless preprocessor plus an artifact-backed [`Inference`] bundle.
///
/// Serves [`ArtifactPipeline::extract_ingredient`] (and the underlying
/// [`Inference`] surface: instruction tagging, POS tagging, caches,
/// metrics) byte-identically to the [`TrainedPipeline`] the artifact
/// was written from when `quantized` is off.
#[derive(Debug)]
pub struct ArtifactPipeline {
    /// Tokenization/normalization, rebuilt from embedded tables — the
    /// preprocessor is stateless, exactly as on the JSON load path.
    pub pre: Preprocessor,
    /// Artifact-backed inference bundle.
    pub inference: Inference,
    /// The validated container (kept for [`ArtifactPipeline::verify_crc`]).
    artifact: Artifact,
}

impl ArtifactPipeline {
    /// Open pipeline views over already-loaded container bytes.
    ///
    /// Structural validation is O(sections); `quantized` selects the
    /// i16 decode kernels for both NER models.
    pub fn from_bytes(bytes: Arc<[u8]>, quantized: bool) -> Result<Self, ArtifactPipelineError> {
        let _span = recipe_obs::span!("artifact.load");
        let total_len = bytes.len();
        let artifact = Artifact::parse(bytes)?;
        let ingredient = NerView::from_artifact(&artifact, KIND_INGREDIENT_NER, quantized)?;
        let instruction = NerView::from_artifact(&artifact, KIND_INSTRUCTION_NER, quantized)?;
        let pos = PosView::from_artifact(&artifact, KIND_POS)?;
        let inference = Inference::from_views(pos, ingredient, instruction);
        // Load telemetry on the instance registry, so `--metrics-out`
        // documents from artifact-served extraction record what was
        // opened (counters never affect decoded output).
        let registry = inference.metrics_registry();
        registry.counter("artifact.loads").inc();
        if quantized {
            registry.counter("artifact.loads_quantized").inc();
        }
        registry.gauge("artifact.bytes").set(total_len as f64);
        Ok(ArtifactPipeline {
            pre: Preprocessor::default(),
            inference,
            artifact,
        })
    }

    /// Read and open a `.rma` file, including the O(bytes) CRC pass —
    /// file bytes are untrusted on cold open. Use
    /// [`ArtifactPipeline::from_bytes`] to skip the integrity pass for
    /// bytes that were already verified.
    pub fn load(path: impl AsRef<Path>, quantized: bool) -> Result<Self, ArtifactPipelineError> {
        let bytes = std::fs::read(path)?;
        let loaded = Self::from_bytes(bytes.into(), quantized)?;
        loaded.verify_crc()?;
        Ok(loaded)
    }

    /// Run the O(bytes) CRC-32 pass over every section payload.
    pub fn verify_crc(&self) -> Result<(), ArtifactError> {
        let _span = recipe_obs::span!("artifact.crc_verify");
        let registry = self.inference.metrics_registry();
        match self.artifact.verify_crc() {
            Ok(()) => {
                registry.counter("artifact.crc_verifies").inc();
                Ok(())
            }
            Err(e) => {
                registry.counter("artifact.crc_failures").inc();
                Err(e)
            }
        }
    }

    /// The frozen drift reference embedded at compile time, when the
    /// artifact carries one ([`KIND_DRIFT`]).
    pub fn drift_reference(&self) -> Option<DriftReference> {
        let range = self.artifact.section(KIND_DRIFT)?;
        DriftReference::decode(&self.artifact.buf()[range])
    }

    /// Extract the structured entry for one raw ingredient phrase —
    /// same preprocessing and decode contract as
    /// [`TrainedPipeline::extract_ingredient`].
    pub fn extract_ingredient(&self, phrase: &str) -> IngredientEntry {
        let _span = recipe_obs::span!("pipeline.extract_ingredient");
        let words = self.pre.preprocess(phrase);
        self.inference.ingredient_entry(&words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use recipe_corpus::{CorpusSpec, RecipeCorpus};

    fn trained() -> (RecipeCorpus, TrainedPipeline) {
        let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(101));
        let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
        (corpus, pipeline)
    }

    #[test]
    fn artifact_round_trip_preserves_extraction() {
        let (_corpus, pipeline) = trained();
        let bytes = artifact_bytes(&pipeline).expect("serialize");
        let loaded = ArtifactPipeline::from_bytes(bytes.into(), false).expect("load");
        loaded.verify_crc().expect("checksums");

        let phrases = [
            "2 cups flour",
            "1 sheet frozen puff pastry ( thawed )",
            "2-3 medium tomatoes , finely chopped",
            "salt",
        ];
        for phrase in phrases {
            assert_eq!(
                pipeline.extract_ingredient(phrase),
                loaded.extract_ingredient(phrase),
                "{phrase}"
            );
        }
        // Instruction tagging and POS tagging go through the same views.
        let words: Vec<String> = ["boil", "the", "water"].map(String::from).to_vec();
        assert_eq!(
            pipeline.inference.tag_instruction(&words),
            loaded.inference.tag_instruction(&words)
        );
        assert_eq!(
            pipeline.inference.pos_tag(&words),
            loaded.inference.pos_tag(&words)
        );
    }

    #[test]
    fn save_load_file_round_trip_and_magic_sniffing() {
        let (_corpus, pipeline) = trained();
        let dir = std::env::temp_dir().join("recipe_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.rma");
        save_artifact(&pipeline, &path).expect("save");
        assert!(sniffs_as_artifact(&path));
        assert!(!sniffs_as_artifact(dir.join("missing.rma")));

        let loaded = ArtifactPipeline::load(&path, false).expect("load");
        assert_eq!(
            pipeline.extract_ingredient("2 cups flour"),
            loaded.extract_ingredient("2 cups flour")
        );

        // JSON model files must not sniff as binary artifacts.
        let json_path = dir.join("model.json");
        pipeline.save(&json_path).expect("save json");
        assert!(!sniffs_as_artifact(&json_path));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn quantized_pipeline_loads_and_extracts() {
        let (_corpus, pipeline) = trained();
        let bytes = artifact_bytes(&pipeline).expect("serialize");
        let loaded = ArtifactPipeline::from_bytes(bytes.into(), true).expect("load");
        // Drift is gated corpus-wide in tests/artifact.rs; here we only
        // require the quantized path to produce well-formed entries.
        let entry = loaded.extract_ingredient("2 cups flour");
        assert!(!entry.name.is_empty() || entry.quantity.is_some() || entry.unit.is_some());
    }

    #[test]
    fn drift_reference_round_trips_through_artifact() {
        let (corpus, pipeline) = trained();
        let phrases: Vec<String> = corpus
            .recipes
            .iter()
            .flat_map(|r| r.ingredient_lines())
            .take(32)
            .collect();
        let reference = capture_drift_reference(&pipeline, &phrases);
        assert_eq!(reference.phrases, phrases.len() as u64);
        assert!(
            reference.margin_counts.iter().sum::<u64>() > 0,
            "reference saw margins: {reference:?}"
        );
        assert!(!reference.label_counts.is_empty());

        let bytes = artifact_bytes_with_reference(&pipeline, Some(&reference)).expect("serialize");
        let loaded = ArtifactPipeline::from_bytes(bytes.into(), false).expect("load");
        loaded.verify_crc().expect("checksums");
        assert_eq!(loaded.drift_reference(), Some(reference));

        // Capture is observational: extraction output is unchanged.
        assert_eq!(
            pipeline.extract_ingredient("2 cups flour"),
            loaded.extract_ingredient("2 cups flour")
        );

        // Plain artifact_bytes stays byte-identical (no drift section)
        // and reports no reference.
        let plain = artifact_bytes(&pipeline).expect("serialize");
        let plain_loaded = ArtifactPipeline::from_bytes(plain.into(), false).expect("load");
        assert_eq!(plain_loaded.drift_reference(), None);
    }

    #[test]
    fn drift_margin_buckets_are_total() {
        assert_eq!(drift_margin_bucket(-1.0), 0);
        assert_eq!(drift_margin_bucket(0.0), 0);
        assert_eq!(drift_margin_bucket(0.25), 0);
        assert_eq!(drift_margin_bucket(0.26), 1);
        assert_eq!(drift_margin_bucket(1e9), DRIFT_MARGIN_BOUNDS.len());
        assert!(DriftReference::decode(b"not json").is_none());
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let (_corpus, pipeline) = trained();
        let bytes = artifact_bytes(&pipeline).expect("serialize");

        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() / 2);
        assert!(ArtifactPipeline::from_bytes(truncated.into(), false).is_err());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(ArtifactPipeline::from_bytes(bad_magic.into(), false).is_err());

        // Payload corruption passes structural parse but fails the CRC pass.
        let art = Artifact::parse(bytes.clone().into()).expect("parse");
        let weights = art
            .section(KIND_INGREDIENT_NER + recipe_ner::artifact::section::WEIGHTS)
            .expect("weights section");
        let mut bad_payload = bytes;
        bad_payload[weights.start] ^= 0xff;
        let loaded =
            ArtifactPipeline::from_bytes(bad_payload.into(), false).expect("structural ok");
        assert!(loaded.verify_crc().is_err());
    }
}
