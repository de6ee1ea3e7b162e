//! The serving-side model wrapper: one type that answers extraction
//! queries from either a JSON pipeline ([`TrainedPipeline`]) or a
//! zero-copy binary `.rma` artifact ([`ArtifactPipeline`]), selected by
//! sniffing the file's magic bytes.
//!
//! This is the canonical load path shared by the CLI (`extract`,
//! `serve`) and the server's connection threads, so a phrase extracted
//! over HTTP is byte-identical to the same phrase extracted by the
//! batch CLI: both go through [`ServeModel::extract_ingredient`] and
//! [`entry_json`].

use recipe_core::pipeline::TrainedPipeline;
use recipe_core::{ArtifactPipeline, Inference, IngredientEntry};
use serde_json::json;
use std::fmt;

/// A loaded extraction model, ready to serve queries.
pub enum ServeModel {
    /// JSON pipeline artifact (recompiled on load).
    Json(TrainedPipeline),
    /// Binary `.rma` artifact served from loaded bytes.
    Rma(ArtifactPipeline),
}

/// Why a model failed to load.
#[derive(Debug)]
pub enum ModelError {
    /// The `.rma` container was rejected; carries the path.
    Artifact(String, recipe_core::ArtifactPipelineError),
    /// The JSON pipeline failed to read or parse.
    Persist(recipe_core::persist::PersistError),
    /// `--quantized` was requested for a JSON model; carries the path.
    QuantizedJson(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Artifact(path, e) => write!(f, "artifact {path}: {e}"),
            ModelError::Persist(e) => write!(f, "{e}"),
            ModelError::QuantizedJson(path) => write!(
                f,
                "--quantized needs a binary .rma model (compile one with \
                 `recipe-mine compile --model {path} --out model.rma`)"
            ),
        }
    }
}

impl ServeModel {
    /// Load a model from `path`, dispatching on the file's magic bytes:
    /// `.rma` containers go through the zero-copy artifact loader,
    /// anything else through the JSON pipeline loader. `quantized`
    /// selects the i16 fixed-point Viterbi views and is only valid for
    /// `.rma` models.
    pub fn load(path: &str, quantized: bool) -> Result<Self, ModelError> {
        if recipe_core::artifact::sniffs_as_artifact(path) {
            let loaded = ArtifactPipeline::load(path, quantized)
                .map_err(|e| ModelError::Artifact(path.to_string(), e))?;
            Ok(ServeModel::Rma(loaded))
        } else if quantized {
            Err(ModelError::QuantizedJson(path.to_string()))
        } else {
            Ok(ServeModel::Json(
                TrainedPipeline::load(path).map_err(ModelError::Persist)?,
            ))
        }
    }

    /// The inference bundle answering queries (cache stats, metrics).
    pub fn inference(&self) -> &Inference {
        match self {
            ServeModel::Json(p) => &p.inference,
            ServeModel::Rma(a) => &a.inference,
        }
    }

    /// Extract the ingredient attributes of one phrase.
    pub fn extract_ingredient(&self, phrase: &str) -> IngredientEntry {
        let _span = recipe_obs::span!("serve.extract_ingredient");
        match self {
            ServeModel::Json(p) => p.extract_ingredient(phrase),
            ServeModel::Rma(a) => a.extract_ingredient(phrase),
        }
    }

    /// Which artifact family backs this model (`"json"` / `"rma"`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeModel::Json(_) => "json",
            ServeModel::Rma(_) => "rma",
        }
    }

    /// The frozen drift reference distribution, when the backing
    /// artifact carries one (`.rma` compiled with drift capture).
    pub fn drift_reference(&self) -> Option<recipe_core::artifact::DriftReference> {
        match self {
            ServeModel::Json(_) => None,
            ServeModel::Rma(a) => a.drift_reference(),
        }
    }
}

/// Structured JSON for one extracted entry. The field order here is
/// the byte-identity contract between the CLI and the server: both
/// render entries through this one function.
pub fn entry_json(entry: &IngredientEntry) -> serde_json::Value {
    json!({
        "name": entry.name,
        "state": entry.state,
        "quantity": entry.quantity,
        "unit": entry.unit,
        "temperature": entry.temperature,
        "dry_fresh": entry.dry_fresh,
        "size": entry.size,
    })
}
