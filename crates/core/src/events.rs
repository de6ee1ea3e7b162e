//! Relation extraction: from parsed instructions to many-to-many
//! [`CookingEvent`] tuples (§III.B, Figs. 3–5).
//!
//! For every instruction sentence:
//!
//! 1. POS-tag the raw tokens and dependency-parse them;
//! 2. NER-tag the tokens with the instruction model;
//! 3. for every verb the dictionaries confirm as a cooking process, collect
//!    its subjects / objects / prepositional objects ([`verb_frames`]);
//! 4. keep arguments the NER model confirmed as ingredients or (dictionary-
//!    confirmed) utensils;
//! 5. merge all of one verb instance's relations into a single compound
//!    many-to-many event — the paper's Fig. 5 step.

use crate::instructions::tag_instruction;
use crate::model::CookingEvent;
use crate::pipeline::TrainedPipeline;
use recipe_corpus::Recipe;
use recipe_ner::InstructionTag;
use recipe_parser::{verb_frames, DepTree};
use recipe_text::WordClass;
use serde::{Deserialize, Serialize};

/// Summary statistics over relations-per-instruction (the paper's
/// conclusion reports mean 6.164, σ 5.70 over 174 932 steps).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RelationStats {
    /// Number of instruction steps measured.
    pub instructions: usize,
    /// Total one-to-one relations before merging.
    pub relations: usize,
    /// Mean relations per instruction.
    pub mean: f64,
    /// Standard deviation of relations per instruction.
    pub std_dev: f64,
}

impl RelationStats {
    /// Compute from a per-instruction relation-count series.
    pub fn from_counts(counts: &[usize]) -> Self {
        let n = counts.len();
        if n == 0 {
            return RelationStats::default();
        }
        let total: usize = counts.iter().sum();
        let mean = total as f64 / n as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        RelationStats {
            instructions: n,
            relations: total,
            mean,
            std_dev: var.sqrt(),
        }
    }
}

/// Extract the event tuples for one instruction sentence given its raw
/// tokens, through the compiled POS/NER models and the sentence-level
/// event cache. `step` is the temporal index recorded on each event.
/// Byte-identical to [`extract_sentence_events_reference`].
pub fn extract_sentence_events(
    pipeline: &TrainedPipeline,
    words: &[String],
    step: usize,
) -> Vec<CookingEvent> {
    let _span = recipe_obs::span!("events.sentence");
    if words.is_empty() {
        return Vec::new();
    }
    pipeline.inference.events_for_sentence(words, step, || {
        let pos = pipeline.inference.pos_tag(words);
        let ner = pipeline.inference.tag_instruction(words);
        let tree = {
            let _span = recipe_obs::span!("parser.parse");
            pipeline.parser.parse(words, &pos)
        };
        events_from_analysis(pipeline, words, &pos, &ner, &tree, step)
    })
}

/// Reference extraction path: uncompiled models, the string-feature
/// parser decode, no cache. The compiled path is verified byte-identical
/// against this (tests, lint rule RA208, and the inference benches'
/// speedup baseline).
pub fn extract_sentence_events_reference(
    pipeline: &TrainedPipeline,
    words: &[String],
    step: usize,
) -> Vec<CookingEvent> {
    let _span = recipe_obs::span!("events.sentence.reference");
    if words.is_empty() {
        return Vec::new();
    }
    let pos = pipeline.pos.tag(words);
    let ner = tag_instruction(&pipeline.instruction_ner, words);
    let tree = pipeline.parser.parse_reference(words, &pos);
    events_from_analysis(pipeline, words, &pos, &ner, &tree, step)
}

/// Shared second half of sentence-event extraction: collect verb frames
/// from the parse, apply the dictionary/NER process filter, and merge
/// each verb instance's relations into one compound event (Fig. 5).
fn events_from_analysis(
    pipeline: &TrainedPipeline,
    words: &[String],
    pos: &[recipe_tagger::PennTag],
    ner: &[InstructionTag],
    tree: &DepTree,
    step: usize,
) -> Vec<CookingEvent> {
    let frames = verb_frames(tree, pos);

    let lemma_verb = |w: &str| {
        pipeline
            .pre
            .lemmatizer()
            .lemmatize(&w.to_lowercase(), WordClass::Verb)
    };
    let lemma_noun = |w: &str| pipeline.pre.normalize_word(w);

    let mut events = Vec::new();
    for frame in frames {
        let verb = lemma_verb(&words[frame.verb]);
        // The dictionary filter from §III.B: only verbs confirmed as
        // cooking processes yield events. The NER tag is accepted as a
        // second signal so dictionary gaps degrade gracefully.
        let in_dict = pipeline.dicts.is_process(&verb);
        let is_process = in_dict || ner[frame.verb] == InstructionTag::Process;
        if recipe_obs::provenance::enabled() {
            recipe_obs::provenance::record(recipe_obs::provenance::Record {
                kind: "dict.decision",
                site: "dicts.process",
                subject: verb.clone(),
                decision: if is_process { "accept" } else { "reject" }.to_string(),
                detail: if in_dict {
                    "dictionary"
                } else if is_process {
                    "ner"
                } else {
                    "none"
                }
                .to_string(),
                index: frame.verb,
                margin: None,
            });
        }
        if !is_process {
            continue;
        }
        let mut ingredients = Vec::new();
        let mut utensils = Vec::new();
        for arg in frame.all_arguments() {
            match ner[arg] {
                InstructionTag::Ingredient => {
                    let name = expand_name(words, ner, arg, &lemma_noun);
                    if !ingredients.contains(&name) {
                        ingredients.push(name);
                    }
                }
                InstructionTag::Utensil => {
                    let name = lemma_noun(&words[arg]);
                    let accepted = pipeline.dicts.is_utensil(&name);
                    if recipe_obs::provenance::enabled() {
                        recipe_obs::provenance::record(recipe_obs::provenance::Record {
                            kind: "dict.decision",
                            site: "dicts.utensil",
                            subject: name.clone(),
                            decision: if accepted { "accept" } else { "reject" }.to_string(),
                            detail: "dictionary".to_string(),
                            index: arg,
                            margin: None,
                        });
                    }
                    if accepted && !utensils.contains(&name) {
                        utensils.push(name);
                    }
                }
                _ => {}
            }
        }
        if ingredients.is_empty() && utensils.is_empty() {
            continue;
        }
        events.push(CookingEvent {
            process: verb,
            ingredients,
            utensils,
            step,
        });
    }
    events
}

/// Expand a head argument token leftward over contiguous INGREDIENT tokens
/// so multi-word names (`olive oil`) surface whole.
fn expand_name(
    words: &[String],
    ner: &[InstructionTag],
    head: usize,
    lemma: &impl Fn(&str) -> String,
) -> String {
    let mut start = head;
    while start > 0 && ner[start - 1] == InstructionTag::Ingredient {
        start -= 1;
    }
    let parts: Vec<String> = (start..=head).map(|i| lemma(&words[i])).collect();
    parts.join(" ")
}

/// Extract the full temporal event sequence of one recipe. Events carry
/// the index of the instruction *step* (paragraph) they came from.
pub fn extract_recipe_events(pipeline: &TrainedPipeline, recipe: &Recipe) -> Vec<CookingEvent> {
    let _span = recipe_obs::span!("events.recipe");
    let mut events = Vec::new();
    for (step, sentences) in recipe.steps().iter().enumerate() {
        for sent in sentences {
            events.extend(extract_sentence_events(pipeline, &sent.words(), step));
        }
    }
    events
}

/// Reference (uncompiled, uncached) counterpart of
/// [`extract_recipe_events`]; byte-identical output.
pub fn extract_recipe_events_reference(
    pipeline: &TrainedPipeline,
    recipe: &Recipe,
) -> Vec<CookingEvent> {
    let _span = recipe_obs::span!("events.recipe.reference");
    let mut events = Vec::new();
    for (step, sentences) in recipe.steps().iter().enumerate() {
        for sent in sentences {
            events.extend(extract_sentence_events_reference(
                pipeline,
                &sent.words(),
                step,
            ));
        }
    }
    events
}

/// Relation statistics over a set of recipes (conclusion-section metric).
/// The counting unit is the instruction *step*, as in the paper's 174 932
/// steps over 40 000 recipes.
pub fn relation_stats<'a>(
    pipeline: &TrainedPipeline,
    recipes: impl Iterator<Item = &'a Recipe>,
) -> RelationStats {
    let mut counts = Vec::new();
    for recipe in recipes {
        for (step, sentences) in recipe.steps().iter().enumerate() {
            let step_relations: usize = sentences
                .iter()
                .map(|sent| {
                    extract_sentence_events(pipeline, &sent.words(), step)
                        .iter()
                        .map(|e| e.relation_count())
                        .sum::<usize>()
                })
                .sum();
            counts.push(step_relations);
        }
    }
    RelationStats::from_counts(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TrainedPipeline};
    use recipe_corpus::{CorpusSpec, RecipeCorpus};

    fn pipeline() -> (RecipeCorpus, TrainedPipeline) {
        let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(21));
        (
            corpus.clone(),
            TrainedPipeline::train(&corpus, &PipelineConfig::fast()),
        )
    }

    #[test]
    fn stats_from_counts() {
        let s = RelationStats::from_counts(&[2, 4, 6]);
        assert_eq!(s.instructions, 3);
        assert_eq!(s.relations, 12);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(RelationStats::from_counts(&[]).instructions, 0);
    }

    #[test]
    fn events_extracted_from_corpus_sentences() {
        let (corpus, p) = pipeline();
        let mut total_events = 0usize;
        for r in corpus.recipes.iter().take(20) {
            let events = extract_recipe_events(&p, r);
            total_events += events.len();
            for e in &events {
                assert!(!e.process.is_empty());
                assert!(e.relation_count() >= 1);
                assert!(e.step < r.instructions.len());
            }
        }
        assert!(total_events > 10, "only {total_events} events");
    }

    #[test]
    fn events_are_many_to_many() {
        let (corpus, p) = pipeline();
        let mut max_arity = 0usize;
        for r in corpus.recipes.iter().take(60) {
            for e in extract_recipe_events(&p, r) {
                max_arity = max_arity.max(e.relation_count());
            }
        }
        assert!(
            max_arity >= 3,
            "expected compound events, max arity {max_arity}"
        );
    }

    #[test]
    fn relation_stats_have_spread() {
        let (corpus, p) = pipeline();
        let stats = relation_stats(&p, corpus.recipes.iter().take(60));
        assert!(stats.instructions > 50);
        assert!(stats.mean > 0.5, "mean {}", stats.mean);
        assert!(stats.std_dev > 0.5, "std {}", stats.std_dev);
    }

    #[test]
    fn empty_sentence_yields_no_events() {
        let (_, p) = pipeline();
        assert!(extract_sentence_events(&p, &[], 0).is_empty());
    }
}
