//! Greedy transition-based dependency parser.
//!
//! An averaged perceptron scores transitions from configuration features
//! (word and POS of the top stack items and buffer front, their pairs, and
//! structural context), exactly the recipe of Nivre-style greedy parsers.
//! Training imitates the static oracle on gold projective trees.

use crate::features::{state_features, KeyTables};
use crate::transition::{all_transitions, gold_arrays, oracle, transition_id, State, Transition};
use crate::tree::DepTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use recipe_tagger::perceptron::AveragedPerceptron;
use recipe_tagger::PennTag;
use serde::{de_field, DeError, Deserialize, Serialize, Value};

/// Parser training configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParserConfig {
    /// Passes over the training treebank.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig {
            epochs: 8,
            seed: 42,
        }
    }
}

/// A training instance: tokens, POS tags, gold tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParseExample {
    /// Surface tokens.
    pub words: Vec<String>,
    /// POS tags, parallel to `words`.
    pub tags: Vec<PennTag>,
    /// Gold dependency tree.
    pub tree: DepTree,
}

/// A trained greedy arc-standard parser.
///
/// Serializes as its classifier and transition inventory (the JSON keys
/// `model` and `transitions`); the integer-key decode tables are derived
/// from the classifier when the parser is trained or loaded.
#[derive(Debug, Clone)]
pub struct DependencyParser {
    model: AveragedPerceptron,
    transitions: Vec<Transition>,
    /// Decode tables built from `model`, which nothing can change after.
    keys: KeyTables,
}

impl Serialize for DependencyParser {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("model".to_string(), self.model.to_json_value()),
            ("transitions".to_string(), self.transitions.to_json_value()),
        ])
    }
}

impl Deserialize for DependencyParser {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Ok(DependencyParser::new(
            de_field(v, "model")?,
            de_field(v, "transitions")?,
        ))
    }
}

impl DependencyParser {
    fn new(model: AveragedPerceptron, transitions: Vec<Transition>) -> Self {
        let keys = KeyTables::build(&model);
        DependencyParser {
            model,
            transitions,
            keys,
        }
    }

    /// Train on gold trees (must be projective; non-projective examples are
    /// skipped with no error since the oracle cannot reproduce them).
    pub fn train(examples: &[ParseExample], cfg: &ParserConfig) -> Self {
        let transitions = all_transitions();
        let mut model = AveragedPerceptron::new(transitions.len());
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &ei in &order {
                let ex = &examples[ei];
                if ex.tree.is_empty() || !ex.tree.is_projective() {
                    continue;
                }
                let (gh, gl) = gold_arrays(&ex.tree);
                let mut state = State::new(ex.tree.len());
                let max_steps = 2 * ex.tree.len();
                for _ in 0..max_steps {
                    if state.is_terminal() {
                        break;
                    }
                    let gold_t = oracle(&state, &gh, &gl);
                    let feats = state_features(&state, &ex.words, &ex.tags);
                    let legal: Vec<usize> = (0..transitions.len())
                        .filter(|&i| state.is_legal(transitions[i]))
                        .collect();
                    let guess = model.predict_constrained(&feats, &legal);
                    model.update(transition_id(gold_t), guess, &feats);
                    // Follow the oracle (no exploration) — standard static
                    // oracle training.
                    state.apply(gold_t);
                }
            }
        }
        model.finalize_averaging();
        DependencyParser::new(model, transitions)
    }

    /// Greedy-parse a tagged sentence into a dependency tree, scoring
    /// transitions from integer feature keys. The tree equals
    /// [`DependencyParser::parse_reference`]'s on every input.
    pub fn parse(&self, words: &[String], tags: &[PennTag]) -> DepTree {
        let node_ids = self.keys.node_ids(words, tags);
        let mut scores = vec![0.0; self.model.num_classes()];
        self.greedy(words, tags, |state| {
            self.keys.scores_into(state, &node_ids, &mut scores);
            // The best legal transition, the lowest id winning ties, as
            // in `AveragedPerceptron::predict_constrained`.
            self.transitions
                .iter()
                .enumerate()
                .filter(|&(_, t)| state.is_legal(*t))
                .map(|(id, _)| id)
                .reduce(|best, id| if scores[id] > scores[best] { id } else { best })
        })
    }

    /// Greedy parse from feature strings, as the classifier was trained:
    /// the reference decode [`DependencyParser::parse`] is checked against.
    pub fn parse_reference(&self, words: &[String], tags: &[PennTag]) -> DepTree {
        self.greedy(words, tags, |state| {
            let feats = state_features(state, words, tags);
            let legal: Vec<usize> = (0..self.transitions.len())
                .filter(|&i| state.is_legal(self.transitions[i]))
                .collect();
            (!legal.is_empty()).then(|| self.model.predict_constrained(&feats, &legal))
        })
    }

    /// The greedy decoder: apply the transition `choose` picks until the
    /// configuration is terminal, or until `choose` finds no legal
    /// transition (possible only with a partial transition inventory).
    fn greedy(
        &self,
        words: &[String],
        tags: &[PennTag],
        mut choose: impl FnMut(&State) -> Option<usize>,
    ) -> DepTree {
        assert_eq!(words.len(), tags.len(), "words/tags length mismatch");
        let n = words.len();
        if n == 0 {
            return DepTree::new(vec![], vec![]).expect("empty tree");
        }
        let mut state = State::new(n);
        // Arc-standard terminates after exactly 2n transitions; the bound
        // guards against pathological loops.
        for _ in 0..(2 * n + 4) {
            if state.is_terminal() {
                break;
            }
            let Some(choice) = choose(&state) else { break };
            state.apply(self.transitions[choice]);
        }
        state.into_tree().expect("arc-standard yields a valid tree")
    }

    /// Beam-search parse: keep the `beam` highest-scoring transition
    /// sequences instead of committing greedily. `beam == 1` reproduces
    /// [`DependencyParser::parse`]; larger beams recover from early
    /// attachment mistakes at linear extra cost.
    pub fn parse_beam(&self, words: &[String], tags: &[PennTag], beam: usize) -> DepTree {
        self.parse_beam_scored(words, tags, beam).1
    }

    /// Beam-search parse returning the winning hypothesis' cumulative
    /// model score alongside the tree (the score is what the beam
    /// optimizes; tests assert it is non-decreasing in the beam width).
    pub fn parse_beam_scored(
        &self,
        words: &[String],
        tags: &[PennTag],
        beam: usize,
    ) -> (f64, DepTree) {
        assert_eq!(words.len(), tags.len(), "words/tags length mismatch");
        assert!(beam >= 1, "beam width must be positive");
        let n = words.len();
        if n == 0 {
            return (0.0, DepTree::new(vec![], vec![]).expect("empty tree"));
        }
        // Hypotheses: (cumulative score, state).
        let mut hyps: Vec<(f64, State)> = vec![(0.0, State::new(n))];
        for _ in 0..(2 * n + 4) {
            if hyps.iter().all(|(_, s)| s.is_terminal()) {
                break;
            }
            let mut next: Vec<(f64, State)> = Vec::with_capacity(hyps.len() * 4);
            for (score, state) in &hyps {
                if state.is_terminal() {
                    next.push((*score, state.clone()));
                    continue;
                }
                let feats = state_features(state, words, tags);
                let scores = self.model.scores(&feats);
                for (tid, t) in self.transitions.iter().enumerate() {
                    if !state.is_legal(*t) {
                        continue;
                    }
                    let mut s2 = state.clone();
                    s2.apply(*t);
                    next.push((score + scores[tid], s2));
                }
            }
            next.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            next.truncate(beam);
            hyps = next;
        }
        let (score, best) = hyps.into_iter().next().expect("at least one hypothesis");
        (
            score,
            best.into_tree().expect("arc-standard yields a valid tree"),
        )
    }

    /// Unlabeled/labeled attachment scores over a treebank.
    pub fn evaluate(&self, examples: &[ParseExample]) -> (f64, f64) {
        let mut uas_sum = 0.0;
        let mut las_sum = 0.0;
        let mut count = 0usize;
        for ex in examples {
            if ex.tree.is_empty() {
                continue;
            }
            let pred = self.parse(&ex.words, &ex.tags);
            uas_sum += pred.uas(&ex.tree);
            las_sum += pred.las(&ex.tree);
            count += 1;
        }
        if count == 0 {
            (0.0, 0.0)
        } else {
            (uas_sum / count as f64, las_sum / count as f64)
        }
    }

    /// The underlying transition classifier.
    pub fn model(&self) -> &AveragedPerceptron {
        &self.model
    }

    /// The transition inventory the classifier chooses from.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of features in the underlying classifier.
    pub fn num_features(&self) -> usize {
        self.model.num_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DepLabel;

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| s.to_string()).collect()
    }

    /// Tiny treebank of imperative recipe-style sentences.
    fn treebank() -> Vec<ParseExample> {
        use DepLabel::*;
        use PennTag::*;
        let mut bank = vec![ParseExample {
            words: words(&["boil", "the", "water"]),
            tags: vec![VB, DT, NN],
            tree: DepTree::new(vec![None, Some(2), Some(0)], vec![Root, Det, Dobj]).unwrap(),
        }];
        // "chop the onion"
        bank.push(ParseExample {
            words: words(&["chop", "the", "onion"]),
            tags: vec![VB, DT, NN],
            tree: DepTree::new(vec![None, Some(2), Some(0)], vec![Root, Det, Dobj]).unwrap(),
        });
        // "stir gently"
        bank.push(ParseExample {
            words: words(&["stir", "gently"]),
            tags: vec![VB, RB],
            tree: DepTree::new(vec![None, Some(0)], vec![Root, Advmod]).unwrap(),
        });
        // "fry the potatoes in a pan"
        bank.push(ParseExample {
            words: words(&["fry", "the", "potatoes", "in", "a", "pan"]),
            tags: vec![VB, DT, NNS, IN, DT, NN],
            tree: DepTree::new(
                vec![None, Some(2), Some(0), Some(0), Some(5), Some(3)],
                vec![Root, Det, Dobj, Prep, Det, Pobj],
            )
            .unwrap(),
        });
        bank
    }

    #[test]
    fn fits_training_treebank() {
        let bank = treebank();
        let parser = DependencyParser::train(
            &bank,
            &ParserConfig {
                epochs: 20,
                seed: 1,
            },
        );
        let (uas, las) = parser.evaluate(&bank);
        assert!(uas > 0.95, "UAS {uas}");
        assert!(las > 0.95, "LAS {las}");
    }

    #[test]
    fn generalizes_to_same_structure_new_words() {
        let bank = treebank();
        let parser = DependencyParser::train(
            &bank,
            &ParserConfig {
                epochs: 20,
                seed: 1,
            },
        );
        use PennTag::*;
        let tree = parser.parse(&words(&["mince", "the", "garlic"]), &[VB, DT, NN]);
        assert_eq!(tree.root(), Some(0));
        assert_eq!(tree.head(2), Some(0));
        assert_eq!(tree.label(2), DepLabel::Dobj);
    }

    #[test]
    fn parse_always_returns_valid_tree() {
        let bank = treebank();
        let parser = DependencyParser::train(&bank, &ParserConfig { epochs: 2, seed: 1 });
        use PennTag::*;
        // Nonsense input still yields a well-formed tree.
        let tree = parser.parse(
            &words(&["pan", "pan", "pan", "pan", "pan"]),
            &[NN, NN, NN, NN, NN],
        );
        assert_eq!(tree.len(), 5);
        assert!(tree.root().is_some());
    }

    #[test]
    fn empty_sentence() {
        let parser = DependencyParser::train(&treebank(), &ParserConfig { epochs: 1, seed: 1 });
        let tree = parser.parse(&[], &[]);
        assert!(tree.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let bank = treebank();
        let a = DependencyParser::train(&bank, &ParserConfig { epochs: 5, seed: 3 });
        let b = DependencyParser::train(&bank, &ParserConfig { epochs: 5, seed: 3 });
        use PennTag::*;
        let w = words(&["saute", "the", "shallots"]);
        let t = [VB, DT, NNS];
        assert_eq!(a.parse(&w, &t), b.parse(&w, &t));
    }

    #[test]
    fn beam_one_matches_greedy() {
        let bank = treebank();
        let parser = DependencyParser::train(
            &bank,
            &ParserConfig {
                epochs: 10,
                seed: 2,
            },
        );
        use PennTag::*;
        for (w, t) in [
            (words(&["boil", "the", "water"]), vec![VB, DT, NN]),
            (
                words(&["fry", "the", "potatoes", "in", "a", "pan"]),
                vec![VB, DT, NNS, IN, DT, NN],
            ),
        ] {
            assert_eq!(parser.parse_beam(&w, &t, 1), parser.parse(&w, &t));
        }
    }

    #[test]
    fn wider_beam_scores_monotonically() {
        // The beam optimizes cumulative model score: the winning score is
        // non-decreasing in the beam width. (Gold accuracy need not be —
        // the classifier was trained for greedy decoding.)
        let bank = treebank();
        let parser = DependencyParser::train(&bank, &ParserConfig { epochs: 3, seed: 5 });
        for ex in &bank {
            let mut last = f64::NEG_INFINITY;
            for beam in [1usize, 2, 4, 8] {
                let (score, tree) = parser.parse_beam_scored(&ex.words, &ex.tags, beam);
                assert!(score >= last - 1e-9, "beam {beam}: {score} < {last}");
                assert_eq!(tree.len(), ex.words.len());
                last = score;
            }
        }
    }

    #[test]
    fn beam_parse_is_well_formed_on_nonsense() {
        let bank = treebank();
        let parser = DependencyParser::train(&bank, &ParserConfig { epochs: 2, seed: 1 });
        use PennTag::*;
        let tree = parser.parse_beam(&words(&["a", "a", "a", "a"]), &[DT, DT, DT, DT], 3);
        assert_eq!(tree.len(), 4);
        assert!(tree.root().is_some());
        assert!(parser.parse_beam(&[], &[], 2).is_empty());
    }

    #[test]
    fn key_decode_matches_string_decode() {
        let bank = treebank();
        use PennTag::*;
        let mut inputs: Vec<(Vec<String>, Vec<PennTag>)> = bank
            .iter()
            .map(|ex| (ex.words.clone(), ex.tags.clone()))
            .collect();
        inputs.push((
            words(&["whisk", "-ROOT-", "a|b", "eggs"]),
            vec![VB, NN, SYM, NNS],
        ));
        inputs.push((words(&["-NONE-", "the", ""]), vec![NN, DT, NN]));
        // Zero epochs leave every score tied at zero, so the tie-break
        // decides every transition.
        for (epochs, seed) in [(0, 0), (1, 1), (6, 2), (6, 3)] {
            let parser = DependencyParser::train(&bank, &ParserConfig { epochs, seed });
            let mut scores = vec![0.0; parser.model.num_classes()];
            for (w, t) in &inputs {
                assert_eq!(parser.parse(w, t), parser.parse_reference(w, t), "{w:?}");
                // Every configuration on the way scores bit for bit alike.
                let node_ids = parser.keys.node_ids(w, t);
                let mut state = State::new(w.len());
                while !state.is_terminal() {
                    parser.keys.scores_into(&state, &node_ids, &mut scores);
                    let feats = state_features(&state, w, t);
                    assert_eq!(
                        scores,
                        parser.model.scores(&feats),
                        "{w:?} at {:?}",
                        state.stack
                    );
                    let legal: Vec<usize> = (0..parser.transitions.len())
                        .filter(|&i| state.is_legal(parser.transitions[i]))
                        .collect();
                    let best = parser.model.predict_constrained(&feats, &legal);
                    state.apply(parser.transitions[best]);
                }
            }
        }
    }

    #[test]
    fn json_round_trip_keeps_keys_and_decodes_identically() {
        let parser = DependencyParser::train(&treebank(), &ParserConfig { epochs: 6, seed: 4 });
        let json = serde_json::to_value(&parser);
        let keys: Vec<&str> = match &json {
            serde::Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("parser serialized as {other:?}"),
        };
        assert_eq!(keys, ["model", "transitions"]);
        let text = serde_json::to_string(&parser).unwrap();
        let back: DependencyParser = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        use PennTag::*;
        for (w, t) in [
            (
                words(&["fry", "the", "onion", "in", "a", "pan"]),
                vec![VB, DT, NN, IN, DT, NN],
            ),
            (words(&["stir", "unseen", "gently"]), vec![VB, NN, RB]),
        ] {
            assert_eq!(back.parse(&w, &t), parser.parse(&w, &t));
            assert_eq!(back.parse(&w, &t), back.parse_reference(&w, &t));
        }
    }

    #[test]
    fn evaluate_empty_bank() {
        let parser = DependencyParser::train(&treebank(), &ParserConfig { epochs: 1, seed: 1 });
        assert_eq!(parser.evaluate(&[]), (0.0, 0.0));
    }
}
