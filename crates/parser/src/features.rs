//! Configuration features of the transition classifier, spelled two ways
//! from one template table.
//!
//! Training and [`DependencyParser::parse_reference`] read a
//! configuration as feature *strings* (`"s1w+s1t=boil|VB"`), the averaged
//! perceptron's native input. [`DependencyParser::parse`] reads it as
//! integer *keys*: [`KeyTables`] splits every trained feature string back
//! into its template and the word and tag ids it was built from, and
//! stores the weights as CSR `(class, weight)` runs. A transition then
//! costs one integer probe per template instead of a `format!` and a
//! string hash lookup.
//!
//! The keys fire on exactly the configurations whose strings match a
//! trained feature, so both decoders see the same rows in the same order:
//!
//! * a word may contain `|`, so the two-word value `a|b|c` is built by
//!   both `(a, b|c)` and `(a|b, c)`; it registers one key per `|` split
//!   point, all pointing at the same row;
//! * tags never contain `|`, so a word|tag value splits at its last `|`
//!   and a tag-only value at every `|`;
//! * a word the vocabulary lacks maps to an id that no key uses, and a
//!   token spelled `-ROOT-` or `-NONE-` maps to that sentinel's id, as
//!   its string does;
//! * rows no configuration can produce (unknown template, unknown tag,
//!   impossible geometry value) are skipped: their strings never match;
//! * exact-zero weights are pruned, which can only turn a `-0.0` partial
//!   sum into `+0.0`, and the `>` that picks the transition cannot tell
//!   the two apart.
//!
//! [`DependencyParser::parse_reference`]: crate::parser::DependencyParser::parse_reference
//! [`DependencyParser::parse`]: crate::parser::DependencyParser::parse

use crate::transition::{State, ROOT};
use recipe_tagger::perceptron::AveragedPerceptron;
use recipe_tagger::tagset::NUM_TAGS;
use recipe_tagger::PennTag;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Spelling of the virtual root's word and tag.
const ROOT_SPELLING: &str = "-ROOT-";
/// Spelling of an absent node's word and tag.
const NONE_SPELLING: &str = "-NONE-";

/// A configuration position a template reads.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Top of the stack.
    S1,
    /// Second-topmost stack item.
    S2,
    /// Buffer front.
    B1,
    /// Second buffer item.
    B2,
}

/// One `|`-separated field of a template's value.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// The surface word at a slot.
    Word(Slot),
    /// The POS tag at a slot.
    Tag(Slot),
}

/// How a template computes its value.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The constant `bias` feature, which has no value.
    Bias,
    /// Words and tags of configuration nodes, joined with `|`.
    Fields(&'static [Field]),
    /// Distance from s2 to s1, capped at 5; absent unless both exist.
    Dist,
    /// Stack depth, capped at 5.
    Depth,
    /// Whether the buffer is empty.
    BufEmpty,
}

use Field::{Tag, Word};
use Slot::{B1, B2, S1, S2};

/// The feature templates, `name=value` (the bias is just its name), in the
/// order features are emitted and their scores summed: unigrams and pairs
/// over s1, s2, b1, b2, then stack and buffer geometry.
const TEMPLATES: [(&str, Kind); 19] = [
    ("bias", Kind::Bias),
    ("s1w", Kind::Fields(&[Word(S1)])),
    ("s1t", Kind::Fields(&[Tag(S1)])),
    ("s2w", Kind::Fields(&[Word(S2)])),
    ("s2t", Kind::Fields(&[Tag(S2)])),
    ("b1w", Kind::Fields(&[Word(B1)])),
    ("b1t", Kind::Fields(&[Tag(B1)])),
    ("b2t", Kind::Fields(&[Tag(B2)])),
    ("s1w+s1t", Kind::Fields(&[Word(S1), Tag(S1)])),
    ("s1t+s2t", Kind::Fields(&[Tag(S1), Tag(S2)])),
    ("s1w+s2w", Kind::Fields(&[Word(S1), Word(S2)])),
    ("s1t+b1t", Kind::Fields(&[Tag(S1), Tag(B1)])),
    ("s2t+s1t+b1t", Kind::Fields(&[Tag(S2), Tag(S1), Tag(B1)])),
    ("s1t+b1t+b2t", Kind::Fields(&[Tag(S1), Tag(B1), Tag(B2)])),
    ("s1w+b1w", Kind::Fields(&[Word(S1), Word(B1)])),
    ("s2w+s1t", Kind::Fields(&[Word(S2), Tag(S1)])),
    ("dist", Kind::Dist),
    ("depth", Kind::Depth),
    ("bufempty", Kind::BufEmpty),
];

/// The nodes the templates read in one configuration.
struct Nodes([Option<usize>; 4]);

impl Nodes {
    fn of(state: &State) -> Self {
        let b2 = (state.next < state.n).then_some(state.next + 1);
        Nodes([state.s1(), state.s2(), state.b1(), b2])
    }

    fn at(&self, slot: Slot) -> Option<usize> {
        self.0[slot as usize]
    }
}

impl Kind {
    /// A geometry template's value in `state` (`None` when absent), as a
    /// small integer that [`Kind::spell`] renders.
    fn geometry(self, state: &State) -> Option<u64> {
        match self {
            Kind::Dist => match (state.s2(), state.s1()) {
                (Some(a), Some(b)) => Some(b.saturating_sub(a).min(5) as u64),
                _ => None,
            },
            Kind::Depth => Some(state.stack.len().min(5) as u64),
            Kind::BufEmpty => Some(u64::from(state.b1().is_none())),
            Kind::Bias | Kind::Fields(_) => None,
        }
    }

    /// The largest value [`Kind::geometry`] returns.
    fn max_geometry(self) -> u64 {
        match self {
            Kind::BufEmpty => 1,
            _ => 5,
        }
    }

    /// How a geometry value is written in a feature string.
    fn spell(self, value: u64) -> String {
        match self {
            Kind::BufEmpty => (value == 1).to_string(),
            _ => value.to_string(),
        }
    }
}

fn word_of(words: &[String], node: Option<usize>) -> &str {
    match node {
        None => NONE_SPELLING,
        Some(ROOT) => ROOT_SPELLING,
        Some(node) => words.get(node - 1).map_or(NONE_SPELLING, String::as_str),
    }
}

fn tag_of(tags: &[PennTag], node: Option<usize>) -> &'static str {
    match node {
        None => NONE_SPELLING,
        Some(ROOT) => ROOT_SPELLING,
        Some(node) => tags.get(node - 1).map_or(NONE_SPELLING, |t| t.as_str()),
    }
}

/// The configuration's feature strings, one per present template, in
/// [`TEMPLATES`] order.
pub(crate) fn state_features(state: &State, words: &[String], tags: &[PennTag]) -> Vec<String> {
    let nodes = Nodes::of(state);
    let spell = |field: &Field| match *field {
        Word(slot) => word_of(words, nodes.at(slot)),
        Tag(slot) => tag_of(tags, nodes.at(slot)),
    };
    TEMPLATES
        .iter()
        .filter_map(|&(name, kind)| {
            let value = match kind {
                Kind::Bias => return Some(name.to_string()),
                Kind::Fields(fields) => fields.iter().map(spell).collect::<Vec<_>>().join("|"),
                geometry => geometry.spell(geometry.geometry(state)?),
            };
            Some(format!("{name}={value}"))
        })
        .collect()
}

/// Word ids of the sentinel spellings, which the vocabulary holds first.
const ROOT_WORD: u32 = 0;
const NONE_WORD: u32 = 1;
/// Word id of a token the vocabulary lacks. No key contains it.
const UNSEEN_WORD: u32 = u32::MAX;
/// Tag ids of the sentinels, after the Penn tags' indices.
const ROOT_TAG: u32 = NUM_TAGS as u32;
const NONE_TAG: u32 = ROOT_TAG + 1;

fn tag_id(spelling: &str) -> Option<u32> {
    match spelling {
        ROOT_SPELLING => Some(ROOT_TAG),
        NONE_SPELLING => Some(NONE_TAG),
        _ => spelling.parse::<PennTag>().ok().map(|t| t.index() as u32),
    }
}

/// Append one field's id to a key. Word ids take 32 bits and tag ids 8,
/// so every template's fields pack into the key's low 64 bits.
fn push_field(key: u128, field: Field, id: u32) -> u128 {
    match field {
        Word(_) => key << 32 | u128::from(id),
        Tag(_) => key << 8 | u128::from(id),
    }
}

/// Hashes the integer keys with the splitmix64 finalizer, a fraction of
/// SipHash's cost. Keys come from the trained model; input reaches the
/// table only through vocabulary ids, so it cannot choose colliding keys.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| mix(h ^ u64::from(b)));
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = mix(mix(key as u64) ^ (key >> 64) as u64);
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key (template index in the high 64 bits, packed field ids in the low)
/// → the row's `(start, end)` run in [`KeyTables::runs`].
type KeyMap = HashMap<u128, (u32, u32), BuildHasherDefault<KeyHasher>>;

/// Every way to read `value` as the `|`-joined `fields`. A word may
/// contain `|`; a tag never does, and must be one [`tag_id`] knows.
fn readings<'v>(value: &'v str, fields: &[Field]) -> Vec<Vec<&'v str>> {
    let fits = |field: &Field, part: &str| !matches!(field, Tag(_)) || tag_id(part).is_some();
    match fields {
        [last] if fits(last, value) => vec![vec![value]],
        [] | [_] => Vec::new(),
        [first, rest @ ..] => value
            .match_indices('|')
            .filter(|&(at, _)| fits(first, &value[..at]))
            .flat_map(|(at, _)| {
                let tails = readings(value.get(at + 1..).unwrap_or(""), rest);
                tails.into_iter().map(move |mut parts| {
                    parts.insert(0, &value[..at]);
                    parts
                })
            })
            .collect(),
    }
}

/// The decode tables of a trained parser: the trained feature strings
/// split into integer keys, over CSR weight runs.
#[derive(Debug, Clone)]
pub(crate) struct KeyTables {
    /// Every word a trained feature's word field spells, sentinels first.
    vocab: HashMap<String, u32>,
    /// Every key a trained feature is built from → its weight run.
    keys: KeyMap,
    /// The rows' nonzero `(class, weight)` pairs, row after row.
    runs: Vec<(u32, f64)>,
}

impl KeyTables {
    /// Split `model`'s feature strings into keys. Rows are laid out in
    /// feature-string order, so the tables do not depend on hash order.
    pub(crate) fn build(model: &AveragedPerceptron) -> Self {
        let num_classes = model.num_classes();
        let mut rows: Vec<(&str, &[f64])> = model.weight_rows().collect();
        rows.sort_by_key(|&(feature, _)| feature);
        let mut vocab = HashMap::from([
            (ROOT_SPELLING.to_string(), ROOT_WORD),
            (NONE_SPELLING.to_string(), NONE_WORD),
        ]);
        let mut runs = Vec::new();
        let keys = rows
            .into_iter()
            .flat_map(|(feature, weights)| {
                let keys = feature_keys(feature, &mut vocab);
                let start = runs.len() as u32;
                if !keys.is_empty() {
                    let nonzero = weights.iter().take(num_classes).enumerate();
                    runs.extend(
                        nonzero
                            .filter(|&(_, &w)| w != 0.0)
                            .map(|(class, &w)| (class as u32, w)),
                    );
                }
                let run = (start, runs.len() as u32);
                keys.into_iter().map(move |key| (key, run))
            })
            .collect();
        KeyTables { vocab, keys, runs }
    }

    /// Word and tag ids of a sentence's nodes: index 0 is the virtual
    /// root, 1..=n the tokens, and n + 1 an absent node.
    pub(crate) fn node_ids(&self, words: &[String], tags: &[PennTag]) -> Vec<(u32, u32)> {
        let tokens = words.iter().zip(tags).map(|(w, t)| {
            let word = self.vocab.get(w.as_str()).copied();
            (word.unwrap_or(UNSEEN_WORD), t.index() as u32)
        });
        std::iter::once((ROOT_WORD, ROOT_TAG))
            .chain(tokens)
            .chain(std::iter::once((NONE_WORD, NONE_TAG)))
            .collect()
    }

    /// Class scores of `state` into `scores`: the run of each template's
    /// key, if known, added in [`TEMPLATES`] order, as
    /// `AveragedPerceptron::scores` adds the feature strings' rows.
    pub(crate) fn scores_into(&self, state: &State, node_ids: &[(u32, u32)], scores: &mut [f64]) {
        scores.fill(0.0);
        let nodes = Nodes::of(state);
        let absent = node_ids.len() - 1;
        let ids = |slot| node_ids[nodes.at(slot).unwrap_or(absent)];
        let runs = TEMPLATES.iter().enumerate().filter_map(|(t, &(_, kind))| {
            let fields = match kind {
                Kind::Bias => 0,
                Kind::Fields(fields) => fields.iter().fold(0, |key, &field| {
                    let id = match field {
                        Word(slot) => ids(slot).0,
                        Tag(slot) => ids(slot).1,
                    };
                    push_field(key, field, id)
                }),
                geometry => u128::from(geometry.geometry(state)?),
            };
            self.keys.get(&((t as u128) << 64 | fields))
        });
        runs.flat_map(|&(start, end)| &self.runs[start as usize..end as usize])
            .for_each(|&(class, w)| scores[class as usize] += w);
    }
}

/// Every key `feature` is built from, interning its words in `vocab`;
/// empty when no configuration produces `feature`.
fn feature_keys(feature: &str, vocab: &mut HashMap<String, u32>) -> Vec<u128> {
    let (name, value) = match feature.split_once('=') {
        Some((name, value)) => (name, Some(value)),
        None => (feature, None),
    };
    let Some(t) = TEMPLATES.iter().position(|&(n, _)| n == name) else {
        return Vec::new();
    };
    let fields: Vec<u128> = match (TEMPLATES[t].1, value) {
        (Kind::Bias, None) => vec![0],
        (Kind::Fields(fields), Some(value)) => readings(value, fields)
            .into_iter()
            .filter_map(|parts| {
                fields.iter().zip(parts).try_fold(0, |key, (&field, part)| {
                    let id = match field {
                        Word(_) => {
                            let next = vocab.len() as u32;
                            *vocab.entry(part.to_string()).or_insert(next)
                        }
                        Tag(_) => tag_id(part)?,
                    };
                    Some(push_field(key, field, id))
                })
            })
            .collect(),
        (geometry @ (Kind::Dist | Kind::Depth | Kind::BufEmpty), Some(value)) => {
            let max = geometry.max_geometry();
            let spelled = (0..=max).filter(|&v| geometry.spell(v) == value);
            spelled.map(u128::from).collect()
        }
        _ => Vec::new(),
    };
    fields.into_iter().map(|f| (t as u128) << 64 | f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::Transition;
    use PennTag::*;

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn feature_strings_keep_their_spelling() {
        let w = words(&["boil", "the", "water"]);
        let t = [VB, DT, NN];
        let mut state = State::new(3);
        assert_eq!(
            state_features(&state, &w, &t),
            [
                "bias",
                "s1w=-ROOT-",
                "s1t=-ROOT-",
                "s2w=-NONE-",
                "s2t=-NONE-",
                "b1w=boil",
                "b1t=VB",
                "b2t=DT",
                "s1w+s1t=-ROOT-|-ROOT-",
                "s1t+s2t=-ROOT-|-NONE-",
                "s1w+s2w=-ROOT-|-NONE-",
                "s1t+b1t=-ROOT-|VB",
                "s2t+s1t+b1t=-NONE-|-ROOT-|VB",
                "s1t+b1t+b2t=-ROOT-|VB|DT",
                "s1w+b1w=-ROOT-|boil",
                "s2w+s1t=-NONE-|-ROOT-",
                "depth=1",
                "bufempty=false",
            ]
        );
        for _ in 0..3 {
            state.apply(Transition::Shift);
        }
        let f = state_features(&state, &w, &t);
        assert_eq!(f[1], "s1w=water");
        assert_eq!(f[7], "b2t=-NONE-");
        assert_eq!(f[13], "s1t+b1t+b2t=NN|-NONE-|-NONE-");
        assert_eq!(f[16..], ["dist=1", "depth=4", "bufempty=true"]);
    }

    fn model_with(features: &[&str]) -> AveragedPerceptron {
        let mut model = AveragedPerceptron::new(3);
        for (i, f) in features.iter().enumerate() {
            model.inject_weight(f, i % 3, 1.0 + i as f64);
        }
        model
    }

    fn keys_of(tables: &KeyTables, template: &str) -> usize {
        let t = TEMPLATES.iter().position(|&(n, _)| n == template).unwrap() as u128;
        tables.keys.keys().filter(|&&key| key >> 64 == t).count()
    }

    #[test]
    fn two_word_values_register_every_split_point() {
        let tables = KeyTables::build(&model_with(&["s1w+s2w=a|b|c", "s1w+b1w=||"]));
        assert_eq!(keys_of(&tables, "s1w+s2w"), 2);
        assert_eq!(keys_of(&tables, "s1w+b1w"), 2);
        for w in ["a", "b|c", "a|b", "c", "", "|"] {
            assert!(tables.vocab.contains_key(w), "{w:?}");
        }
    }

    #[test]
    fn word_tag_values_split_at_the_last_bar() {
        let tables = KeyTables::build(&model_with(&["s1w+s1t=a|b|NN", "s2w+s1t=x|-ROOT-"]));
        assert_eq!(keys_of(&tables, "s1w+s1t"), 1);
        assert!(tables.vocab.contains_key("a|b"));
        assert!(!tables.vocab.contains_key("a"));
        assert_eq!(keys_of(&tables, "s2w+s1t"), 1);
    }

    #[test]
    fn unproducible_rows_are_skipped() {
        let tables = KeyTables::build(&model_with(&[
            "bias=1",
            "unknown=x",
            "s1t=PRPS",
            "s1t+s2t=NN",
            "s1t+s2t=NN|VB|DT",
            "s1w+s1t=a",
            "dist=03",
            "depth=6",
            "bufempty=1",
            "noequals",
        ]));
        assert!(tables.runs.is_empty());
        assert!(tables.keys.is_empty());
        assert_eq!(tables.vocab.len(), 2);
    }

    #[test]
    fn sentinel_spellings_share_the_sentinel_ids() {
        let tables = KeyTables::build(&model_with(&["s1w=known"]));
        let ids = tables.node_ids(&words(&["-ROOT-", "-NONE-", "known", "new"]), &[NN; 4]);
        assert_eq!(ids[0], (ROOT_WORD, ROOT_TAG));
        assert_eq!(ids[1].0, ROOT_WORD);
        assert_eq!(ids[2].0, NONE_WORD);
        assert_eq!(ids[4].0, UNSEEN_WORD);
        assert_eq!(ids[5], (NONE_WORD, NONE_TAG));
    }
}
