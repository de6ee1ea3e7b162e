//! Labeled dependency trees.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dependency relation labels (the subset of Universal/Stanford labels that
/// recipe instructions exercise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DepLabel {
    /// Sentence root (attached to the virtual root node).
    Root,
    /// Nominal subject: `water` in *the water boils*.
    Nsubj,
    /// Passive nominal subject.
    NsubjPass,
    /// Direct object: `potatoes` in *boil the potatoes*.
    Dobj,
    /// Object of a preposition: `pan` in *in a pan*.
    Pobj,
    /// Prepositional modifier: `in` in *fry in a pan*.
    Prep,
    /// Determiner: `the`, `a`.
    Det,
    /// Adjectival modifier: `large` in *a large pot*.
    Amod,
    /// Adverbial modifier: `gently` in *stir gently*.
    Advmod,
    /// Numeric modifier: `2` in *2 minutes*.
    Nummod,
    /// Noun compound: `olive` in *olive oil*.
    Compound,
    /// Conjunct: second member of a coordination.
    Conj,
    /// Coordinating conjunction word itself (`and`).
    Cc,
    /// Particle: `up` in *cut up*.
    Prt,
    /// Clausal complement marker (`until` clauses).
    Mark,
    /// Adverbial clause: `until tender` attached to the verb.
    Advcl,
    /// Open clausal complement.
    Xcomp,
    /// Punctuation.
    Punct,
    /// Unclassified dependency.
    Dep,
}

impl DepLabel {
    /// All labels in canonical (id) order.
    pub const ALL: [DepLabel; 19] = [
        DepLabel::Root,
        DepLabel::Nsubj,
        DepLabel::NsubjPass,
        DepLabel::Dobj,
        DepLabel::Pobj,
        DepLabel::Prep,
        DepLabel::Det,
        DepLabel::Amod,
        DepLabel::Advmod,
        DepLabel::Nummod,
        DepLabel::Compound,
        DepLabel::Conj,
        DepLabel::Cc,
        DepLabel::Prt,
        DepLabel::Mark,
        DepLabel::Advcl,
        DepLabel::Xcomp,
        DepLabel::Punct,
        DepLabel::Dep,
    ];

    /// Dense id: the position in [`DepLabel::ALL`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Canonical lowercase string (spaCy style).
    pub fn as_str(self) -> &'static str {
        match self {
            DepLabel::Root => "ROOT",
            DepLabel::Nsubj => "nsubj",
            DepLabel::NsubjPass => "nsubjpass",
            DepLabel::Dobj => "dobj",
            DepLabel::Pobj => "pobj",
            DepLabel::Prep => "prep",
            DepLabel::Det => "det",
            DepLabel::Amod => "amod",
            DepLabel::Advmod => "advmod",
            DepLabel::Nummod => "nummod",
            DepLabel::Compound => "compound",
            DepLabel::Conj => "conj",
            DepLabel::Cc => "cc",
            DepLabel::Prt => "prt",
            DepLabel::Mark => "mark",
            DepLabel::Advcl => "advcl",
            DepLabel::Xcomp => "xcomp",
            DepLabel::Punct => "punct",
            DepLabel::Dep => "dep",
        }
    }
}

impl fmt::Display for DepLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors from [`DepTree::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// `heads` and `labels` lengths differ.
    LengthMismatch,
    /// A head index is out of range or a token heads itself.
    BadHead(usize),
    /// Not exactly one root.
    RootCount(usize),
    /// The head relation contains a cycle through the given token.
    Cycle(usize),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::LengthMismatch => write!(f, "heads/labels length mismatch"),
            TreeError::BadHead(i) => write!(f, "bad head for token {i}"),
            TreeError::RootCount(n) => write!(f, "expected exactly one root, found {n}"),
            TreeError::Cycle(i) => write!(f, "cycle through token {i}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A labeled dependency tree over `n` tokens.
///
/// `heads[i] == None` marks the root; otherwise `heads[i]` is the index of
/// token *i*'s head. Construction validates single-rootedness and
/// acyclicity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepTree {
    heads: Vec<Option<usize>>,
    labels: Vec<DepLabel>,
}

impl DepTree {
    /// Validate and build a tree.
    pub fn new(heads: Vec<Option<usize>>, labels: Vec<DepLabel>) -> Result<Self, TreeError> {
        if heads.len() != labels.len() {
            return Err(TreeError::LengthMismatch);
        }
        let n = heads.len();
        let mut roots = 0usize;
        for (i, h) in heads.iter().enumerate() {
            match h {
                None => roots += 1,
                Some(h) => {
                    if *h >= n || *h == i {
                        return Err(TreeError::BadHead(i));
                    }
                }
            }
        }
        if n > 0 && roots != 1 {
            return Err(TreeError::RootCount(roots));
        }
        // Acyclicity: walk up from every node; paths are <= n long.
        for start in 0..n {
            let mut cur = start;
            let mut steps = 0usize;
            while let Some(h) = heads[cur] {
                cur = h;
                steps += 1;
                if steps > n {
                    return Err(TreeError::Cycle(start));
                }
            }
        }
        Ok(DepTree { heads, labels })
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True for the empty tree.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Head of token `i` (`None` for the root).
    pub fn head(&self, i: usize) -> Option<usize> {
        self.heads[i]
    }

    /// Dependency label of token `i` (relation to its head).
    pub fn label(&self, i: usize) -> DepLabel {
        self.labels[i]
    }

    /// Index of the root token; `None` only for the empty tree.
    pub fn root(&self) -> Option<usize> {
        self.heads.iter().position(|h| h.is_none())
    }

    /// Children of token `i` in surface order.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.heads[j] == Some(i))
            .collect()
    }

    /// Children of `i` whose relation is `label`.
    pub fn children_with_label(&self, i: usize, label: DepLabel) -> Vec<usize> {
        self.children(i)
            .into_iter()
            .filter(|&j| self.labels[j] == label)
            .collect()
    }

    /// Is the tree projective (no crossing arcs)? The synthetic grammar
    /// only emits projective trees, which the arc-standard oracle requires.
    pub fn is_projective(&self) -> bool {
        let arcs: Vec<(usize, usize)> = (0..self.len())
            .filter_map(|d| self.heads[d].map(|h| (h.min(d), h.max(d))))
            .collect();
        for &(a1, a2) in &arcs {
            for &(b1, b2) in &arcs {
                // Crossing: a1 < b1 < a2 < b2.
                if a1 < b1 && b1 < a2 && a2 < b2 {
                    return false;
                }
            }
        }
        true
    }

    /// Unlabeled attachment agreement with another tree (fraction of tokens
    /// with the same head).
    pub fn uas(&self, other: &DepTree) -> f64 {
        assert_eq!(self.len(), other.len());
        if self.is_empty() {
            return 0.0;
        }
        let same = (0..self.len())
            .filter(|&i| self.heads[i] == other.heads[i])
            .count();
        same as f64 / self.len() as f64
    }

    /// Labeled attachment agreement (same head *and* same label).
    pub fn las(&self, other: &DepTree) -> f64 {
        assert_eq!(self.len(), other.len());
        if self.is_empty() {
            return 0.0;
        }
        let same = (0..self.len())
            .filter(|&i| self.heads[i] == other.heads[i] && self.labels[i] == other.labels[i])
            .count();
        same as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "bring the water" : bring(root) -> water(dobj) -> the(det)
    fn small_tree() -> DepTree {
        DepTree::new(
            vec![None, Some(2), Some(0)],
            vec![DepLabel::Root, DepLabel::Det, DepLabel::Dobj],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = small_tree();
        assert_eq!(t.len(), 3);
        assert_eq!(t.root(), Some(0));
        assert_eq!(t.head(2), Some(0));
        assert_eq!(t.label(2), DepLabel::Dobj);
        assert_eq!(t.children(0), vec![2]);
        assert_eq!(t.children_with_label(2, DepLabel::Det), vec![1]);
    }

    #[test]
    fn rejects_cycles() {
        let r = DepTree::new(
            vec![Some(1), Some(0), None],
            vec![DepLabel::Dep, DepLabel::Dep, DepLabel::Root],
        );
        assert!(matches!(r, Err(TreeError::Cycle(_))));
    }

    #[test]
    fn rejects_multi_root_and_self_head() {
        assert!(matches!(
            DepTree::new(vec![None, None], vec![DepLabel::Root, DepLabel::Root]),
            Err(TreeError::RootCount(2))
        ));
        assert!(matches!(
            DepTree::new(vec![None, Some(1)], vec![DepLabel::Root, DepLabel::Dep]),
            Err(TreeError::BadHead(1))
        ));
        assert!(matches!(
            DepTree::new(vec![None, Some(9)], vec![DepLabel::Root, DepLabel::Dep]),
            Err(TreeError::BadHead(1))
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert_eq!(
            DepTree::new(vec![None], vec![]),
            Err(TreeError::LengthMismatch)
        );
    }

    #[test]
    fn projectivity() {
        assert!(small_tree().is_projective());
        // Crossing arcs: 0->2 and 1->3.
        let crossing = DepTree::new(
            vec![None, Some(3), Some(0), Some(0)],
            vec![DepLabel::Root, DepLabel::Dep, DepLabel::Dep, DepLabel::Dep],
        )
        .unwrap();
        assert!(!crossing.is_projective());
    }

    #[test]
    fn attachment_scores() {
        let a = small_tree();
        let b = DepTree::new(
            vec![None, Some(0), Some(0)],
            vec![DepLabel::Root, DepLabel::Det, DepLabel::Dobj],
        )
        .unwrap();
        assert!((a.uas(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.las(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tree_is_fine() {
        let t = DepTree::new(vec![], vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        assert!(t.is_projective());
    }

    #[test]
    fn label_indices_are_dense_and_unique() {
        for (i, l) in DepLabel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }
}
