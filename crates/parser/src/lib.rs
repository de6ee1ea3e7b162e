#![warn(missing_docs)]

//! Dependency-parsing substrate for instruction mining.
//!
//! §III.B of the paper dependency-parses every instruction sentence (the
//! authors used spaCy) and extracts, for every verb classified as a cooking
//! process, its subjects, objects and prepositional objects — the raw
//! material for the many-to-many event tuples of Fig. 5.
//!
//! This crate implements that substrate from scratch:
//!
//! * [`tree::DepTree`] / [`tree::DepLabel`] — labeled dependency trees with
//!   well-formedness and projectivity checks;
//! * [`transition`] — the arc-standard transition system with a static
//!   oracle;
//! * [`parser::DependencyParser`] — a greedy transition parser driven by an
//!   averaged perceptron, trained on gold trees from feature strings and
//!   decoding from integer feature keys (the private `features` module);
//! * [`extract`] — the verb-argument collection rules (subjects, objects,
//!   prepositional objects, conjunction expansion).
//!
//! # Example
//!
//! ```
//! use recipe_parser::tree::{DepLabel, DepTree};
//! use recipe_parser::extract::verb_frames;
//! use recipe_tagger::PennTag;
//!
//! // "boil the potatoes" — gold tree: boil <- potatoes (dobj), potatoes <- the (det)
//! let tree = DepTree::new(
//!     vec![None, Some(2), Some(0)],
//!     vec![DepLabel::Root, DepLabel::Det, DepLabel::Dobj],
//! ).unwrap();
//! let tags = [PennTag::VB, PennTag::DT, PennTag::NNS];
//! let frames = verb_frames(&tree, &tags);
//! assert_eq!(frames.len(), 1);
//! assert_eq!(frames[0].verb, 0);
//! assert_eq!(frames[0].objects, vec![2]);
//! ```

pub mod extract;
mod features;
pub mod parser;
pub mod transition;
pub mod tree;

pub use extract::{verb_frames, VerbFrame};
pub use parser::{DependencyParser, ParserConfig};
pub use tree::{DepLabel, DepTree};
