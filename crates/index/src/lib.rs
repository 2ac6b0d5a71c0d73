//! # precis-index
//!
//! The **inverted index** module of the Précis system architecture (§4):
//! "an inverted index associates each token that appears in the database
//! with a list of occurrences of the token. Each occurrence is recorded as
//! an attribute-relation pair (R_j, A_lj) \[with\] the list Tids_lj of ids of
//! tuples from R_j in which A_lj includes the token."
//!
//! Word-level postings are built over every `Text` attribute; query tokens
//! may be multi-word phrases (`"Woody Allen"`), which are answered by
//! intersecting word postings and verifying contiguity against the stored
//! value.

mod inverted;
pub mod postings;
mod synonyms;
mod tokenizer;

pub use inverted::{InvertedIndex, Occurrence};
pub use postings::{gallop, intersect, intersect_many, merge_k};
pub use synonyms::SynonymMap;
pub use tokenizer::{tokenize, Tokenizer};
