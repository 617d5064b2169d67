//! Textual similarity substrate for record linkage.
//!
//! Implements everything Sections III and IV of the paper rely on for
//! comparing quasi-identifier values:
//!
//! - tokenization and character q-gram extraction ([`tokenize`]),
//! - token-set similarity measures — Cosine, Jaccard, Dice, Overlap
//!   ([`sets`]), which are the features behind the degree of linearity
//!   (Algorithm 1) and the `[CS, JS]` complexity-measure representation,
//! - the dictionary-interned integer twin of those sets ([`intern`]):
//!   [`TokenInterner`] + [`IdSet`] with merge-join/galloping intersections,
//!   used by the hot pipeline paths and extended in place as the resident
//!   service ingests records; [`TokenSet`] stays as the byte-identical
//!   string reference,
//! - edit-based similarities — Levenshtein, Jaro, Jaro-Winkler — and the
//!   hybrid Monge-Elkan measure ([`edit`], [`hybrid`]), used by the
//!   Magellan-style feature builder,
//! - TF-IDF weighting ([`tfidf`]), used by the DITTO-style long-value
//!   summarization and by sentence embeddings,
//! - the Gower distance ([`gower`]) that the neighborhood and network
//!   complexity measures are defined over.

pub mod edit;
pub mod gower;
pub mod hybrid;
pub mod intern;
pub mod sets;
pub mod tfidf;
pub mod tokenize;

pub use gower::{DistanceEngine, GowerSpace};
pub use intern::{IdSet, TokenInterner};
pub use sets::TokenSet;
pub use tokenize::{qgrams, tokens};
