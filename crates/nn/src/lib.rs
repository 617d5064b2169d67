//! Minimal neural-network substrate with manual backpropagation.
//!
//! The five DL matcher reimplementations in `rlb-matchers` need exactly
//! this much deep learning:
//!
//! - dense layers with ReLU/Tanh/Sigmoid activations ([`dense`]),
//! - a Highway layer (DeepMatcher's classification module uses a two-layer
//!   fully-connected ReLU HighwayNet, Section IV-A),
//! - the Adam optimizer,
//! - binary cross-entropy on logits,
//! - a mini-batch trainer with validation-based model selection
//!   ([`mlp::Mlp::train`]) — the paper explicitly fixes this protocol
//!   (it even patches EMTransformer to select the best epoch on the
//!   validation set rather than the test set). It also hands back the
//!   model a shorter epoch budget ends with
//!   ([`mlp::Mlp::train_with_checkpoints`]), so a matcher reported at two
//!   budgets trains once.
//!
//! Everything is `f32`, seeded, and single-threaded. At benchmark scale
//! (thousands of pairs × ≤ few-hundred features) one training example of
//! the 265→64→1 net costs a few microseconds, forward, backward and its
//! share of the Adam step together, so the roster's six deep methods (twelve
//! configurations) per dataset train in seconds.
//! Weight matrices are stored input-major so the forward pass vectorizes
//! across outputs, and Adam steps over stuck subnormal moments by integer
//! arithmetic; both keep every bit of the straightforward formulation
//! (DESIGN.md §14).

pub mod dense;
pub mod mlp;
#[cfg(test)]
mod reference;

pub use dense::{Activation, DenseLayer, HighwayLayer, Layer};
pub use mlp::{Checkpoint, Mlp, TrainConfig, TrainReport};
