//! # fungus-summary
//!
//! "Cooking" schemes: bounded-size summaries that preserve answers after
//! the raw data has rotted away.
//!
//! The paper's second natural law demands that data taken out of a relation
//! be "distilled into useful knowledge, summary, consumed by the user, or
//! stored in a new container subject to different data fungi", and its
//! conclusion calls for "better (datamining) 'cooking' schemes". This crate
//! supplies the standard toolbox:
//!
//! | Summary | answers | space |
//! |---|---|---|
//! | [`StreamingMoments`] | count / sum / mean / variance / min / max | O(1) |
//! | [`EquiWidthHistogram`] | range counts, quantiles over a known domain | O(bins) |
//! | [`EquiDepthHistogram`] | equal-mass buckets, quantiles over any domain | O(sample) |
//! | [`CountMinSketch`] | per-key frequencies (overestimate, ε/δ bounds) | O(w·d) |
//! | [`HyperLogLog`] | distinct count (±1.04/√m) | O(2^p) |
//! | [`FadingSketch`] | *time-fading* frequencies and top-k (λ decay/tick) | O(w·d + k) |
//! | [`BiasedReservoir`] | recency-biased sample, `P[keep] ∝ e^(−λ·age)` | O(k) |
//!
//! Sampling and heavy hitters come in one family: the static answers are
//! the λ = 0 case of the fading ones. A [`BiasedReservoir`] at λ = 0 is a
//! uniform reservoir sample, and a [`FadingSketch`] at λ = 0 counts plainly
//! (SpaceSaving over a Count-Min array), so the DDL's `sample(k)` and
//! `topk(k)` build those.
//!
//! All summaries are mergeable (so per-epoch summaries can be rolled up)
//! and deterministic: hashing uses seeded FNV-style functions, never
//! `RandomState`. The two time-fading kinds are driven by the virtual
//! clock and decay *lazily* — counters re-weight on touch, never in a
//! per-tick sweep — so their state is a pure function of the observed
//! (value, tick) sequence.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cms;
pub mod equidepth;
pub mod fading;
pub mod hash;
pub mod histogram;
pub mod hll;
pub mod moments;
pub mod spec;
pub mod tbs;

pub use cms::CountMinSketch;
pub use equidepth::EquiDepthHistogram;
pub use fading::{FadingHitter, FadingSketch};
pub use histogram::EquiWidthHistogram;
pub use hll::HyperLogLog;
pub use moments::StreamingMoments;
pub use spec::{AnySummary, SummarySpec};
pub use tbs::BiasedReservoir;
