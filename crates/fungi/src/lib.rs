//! # fungus-fungi
//!
//! The data-fungus library: every decay model the engine supports.
//!
//! The paper's first natural law says the extent of a relation "decays with
//! a periodic clock of `T` seconds using a data fungus `F` until it has
//! completely disappeared", and notes that "many more data fungi can be
//! considered, based on their rate of decay, what to decay, how to decay".
//! This crate is that design space:
//!
//! | Fungus | kind | what decays | how |
//! |---|---|---|---|
//! | [`Fungus::Null`] | — | nothing | baseline for comparisons |
//! | [`RetentionFungus`] | row | tuples older than a TTL | instant rot (the paper's "old-fashioned" decay) |
//! | [`LinearFungus`] | row | every tuple | fixed freshness loss per tick |
//! | [`ExponentialFungus`] | row | every tuple | geometric freshness scaling with a rot threshold |
//! | [`LeaseFungus`] | row | tuples idle since their last read | sliding TTL renewed by every access |
//! | [`ImportanceFungus`] | row | cold, unread tuples fastest | decay inversely proportional to access activity |
//! | [`SlidingWindowFungus`] | process | all but the newest N tuples | instant rot (count-based window) |
//! | [`StochasticFungus`] | process | random victims | per-tick eviction probability, optionally age-weighted |
//! | [`EgiFungus`] | process | rotting *spots* | the paper's Evict-Grouped-Individuals: seed + neighbour spread |
//!
//! A [`FungusSpec`] builds the closed [`Fungus`] enum. A *row* fungus is a
//! pure step from one tuple's metadata and `now` to its new freshness
//! ([`RowFungus::step`]); the engine applies it in the one walk each
//! layout implements ([`DecaySurface::rot_walk`]). A *process* draws from
//! its RNG stream or depends on a tuple's rank, and drives the
//! [`DecaySurface`] itself. No fungus touches attribute values or evicts —
//! eviction of rotten tuples is the engine's job, after distillation has
//! seen them.
//!
//! [`DecaySurface`]: fungus_storage::DecaySurface
//! [`DecaySurface::rot_walk`]: fungus_storage::DecaySurface::rot_walk

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod egi;
pub mod exponential;
pub mod fungus;
pub mod importance;
pub mod lease;
pub mod retention;
pub mod spec;
pub mod stochastic;
pub mod window;

pub use egi::{EgiConfig, EgiFungus, SeedBias};
pub use exponential::ExponentialFungus;
pub use fungus::{Fungus, RowFungus};
pub use importance::ImportanceFungus;
pub use lease::LeaseFungus;
pub use retention::{LinearFungus, RetentionFungus};
pub use spec::FungusSpec;
pub use stochastic::StochasticFungus;
pub use window::SlidingWindowFungus;

#[cfg(test)]
pub(crate) mod testutil {
    use fungus_storage::{StorageConfig, TableStore};
    use fungus_types::{DataType, Schema, Tick, TupleId, Value};

    /// A one-column table with `n` tuples inserted at ticks `0..n`.
    pub fn table_with(n: u64) -> TableStore {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut t = TableStore::new(schema, StorageConfig::for_tests()).unwrap();
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64)], Tick(i)).unwrap();
        }
        t
    }

    /// Freshness of tuple `id`, panicking if it is not live.
    pub fn freshness(t: &TableStore, id: u64) -> f64 {
        t.get(TupleId(id)).expect("tuple live").meta.freshness.get()
    }
}
