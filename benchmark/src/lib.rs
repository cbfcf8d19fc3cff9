//! The repo benchmark: four fixed-script workloads under an
//! operation-count decay clock. See `README.md` beside this package.
//!
//! Everything here compiles against the small end-to-end surface listed
//! in `run.rs`; the wider surface the per-layer run needs (`Session`,
//! `Request`/`Response` codecs, frame functions, `parse_statement`) lives
//! only in the `bench-layers` binary, so an API change there cannot stop
//! the end-to-end numbers from building.

#![warn(missing_docs)]

pub mod args;
pub mod check;
pub mod host;
pub mod procfs;
pub mod report;
pub mod run;
pub mod script;
pub mod span;
pub mod stats;
