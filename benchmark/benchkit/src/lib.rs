//! Shared pieces of the `resa` benchmark. Nothing here links a `resa-*`
//! crate: the end-to-end driver builds on this crate alone.

pub mod gen;
pub mod hash;
pub mod metrics;
pub mod reply;
pub mod rng;
pub mod spans;
pub mod stats;
