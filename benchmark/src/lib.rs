//! The serve-path benchmark of procache: four workloads, twelve end-to-end
//! metrics, and per-layer attribution taken from outside the library by
//! timing calls into its public functions. See `README.md`.

pub mod alloc;
pub mod compare;
pub mod driver;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod rig;
pub mod single;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workloads;
