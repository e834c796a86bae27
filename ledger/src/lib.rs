//! Layer ledger: one benchmark for the two end-to-end paths of the
//! repository — the paper's compile-then-score ARG loop and the `qserve`
//! compile service — with per-layer time shares.
//!
//! Layers are timed from outside, around the benchmark's own calls into
//! each crate's public functions; compile passes and service queue and
//! compile times are read from the `PassTrace` and per-tenant histograms
//! the program already keeps. See `README.md` beside this crate.

pub mod check;
pub mod host;
pub mod paper;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;
