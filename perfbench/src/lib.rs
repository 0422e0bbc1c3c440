//! End-to-end and per-layer wall-clock benchmark of the snapedge
//! offloading runtime. See `README.md` in this directory.

pub mod bench;
pub mod catalog;
pub mod decompose;
pub mod epoch;
pub mod host;
pub mod plan;
pub mod stats;
pub mod timed;
