//! The repo benchmark of trance-rs: six workloads, per-strategy end-to-end
//! metrics, per-layer probes and a traced run. It measures the engine only
//! from outside, through public functions, and claims no gain: it is the
//! yardstick later changes are judged by. See `README.md`.

pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
