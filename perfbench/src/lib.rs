//! The repository benchmark: live and NIC-staged per-core throughput of
//! the production runtime on three campus workloads, plus a per-layer
//! cycle budget timed from outside the program. See `README.md`.

pub mod bench;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod traced;
pub mod workload;
