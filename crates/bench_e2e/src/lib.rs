//! # bench_e2e — the served-query benchmark
//!
//! Seeded `catalog` documents and request streams are run against a
//! live `xpq serve` over a Unix socket, one fresh server per workload.
//! Every response is checked against an oracle computed from the
//! document model. An untraced run reports the end-to-end metrics
//! (set-up time, open-loop median latency from the due time, the
//! server's CPU time per request, peak memory, snapshot size); a traced
//! run reports the per-layer breakdown. See `README.md` next to this
//! crate for the
//! workloads, metrics and comparison rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod compare;
pub mod run;
pub mod server;
pub mod trace;
pub mod workload;
