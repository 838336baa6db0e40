//! `clarify-servebench`: the end-to-end benchmark of the `clarify serve`
//! daemon and its traced per-layer replay. See `README.md` beside this
//! package for the metrics, workloads and commands.

pub mod check;
pub mod client;
pub mod gen;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod trace;
