//! Benchmark of the SheLL flow, its attacks, and the service: the library
//! behind the `perfbench` binary (see `README.md`).

pub mod attack;
pub mod flow;
pub mod layers;
pub mod redact;
pub mod report;
pub mod serve_mix;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part runs, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
}
