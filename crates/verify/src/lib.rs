//! `shell-verify` — the verification campaigns of the SheLL reproduction.
//!
//! The exact equivalence checks themselves ([`shell_sat::equiv_sat()`] and
//! [`shell_sat::equiv_sat_bounded`]) live in `shell-sat`, next to the miter
//! CNF they share with the oracle-guided SAT attack. This crate drives them
//! across the whole flow:
//!
//! * [`fault`] — the seeded fault-injection campaign: bit-flips and
//!   stuck-at faults injected into configured bitstreams, every faulted
//!   configuration re-verified inside a panic guard and classified as
//!   detected / masked-with-proof / undetected / panicked,
//! * [`fuzz`] — the differential flow fuzzer: seeded random netlists pushed
//!   through LUT-map → place-and-route → bitstream → fabric emulation →
//!   lock → activate, with every stage boundary miter-checked, mismatches
//!   delta-shrunk, and replayable JSON artifacts written.

#![warn(missing_docs)]

pub mod fault;
pub mod fuzz;

pub use fault::{
    fault_campaign, Fault, FaultCampaignReport, FaultKind, FaultOutcome, FaultRecord,
};
pub use fuzz::{
    replay_artifact, run_pipeline, FuzzConfig, FuzzReport, FuzzSpec, SampleReport, SampleStatus,
};
