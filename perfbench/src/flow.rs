//! The SheLL flow called one layer at a time, plus the checks every
//! workload shares.
//!
//! [`lock_by_layers`] makes the same public calls `shell_lock` makes, in the
//! same order, with a benchmark span around each, so the traced run can
//! split a lock into layers. [`check_decomposition`] proves that the split
//! flow produces what `shell_lock` produces.

use crate::layers::{counter, span};
use crate::report::digest_bits;
use shell_circuits::Benchmark;
use shell_fabric::{shrink_locked_netlist, to_locked_netlist, FabricConfig, FramedBitstream};
use shell_lock::{
    partition_by_cells, select_subcircuit, shell_lock, AttemptRecord, RedactionOutcome,
    ShellOptions,
};
use shell_netlist::equiv::{equiv_random, equiv_sequential_random};
use shell_netlist::Netlist;
use shell_pnr::{place_and_route_with_chains, PnrError, PnrResult};
use std::collections::{BTreeMap, BTreeSet};

/// Cycles of lockstep simulation behind every "activated design equals the
/// original" check (the end-to-end tests use 48).
pub const ACTIVATION_CYCLES: usize = 48;

/// The five Table III designs at the scale every table harness uses.
pub fn table3_designs() -> Vec<(Benchmark, Netlist)> {
    Benchmark::all()
        .into_iter()
        .map(|b| {
            (
                b,
                shell_circuits::generate(b, shell_circuits::Scale::small()),
            )
        })
        .collect()
}

/// `shell_lock(design, options)` with one benchmark span per layer call.
///
/// The calls, the fit ladder and the outcome follow `shell_lock` →
/// `shell_lock_cells_with_fabric` → `map_with_ladder` → `finish` in
/// `crates/core/src/pipeline.rs`, including the `lock.flow` and
/// `lock.ladder_rung` spans those emit. A change to that flow must be made
/// here too; [`check_decomposition`] and the fidelity tests catch a copy
/// that has drifted.
///
/// # Errors
///
/// The flow's own [`PnrError`]s.
pub fn lock_by_layers(
    design: &Netlist,
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    let _lock = shell_trace::span(span::LOCK);
    let selection = {
        let _s = shell_trace::span(span::SELECT);
        select_subcircuit(design, &options.selection)
    };
    let _flow = shell_trace::span("lock.flow");
    let config = FabricConfig::fabulous_style(true);
    config
        .validate()
        .map_err(|e| PnrError::Unsupported(format!("invalid fabric config: {e}")))?;
    let partition = {
        let _s = shell_trace::span(span::DECOUPLE);
        partition_by_cells(design, &selection.cells)
    };
    let (pnr, attempts) = {
        let _s = shell_trace::span(span::LOCK_PNR);
        map_with_ladder(&partition.sub, config, options)?
    };
    let locked_fabric = {
        let _s = shell_trace::span(span::EMIT);
        to_locked_netlist(&pnr.fabric, &pnr.io_map)
    };
    let key_bits_before_shrink = locked_fabric.key_inputs().len();
    let (fabric_netlist, key) = if options.skip_shrink {
        (locked_fabric, pnr.bitstream.as_bools().to_vec())
    } else {
        let shrunk = {
            let _s = shell_trace::span(span::SHRINK);
            shrink_locked_netlist(&locked_fabric, &pnr.bitstream)
        };
        shell_trace::counter_add(counter::SHRINK_IN, locked_fabric.cell_count() as u64);
        shell_trace::counter_add(counter::SHRINK_OUT, shrunk.cell_count() as u64);
        let key: Vec<bool> = (0..pnr.bitstream.len())
            .filter(|&i| pnr.bitstream.is_used(i))
            .map(|i| pnr.bitstream.bit(i))
            .collect();
        (shrunk, key)
    };
    let locked = {
        let _s = shell_trace::span(span::REASSEMBLE);
        partition
            .reassemble(fabric_netlist)
            .map_err(|e| PnrError::VerificationFailed(format!("reassembly failed: {e}")))?
    };
    let framed = {
        let _s = shell_trace::span(span::FRAME);
        FramedBitstream::from_flat(&pnr.fabric, &pnr.bitstream)
            .map_err(|e| PnrError::VerificationFailed(format!("frame packing failed: {e}")))?
    };
    shell_trace::counter_add(counter::LOCKS, 1);
    Ok(RedactionOutcome {
        locked,
        key,
        fabric: pnr.fabric,
        bitstream: pnr.bitstream,
        framed,
        partition_cells: partition.cells_moved,
        route_cells: partition.route_cells,
        utilization: pnr.utilization,
        shrunk: !options.skip_shrink,
        key_bits_before_shrink,
        attempts,
        degraded: pnr.degraded,
    })
}

/// The fit ladder of `shell_lock`, rung for rung: wider channels, then more
/// fit attempts, then more placement starts. Every rung, failed or not, is
/// journaled; errors other than a fit failure end the ladder at once.
fn map_with_ladder(
    sub: &Netlist,
    mut config: FabricConfig,
    options: &ShellOptions,
) -> Result<(PnrResult, Vec<AttemptRecord>), PnrError> {
    let mut pnr_options = options.pnr.clone();
    let mut attempts = Vec::new();
    let mut action = String::from("baseline");
    let rungs = options.max_ladder_attempts.max(1);
    for attempt in 1..=rungs {
        let _rung = shell_trace::span!("lock.ladder_rung", attempt = attempt);
        shell_trace::counter_add("lock.ladder_attempts", 1);
        match place_and_route_with_chains(sub, config.clone(), &pnr_options) {
            Ok(result) => {
                attempts.push(AttemptRecord {
                    attempt,
                    action,
                    outcome: "ok".into(),
                });
                return Ok((result, attempts));
            }
            Err(err @ (PnrError::DoesNotFit(_) | PnrError::Unroutable(_))) => {
                attempts.push(AttemptRecord {
                    attempt,
                    action: std::mem::take(&mut action),
                    outcome: err.to_string(),
                });
                if attempt == rungs {
                    return Err(err);
                }
                match attempt {
                    1 => {
                        config.channel_width += 4;
                        action = format!("channel_width -> {}", config.channel_width);
                    }
                    2 => {
                        pnr_options.max_fit_attempts += 8;
                        action = format!("max_fit_attempts -> {}", pnr_options.max_fit_attempts);
                    }
                    _ => {
                        pnr_options.place_starts += 2;
                        action = format!("place_starts -> {}", pnr_options.place_starts);
                    }
                }
            }
            Err(err) => {
                attempts.push(AttemptRecord {
                    attempt,
                    action,
                    outcome: err.to_string(),
                });
                return Err(err);
            }
        }
    }
    unreachable!("ladder loop returns on its last rung")
}

/// Designs with more than one bitstream digest among `digests` (one
/// `(design, digest)` entry per lock made).
pub fn nondeterministic(digests: &[(Benchmark, u64)]) -> usize {
    let mut seen: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    for (bench, digest) in digests {
        seen.entry(bench.name()).or_default().insert(*digest);
    }
    seen.values().filter(|d| d.len() > 1).count()
}

/// Whether the activated lock restores the original function, by lockstep
/// random simulation from reset (as the end-to-end tests check).
pub fn activates_correctly(original: &Netlist, outcome: &RedactionOutcome, seed: u64) -> bool {
    let activated = shell_synth::propagate_constants_cyclic(&shell_lock::activate(outcome));
    sequential_equivalent(original, &activated, ACTIVATION_CYCLES, seed)
}

/// `equiv_sequential_random` under the benchmark's equivalence span.
pub fn sequential_equivalent(a: &Netlist, b: &Netlist, cycles: usize, seed: u64) -> bool {
    let _s = shell_trace::span(span::EQUIV);
    shell_trace::counter_add(counter::VECTORS, cycles as u64);
    equiv_sequential_random(a, b, &[], &[], cycles, seed).is_equivalent()
}

/// `equiv_random` of a keyed combinational frame against its oracle, under
/// the benchmark's equivalence span.
pub fn key_equivalent(
    locked: &Netlist,
    key: &[bool],
    oracle: &Netlist,
    vectors: usize,
    seed: u64,
) -> bool {
    let _s = shell_trace::span(span::EQUIV);
    shell_trace::counter_add(counter::VECTORS, vectors as u64);
    equiv_random(locked, oracle, key, &[], vectors, seed).is_equivalent()
}

/// Decomposition fidelity: `lock_by_layers` and `shell_lock` must agree on
/// `design` under `options`: the same outcome (locked netlist, key, full
/// bitstream, pre-shrink key width, ladder journal) or the same error.
/// Returns one message per mismatch, prefixed with `name`.
pub fn compare_flows(name: &str, design: &Netlist, options: &ShellOptions) -> Vec<String> {
    let mut problems = Vec::new();
    match (shell_lock(design, options), lock_by_layers(design, options)) {
        (Ok(whole), Ok(split)) => {
            let mut differ = |what: &str, same: bool| {
                if !same {
                    problems.push(format!("{name}: split flow gives another {what}"));
                }
            };
            differ("key", whole.key == split.key);
            differ(
                "locked netlist",
                shell_netlist::verilog::write_verilog(&whole.locked)
                    == shell_netlist::verilog::write_verilog(&split.locked),
            );
            differ(
                "bitstream",
                digest_bits(whole.bitstream.as_bools()) == digest_bits(split.bitstream.as_bools()),
            );
            differ(
                "pre-shrink key width",
                whole.key_bits_before_shrink == split.key_bits_before_shrink,
            );
            differ("ladder journal", whole.attempts == split.attempts);
            differ("shrink flag", whole.shrunk == split.shrunk);
        }
        (Err(whole), Err(split)) => {
            if whole.to_string() != split.to_string() {
                problems.push(format!(
                    "{name}: flows fail differently: shell_lock {whole}, split {split}"
                ));
            }
        }
        (whole, split) => problems.push(format!(
            "{name}: flows disagree on success: shell_lock {:?}, split {:?}",
            whole.err(),
            split.err()
        )),
    }
    problems
}

/// [`compare_flows`] with default options on the designs whose PnR is
/// deterministic (SPMV and DLA).
pub fn check_decomposition(designs: &[(Benchmark, Netlist)]) -> Vec<String> {
    let options = ShellOptions::default();
    designs
        .iter()
        .filter(|(bench, _)| matches!(bench, Benchmark::Spmv | Benchmark::Dla))
        .flat_map(|(bench, design)| compare_flows(bench.name(), design, &options))
        .collect()
}
