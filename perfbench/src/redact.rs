//! `redact`: what a designer waits for. One pass locks the five Table III
//! designs with `shell_lock` (stage 1) and maps the Table I ROUTE circuit
//! through the three fabric flows (stage 2), in a seed-shuffled order.

use crate::flow::{
    activates_correctly, check_decomposition, lock_by_layers, nondeterministic, table3_designs,
};
use crate::layers::Profile;
use crate::report::{digest_bits, median, peak_rss_mb, secs, timed, Report};
use crate::Args;
use shell_circuits::{axi_xbar, Benchmark};
use shell_fabric::FabricConfig;
use shell_lock::{shell_lock, ShellOptions};
use shell_netlist::Netlist;
use shell_pnr::{place_and_route, place_and_route_with_chains, PnrOptions, PnrResult};
use shell_synth::lut_map;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Table I's three flows with the tile counts of the committed Table I
/// (`results/table1.json`): an independent known answer for stage 2.
const TABLE1_FLOWS: [(Flow, usize); 3] = [
    (Flow::OpenFpga, 23),
    (Flow::FabulousStd, 62),
    (Flow::FabulousChain, 16),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    OpenFpga,
    FabulousStd,
    FabulousChain,
}

impl Flow {
    fn label(self) -> &'static str {
        match self {
            Flow::OpenFpga => "OpenFPGA",
            Flow::FabulousStd => "FABulous std cell",
            Flow::FabulousChain => "FABulous MUX chain",
        }
    }

    /// One Table I flow: LUT map + PnR, or the chain flow.
    fn run(self, xbar: &Netlist) -> Result<PnrResult, String> {
        let opts = PnrOptions::default();
        let lut = |config| {
            let mapped = lut_map(xbar, 4).map_err(|e| e.to_string())?.netlist;
            place_and_route(&mapped, config, &opts).map_err(|e| e.to_string())
        };
        match self {
            Flow::OpenFpga => lut(FabricConfig::openfpga_style()),
            Flow::FabulousStd => lut(FabricConfig::fabulous_style(false)),
            Flow::FabulousChain => {
                place_and_route_with_chains(xbar, FabricConfig::fabulous_style(true), &opts)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// Runs Table I flow `i` on `xbar` and checks its tile count against the
/// committed Table I.
///
/// # Errors
///
/// The flow's failure or the tile-count mismatch, as text.
pub fn run_table1_flow(i: usize, xbar: &Netlist) -> Result<(), String> {
    let (flow, tiles) = TABLE1_FLOWS[i];
    let r = flow
        .run(xbar)
        .map_err(|e| format!("{}: flow failed: {e}", flow.label()))?;
    if r.tiles_used == tiles {
        Ok(())
    } else {
        Err(format!(
            "{}: {} tiles used, Table I has {tiles}",
            flow.label(),
            r.tiles_used
        ))
    }
}

/// Number of Table I flows.
pub const TABLE1_FLOW_COUNT: usize = TABLE1_FLOWS.len();

/// One operation of a pass.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lock(usize),
    Table1(usize),
}

/// Wall times of one pass, in seconds, plus each lock's bitstream digest.
struct Pass {
    lock_s: f64,
    fabric_s: f64,
    /// Operations timed in the pass.
    ops: usize,
    digests: Vec<(Benchmark, u64)>,
}

struct Inputs {
    designs: Vec<(Benchmark, Netlist)>,
    xbar: Netlist,
}

/// Generates the inputs and runs one untimed warm-up lock (SPMV).
fn set_up(report: &mut Report) -> Inputs {
    let designs = table3_designs();
    let xbar = axi_xbar(8, 4);
    let (_, spmv) = designs
        .iter()
        .find(|(b, _)| *b == Benchmark::Spmv)
        .expect("SPMV is a Table III design");
    let warm = shell_lock(spmv, &ShellOptions::default());
    report.check(warm.is_ok(), || {
        format!("warm-up lock of SPMV failed: {:?}", warm.err())
    });
    Inputs { designs, xbar }
}

/// Runs `ops` once. `by_layers` selects the decomposed lock flow (traced
/// runs) instead of `shell_lock`. Correctness checks run untimed.
fn run_pass(inputs: &Inputs, ops: &[Op], by_layers: bool, seed: u64, report: &mut Report) -> Pass {
    let options = ShellOptions::default();
    let mut pass = Pass {
        lock_s: 0.0,
        fabric_s: 0.0,
        ops: 0,
        digests: Vec::new(),
    };
    for &op in ops {
        match op {
            Op::Lock(i) => {
                let (bench, design) = &inputs.designs[i];
                let (outcome, s) = timed(|| {
                    if by_layers {
                        lock_by_layers(design, &options)
                    } else {
                        shell_lock(design, &options)
                    }
                });
                pass.lock_s += s;
                pass.ops += 1;
                match outcome {
                    Ok(outcome) => {
                        pass.digests
                            .push((*bench, digest_bits(outcome.bitstream.as_bools())));
                        let ok = activates_correctly(design, &outcome, seed ^ i as u64);
                        report.check(ok, || {
                            format!("{}: activated lock differs from the original", bench.name())
                        });
                    }
                    Err(e) => report.check(false, || format!("{}: lock failed: {e}", bench.name())),
                }
            }
            Op::Table1(i) => {
                let (result, s) = timed(|| run_table1_flow(i, &inputs.xbar));
                pass.fabric_s += s;
                pass.ops += 1;
                report.check(result.is_ok(), || result.err().unwrap_or_default());
            }
        }
    }
    pass
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (made, s) = timed(|| set_up(&mut report));
        setup_s.push(s);
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut ops: Vec<Op> = (0..inputs.designs.len())
        .map(Op::Lock)
        .chain((0..TABLE1_FLOW_COUNT).map(Op::Table1))
        .collect();
    shell_util::Rng::seed_from_u64(args.seed).shuffle(&mut ops);

    if args.trace {
        // Two layer-by-layer passes, the first without a tracer: the ratio
        // of their wall times is the tracing overhead, and a lock whose
        // digest differs between them came from nondeterministic PnR, not
        // from a difference between two flows.
        let plain = run_pass(&inputs, &ops, true, args.seed, &mut report);
        let (traced, profile) =
            Profile::capture(|| run_pass(&inputs, &ops, true, args.seed, &mut report));
        let problems = check_decomposition(&inputs.designs);
        report.check(problems.is_empty(), || problems.join("; "));
        profile.fill(&mut report);
        let digests: Vec<_> = plain
            .digests
            .iter()
            .chain(&traced.digests)
            .copied()
            .collect();
        report.set(
            "pnr.nondeterministic_designs",
            nondeterministic(&digests) as f64,
        );
        let plain_s = plain.lock_s + plain.fabric_s;
        report.set(
            "trace.overhead_frac",
            (traced.lock_s + traced.fabric_s) / plain_s - 1.0,
        );
        return report;
    }

    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || secs(t0) < args.seconds {
        passes.push(run_pass(&inputs, &ops, false, args.seed, &mut report));
    }
    let lock: Vec<f64> = passes.iter().map(|p| p.lock_s).collect();
    let fabric: Vec<f64> = passes.iter().map(|p| p.fabric_s).collect();
    report.set("setup_s", median(&setup_s));
    report.set("stage1_s", median(&lock));
    report.set("stage2_s", median(&fabric));
    let ops: usize = passes.iter().map(|p| p.ops).sum();
    let busy: f64 = passes.iter().map(|p| p.lock_s + p.fabric_s).sum();
    report.set("ops_per_s", ops as f64 / busy);
    report.set("peak_rss_mb", peak_rss_mb());
    report
}
