//! Decomposition fidelity: the layer-by-layer flow the traced `redact` run
//! times must be the flow `shell_lock` runs, and the Table I flows must
//! reproduce the committed tile counts. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use shell_circuits::Benchmark;
use shell_lock::ShellOptions;
use shell_perfbench::flow::{check_decomposition, compare_flows, lock_by_layers, table3_designs};
use shell_perfbench::redact::{run_table1_flow, TABLE1_FLOW_COUNT};

#[test]
fn split_flow_matches_shell_lock_on_spmv_and_dla() {
    let problems = check_decomposition(&table3_designs());
    assert!(problems.is_empty(), "{problems:#?}");
}

/// With no fit attempts the first two rungs fail and the third (eight
/// attempts) fits, so the copied ladder is compared rung by rung. SPMV is
/// the design whose PnR stays deterministic on that rung.
#[test]
fn split_flow_climbs_the_ladder_like_shell_lock() {
    let (_, design) = table3_designs()
        .into_iter()
        .find(|(bench, _)| *bench == Benchmark::Spmv)
        .expect("SPMV is a Table III design");
    let mut options = ShellOptions::default();
    options.pnr.max_fit_attempts = 0;
    let problems = compare_flows("SPMV", &design, &options);
    assert!(problems.is_empty(), "{problems:#?}");
    let outcome = lock_by_layers(&design, &options).expect("third rung fits");
    assert_eq!(outcome.attempts.len(), 3, "{:#?}", outcome.attempts);
}

#[test]
fn split_flow_fails_like_shell_lock_when_the_ladder_runs_out() {
    let design = shell_circuits::axi_xbar(4, 2);
    let mut options = ShellOptions::default();
    options.pnr.max_fit_attempts = 0;
    options.max_ladder_attempts = 2;
    assert!(lock_by_layers(&design, &options).is_err());
    let problems = compare_flows("xbar", &design, &options);
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn split_flow_skips_shrink_like_shell_lock() {
    let design = shell_circuits::axi_xbar(4, 1);
    let options = ShellOptions {
        skip_shrink: true,
        ..ShellOptions::default()
    };
    let problems = compare_flows("xbar", &design, &options);
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn table1_flows_keep_their_tile_counts() {
    let xbar = shell_circuits::axi_xbar(8, 4);
    for i in 0..TABLE1_FLOW_COUNT {
        run_table1_flow(i, &xbar).expect("Table I flow");
    }
}
