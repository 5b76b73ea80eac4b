//! `BENCH_chaos`: crash-point matrix recovery and journaling overhead.
//!
//! Two measurements against real servers on ephemeral localhost ports:
//!
//! * **Crash-point matrix** — the whole deterministic crash-point matrix
//!   (every durable commit step) at worker pools of 1 and 4. Each point
//!   kills the server at a durable commit step, restarts it, and
//!   byte-compares the recovered artifacts against an uninterrupted
//!   reference. Reports the median post-crash `Server::start` (recovery
//!   included) per pool, and the verdicts the verify smoke greps:
//!   `torn_states` and `report_mismatches` must both be zero.
//! * **Journaling overhead on warm cache hits** — the same lock request
//!   served from the artifact cache by a journaled and an unjournaled
//!   server. The write-ahead intent journal costs extra syncs on *stores*;
//!   the read path must not regress, so the verdict bounds the journaled
//!   warm-hit median at under 10% over the direct one.
//!
//! Writes `results/BENCH_chaos.json`.

use shell_bench::{trace_finish, trace_init, write_results_json, Table};
use shell_serve::{run_matrix, Client, JobRequest, MatrixOptions, Server, ServerConfig};
use shell_util::Json;
use std::path::PathBuf;
use std::time::Instant;

const WAIT_MS: u64 = 300_000;
const WARM_ITERS: u32 = 128;
/// Medians of microsecond-scale identical code paths still jitter; the
/// acceptance bound leaves 10% headroom.
const OVERHEAD_BOUND: f64 = 1.10;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shell_bench_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Warm-cache-hit median (ns) with journaling on or off: one cold submit
/// to populate the cache, then repeated in-process lookups.
fn warm_hit_ns(journaled: bool) -> u128 {
    let dir = state_dir(if journaled { "warm_j" } else { "warm_d" });
    let mut config = ServerConfig::ephemeral(dir.clone());
    config.workers = 1;
    config.journaled = journaled;
    let server = Server::start(config).expect("server starts");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("client connects");
    let lock = JobRequest { seed: 0xC4A05, ..JobRequest::default() };
    let id = client.submit(&lock).expect("submit").id;
    let doc = client.result(id, WAIT_MS).expect("result");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    let key = lock.resolve().expect("resolves").key;
    let mut samples = Vec::new();
    for _ in 0..WARM_ITERS {
        let t0 = Instant::now();
        assert!(server.cache().lookup(&key).is_some(), "artifact must be cached");
        samples.push(t0.elapsed().as_nanos());
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    median(samples)
}

fn main() {
    trace_init();
    // Exhaustive: the default stride of 1 walks every crash point.
    let stride = MatrixOptions::default().stride;

    // --- Crash-point matrix at 1 and 4 workers --------------------------
    let mut matrix_rows = Vec::new();
    let mut torn_states = 0usize;
    let mut report_mismatches = 0usize;
    for workers in [1usize, 4] {
        let root = state_dir(&format!("matrix{workers}"));
        let options = MatrixOptions {
            workers,
            ..MatrixOptions::default()
        };
        let report = run_matrix(&root, &options).expect("matrix runs");
        let _ = std::fs::remove_dir_all(&root);
        println!(
            "matrix: workers={} points={} tested={} crashed={} torn_states={} \
             report_mismatches={} median_recovery_ms={:.2}",
            workers,
            report.points,
            report.tested_points,
            report.crashed_points,
            report.torn_states,
            report.report_mismatches,
            report.median_recovery_ms()
        );
        torn_states += report.torn_states;
        report_mismatches += report.report_mismatches;
        let mut row = report.to_json();
        if let Json::Obj(pairs) = &mut row {
            pairs.insert(0, ("workers".to_string(), Json::from(workers)));
        }
        matrix_rows.push(row);
    }
    assert_eq!(torn_states, 0, "matrix recovery left torn state on disk");
    assert_eq!(report_mismatches, 0, "matrix recovery diverged from the reference");

    // --- Journaling overhead on warm cache hits -------------------------
    let direct_ns = warm_hit_ns(false);
    let journaled_ns = warm_hit_ns(true);
    let overhead = journaled_ns as f64 / direct_ns.max(1) as f64;
    let journal_overhead_ok = overhead < OVERHEAD_BOUND;
    println!(
        "warm hit: direct {:.4} ms, journaled {:.4} ms, ratio {:.3} (bound {:.2})",
        direct_ns as f64 / 1e6,
        journaled_ns as f64 / 1e6,
        overhead,
        OVERHEAD_BOUND
    );
    assert!(
        journal_overhead_ok,
        "journaled warm hit is {overhead:.3}x the direct one; the bound is {OVERHEAD_BOUND}"
    );

    let mut table = Table::new(&["metric", "value"]);
    for row in &matrix_rows {
        let workers = row.get("workers").and_then(Json::as_u64).unwrap_or(0);
        table.row(vec![
            format!("median recovery @ {workers}w (ms)"),
            format!(
                "{:.2}",
                row.get("median_recovery_ms").and_then(Json::as_f64).unwrap_or(0.0)
            ),
        ]);
    }
    table.row(vec!["warm-hit overhead (x)".into(), format!("{overhead:.3}")]);
    table.print("BENCH_chaos: crash recovery and journaling overhead");

    let json = Json::obj([
        ("stride", Json::from(stride)),
        ("matrix", Json::arr(matrix_rows)),
        ("torn_states", Json::from(torn_states)),
        ("report_mismatches", Json::from(report_mismatches)),
        ("warm_hit_direct_ns", Json::from(direct_ns as u64)),
        ("warm_hit_journaled_ns", Json::from(journaled_ns as u64)),
        ("journal_overhead", Json::from(overhead)),
        ("journal_overhead_ok", Json::Bool(journal_overhead_ok)),
        ("consistent", Json::Bool(torn_states == 0 && report_mismatches == 0)),
    ]);
    match write_results_json("BENCH_chaos", &json) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    trace_finish("bench_chaos");
}
