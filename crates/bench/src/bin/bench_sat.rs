//! Incremental vs from-scratch SAT-attack cost curves.
//!
//! Runs the oracle-guided SAT attack twice on the same locked table-1-style
//! circuit — the persistent-solver attack ([`sat_attack_report`]) and the
//! rebuild-per-iteration reference ([`scratch_reference_attack`]) — and
//! records the per-DIP conflict curve of each, so the payoff of the
//! persistent solver (carried learned clauses, no re-encoding) is measured
//! rather than asserted. Writes `results/BENCH_sat.json`; its `modes`
//! object keeps the labels `incremental` and `scratch` (the reference).
//! Two machine-checkable verdicts:
//!
//! * `same_key` — both loops recovered the (unique) planted key, and
//! * `no_worse` — the incremental attack's summed per-DIP conflicts do not
//!   exceed the reference's.
//!
//! `scripts/verify.sh` greps both at `SHELL_JOBS=1` and `4`.

use shell_attacks::{
    sat_attack_report, scan_frame, scratch_reference_attack, xor_lock_outputs, AttackReport,
    SatAttackOptions, SatAttackOutcome,
};
use shell_bench::write_results_json;
use shell_circuits::axi_xbar;
use shell_netlist::{CellKind, NetId, Netlist};
use shell_util::Json;
use std::time::Instant;

/// Input-prefix width of the point lock: `2^PREFIX_BITS` key bits, each
/// observable only on inputs matching its prefix value, so the attack needs
/// roughly one DIP per key bit — a long, measurable cost curve.
const PREFIX_BITS: usize = 4;

/// Key width of the additional output-XOR lock ([`xor_lock_outputs`]).
const XOR_KEY_BITS: usize = 4;

/// A SARLock-flavored point lock with a **unique** correct key: output 0 is
/// XORed with `OR_i (x[0..p] == i AND wrong(k_i))`. Key bit `i` only
/// matters on inputs whose `p`-bit prefix equals `i`, so one DIP eliminates
/// one key bit — the attack is forced through one informative iteration per
/// bit instead of resolving everything from a single pattern. The last
/// prefix value carries no key bit: with full coverage, flipping *every*
/// bit would make the OR constant-true, which a downstream output-XOR key
/// bit could cancel — leaving a hole means no key assignment shifts the
/// output globally, so the correct key (odd bits planted inverted) is
/// unique even composed with [`xor_lock_outputs`].
fn point_lock(oracle: &Netlist, prefix_bits: usize) -> (Netlist, Vec<bool>) {
    assert!(oracle.inputs().len() >= prefix_bits && !oracle.outputs().is_empty());
    let mut locked = oracle.clone();
    locked.set_name(format!("{}_pl", oracle.name()));
    let ins: Vec<NetId> = locked.inputs()[..prefix_bits].to_vec();
    let nots: Vec<NetId> = ins
        .iter()
        .enumerate()
        .map(|(b, &n)| locked.add_cell(format!("pl_not{b}"), CellKind::Not, vec![n]))
        .collect();
    let mut key = Vec::new();
    let mut terms = Vec::new();
    for i in 0..(1usize << prefix_bits) - 1 {
        let mut guard: Vec<NetId> = (0..prefix_bits)
            .map(|b| if (i >> b) & 1 == 1 { ins[b] } else { nots[b] })
            .collect();
        let k = locked.add_key_input(format!("pk{i}"));
        let invert = i % 2 == 1;
        let sensed = if invert {
            key.push(true);
            locked.add_cell(format!("pk_inv{i}"), CellKind::Not, vec![k])
        } else {
            key.push(false);
            k
        };
        guard.push(sensed);
        terms.push(locked.add_cell(format!("pl_term{i}"), CellKind::And, guard));
    }
    let any = locked.add_cell("pl_any", CellKind::Or, terms);
    let out0 = locked.outputs()[0].1;
    let xo = locked.add_cell("pl_x", CellKind::Xor, vec![out0, any]);
    locked.set_output_net(0, xo);
    (locked, key)
}

/// Runs `attack` and returns its report with the wall time in ms.
fn timed(attack: impl FnOnce() -> AttackReport) -> (AttackReport, f64) {
    let t0 = Instant::now();
    let report = attack();
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

fn mode_json(report: &AttackReport, total_ms: f64) -> Json {
    let (status, iterations, conflicts) = match &report.outcome {
        SatAttackOutcome::Broken {
            iterations,
            conflicts,
            ..
        } => ("broken", *iterations, *conflicts),
        SatAttackOutcome::Resilient {
            iterations,
            conflicts,
        } => ("resilient", *iterations, *conflicts),
        SatAttackOutcome::WrongKey { iterations, .. } => {
            ("wrong_key", *iterations, report.conflicts_spent)
        }
    };
    Json::obj([
        ("status", Json::Str(status.to_string())),
        ("iterations", Json::Num(iterations as f64)),
        ("conflicts", Json::Num(conflicts as f64)),
        (
            "dip_conflicts_total",
            Json::Num(report.per_dip.iter().map(|d| d.conflicts).sum::<u64>() as f64),
        ),
        ("total_ms", Json::Num(total_ms)),
        (
            "per_dip",
            Json::arr(report.per_dip.iter().enumerate().map(|(i, d)| {
                Json::obj([
                    ("iteration", Json::Num(i as f64)),
                    ("conflicts", Json::Num(d.conflicts as f64)),
                    ("decisions", Json::Num(d.decisions as f64)),
                    ("propagations", Json::Num(d.propagations as f64)),
                    ("ms", Json::Num(d.nanos as f64 / 1e6)),
                ])
            })),
        ),
    ])
}

fn main() {
    shell_bench::trace_init();

    // Table-1-style circuit: the AXI crossbar, scan-framed, then locked
    // twice — a point lock (one DIP per key bit, the long curve) stacked
    // with an output-XOR lock. Both locks have unique correct keys, so the
    // combined key is unique and the `same_key` check is bit-exact.
    let design = axi_xbar(4, 1);
    let oracle = scan_frame(&design);
    let (point_locked, point_key) = point_lock(&oracle, PREFIX_BITS);
    let (locked, xor_key) = xor_lock_outputs(&point_locked, XOR_KEY_BITS);
    let true_key: Vec<bool> = point_key.into_iter().chain(xor_key).collect();

    let (inc, inc_ms) = timed(|| sat_attack_report(&locked, &oracle, &SatAttackOptions::default()));
    let (scr, scr_ms) = timed(|| {
        let opts = SatAttackOptions::default();
        scratch_reference_attack(&locked, &oracle, &opts.budget, opts.max_iterations)
    });

    let key_of = |r: &AttackReport| match &r.outcome {
        SatAttackOutcome::Broken { key, .. } => Some(key.clone()),
        _ => None,
    };
    let same_key = key_of(&inc).as_deref() == Some(true_key.as_slice())
        && key_of(&scr).as_deref() == Some(true_key.as_slice());
    let dip_total = |r: &AttackReport| r.per_dip.iter().map(|d| d.conflicts).sum::<u64>();
    let no_worse = dip_total(&inc) <= dip_total(&scr);

    for (label, report, ms) in [("incremental", &inc, inc_ms), ("scratch", &scr, scr_ms)] {
        println!(
            "{label:>11}: {} in {} iterations, {} dip-conflicts, {:.1} ms",
            if report.outcome.is_broken() { "broken" } else { "not broken" },
            report.dips_found,
            dip_total(report),
            ms
        );
    }
    if !same_key {
        let fmt = |k: &Option<Vec<bool>>| {
            k.as_ref().map(|k| {
                k.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>()
            })
        };
        eprintln!("true: {:?}", fmt(&Some(true_key.clone())));
        eprintln!("inc:  {:?}", fmt(&key_of(&inc)));
        eprintln!("scr:  {:?}", fmt(&key_of(&scr)));
    }
    println!("same_key: {same_key}");
    println!("no_worse: {no_worse} ({} <= {})", dip_total(&inc), dip_total(&scr));

    let json = Json::obj([
        ("circuit", Json::Str("axi_xbar(4,1) scan frame".to_string())),
        ("key_bits", Json::Num(true_key.len() as f64)),
        (
            "modes",
            Json::obj([
                ("incremental", mode_json(&inc, inc_ms)),
                ("scratch", mode_json(&scr, scr_ms)),
            ]),
        ),
        ("same_key", Json::Bool(same_key)),
        ("no_worse", Json::Bool(no_worse)),
    ]);
    let path = write_results_json("BENCH_sat", &json).expect("write results");
    println!("wrote {path}");
    shell_bench::trace_finish("bench_sat");

    // A bench that measured a broken contract must say so loudly.
    assert!(
        same_key,
        "incremental and reference disagree on the recovered key"
    );
    assert!(
        no_worse,
        "incremental spent more DIP conflicts than the reference"
    );
}
