//! `attack`: a security evaluator's time to a verdict. A draw locks the five
//! Table III designs and builds the attack frames (set-up), runs every SAT
//! attack on them (stage 1), and then the equivalence pass that proves each
//! recovered key and each activated frame; stage 2 is the attacks and the
//! proofs together. A run makes fresh draws until it has measured
//! `--seconds` of attacks and proofs.

use crate::flow::{
    activates_correctly, key_equivalent, lock_by_layers, nondeterministic, table3_designs,
};
use crate::layers::{span, Profile};
use crate::report::{digest_bits, median, peak_rss_mb, timed, Report};
use crate::Args;
use shell_attacks::{
    cyclic_reduction, sat_attack_report, scan_frame, try_scan_frame, xor_lock_outputs,
    SatAttackOptions, SatAttackOutcome,
};
use shell_circuits::Benchmark;
use shell_guard::Budget;
use shell_lock::{activate, shell_lock, ShellOptions};
use shell_netlist::Netlist;

/// Fewest draws in a timed run. PicoSoC, AES and FIR lock differently on
/// each call, and the attacks' work follows the draw (AES needs from 1 to
/// 8 DIPs), so the stages are medians over several draws. A draw's attacks
/// and proofs take 8–10 s, so a 25 s run usually makes 3; on a slow host
/// the run stops at 2 rather than overrun its time.
const MIN_DRAWS: usize = 2;
/// Draws in a traced run: two locks of each design, so that
/// `pnr.nondeterministic_designs` can compare them.
const TRACED_DRAWS: usize = 2;
/// Conflict quota of every attack, fixed so that a change in the locked
/// netlists shows as exhausted attacks and conflicts, not as hidden noise.
const CONFLICT_QUOTA: u64 = 20_000;
/// DIP iteration cap (the table harnesses' cap).
const MAX_ITERATIONS: usize = 24;
/// XOR key bits planted on each original's scan frame.
const XOR_BITS: usize = 24;
/// The XOR attack cannot finish on AES's frame: its last miter is an
/// equivalence proof between two AES copies, still open after 400k
/// conflicts (146 s), so AES has no XOR known-answer attack.
const XOR_SKIP: Benchmark = Benchmark::Aes;
/// Random vectors behind each proof of the equivalence pass.
const PROOF_VECTORS: usize = 1024;

/// A SheLL-locked design ready to attack.
struct ShellTarget {
    bench: Benchmark,
    /// Scan frame of the locked design (cyclic-reduced first if cyclic).
    locked: Netlist,
    /// Scan frame of the activated locked design: the oracle.
    oracle: Netlist,
    /// The correct key.
    key: Vec<bool>,
    /// Whether cyclic reduction cut edges, which may sever the key's path.
    reduced: bool,
}

/// An XOR-locked original with its planted (unique) key.
struct XorTarget {
    bench: Benchmark,
    locked: Netlist,
    oracle: Netlist,
    key: Vec<bool>,
}

/// Fresh options per attack: the budget is a shared token, so one
/// `SatAttackOptions` must not serve two attacks.
fn options() -> SatAttackOptions {
    SatAttackOptions {
        max_iterations: MAX_ITERATIONS,
        budget: Budget::unlimited().with_quota(CONFLICT_QUOTA),
        verify_key: true,
        verify_vectors: 128,
        ..SatAttackOptions::default()
    }
}

fn set_up(
    by_layers: bool,
    seed: u64,
    digests: &mut Vec<(Benchmark, u64)>,
    report: &mut Report,
) -> (Vec<ShellTarget>, Vec<XorTarget>) {
    let mut shell = Vec::new();
    let mut xor = Vec::new();
    let lock_options = ShellOptions::default();
    for (bench, design) in table3_designs() {
        let outcome = if by_layers {
            lock_by_layers(&design, &lock_options)
        } else {
            shell_lock(&design, &lock_options)
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                report.check(false, || format!("{}: lock failed: {e}", bench.name()));
                continue;
            }
        };
        digests.push((bench, digest_bits(outcome.bitstream.as_bools())));
        let ok = activates_correctly(&design, &outcome, seed);
        report.check(ok, || {
            format!("{}: activated lock differs from the original", bench.name())
        });
        let frames = {
            let _s = shell_trace::span(span::ATTACK_FRAME);
            let oracle = scan_frame(&shell_synth::propagate_constants_cyclic(&activate(
                &outcome,
            )));
            let reduced = outcome.locked.topo_order().is_err();
            let locked = if reduced {
                cyclic_reduction(&outcome.locked).netlist
            } else {
                outcome.locked.clone()
            };
            try_scan_frame(&locked).map(|locked| (locked, oracle, reduced))
        };
        match frames {
            Ok((locked, oracle, reduced))
                if locked.inputs().len() == oracle.inputs().len()
                    && locked.outputs().len() == oracle.outputs().len() =>
            {
                shell.push(ShellTarget {
                    bench,
                    locked,
                    oracle,
                    key: outcome.key,
                    reduced,
                });
            }
            other => report.check(false, || {
                format!(
                    "{}: no attackable frame pair: {:?}",
                    bench.name(),
                    other.err()
                )
            }),
        }
        if bench == XOR_SKIP {
            continue;
        }
        let frame = {
            let _s = shell_trace::span(span::ATTACK_FRAME);
            scan_frame(&design)
        };
        let (locked, key) = xor_lock_outputs(&frame, XOR_BITS);
        xor.push(XorTarget {
            bench,
            locked,
            oracle: frame,
            key,
        });
    }
    (shell, xor)
}

/// Times of one pass over a draw and what its attacks ended with.
struct Pass {
    attack_s: f64,
    verify_s: f64,
    /// Operations timed in the pass.
    ops: usize,
    exhausted: usize,
}

/// One attack of a pass.
#[derive(Clone, Copy)]
enum Target<'a> {
    Shell(&'a ShellTarget),
    Xor(&'a XorTarget),
}

fn run_pass(shell: &[ShellTarget], order: &[Target], seed: u64, report: &mut Report) -> Pass {
    let mut pass = Pass {
        attack_s: 0.0,
        verify_s: 0.0,
        ops: 0,
        exhausted: 0,
    };
    // Stage 1: every attack, SheLL frames and XOR frames interleaved in the
    // seeded order.
    let mut shell_keys = Vec::new();
    let mut xor_keys = Vec::new();
    for &target in order {
        let (locked, oracle) = match target {
            Target::Shell(t) => (&t.locked, &t.oracle),
            Target::Xor(t) => (&t.locked, &t.oracle),
        };
        let (r, s) = timed(|| sat_attack_report(locked, oracle, &options()));
        pass.attack_s += s;
        pass.ops += 1;
        match (target, r.outcome) {
            (Target::Shell(t), SatAttackOutcome::Broken { key, .. }) => shell_keys.push((t, key)),
            (Target::Shell(_), SatAttackOutcome::Resilient { .. }) => pass.exhausted += 1,
            (Target::Shell(_), SatAttackOutcome::WrongKey { .. }) => {}
            (Target::Xor(t), SatAttackOutcome::Broken { key, .. }) => {
                report.check(key == t.key, || {
                    format!("{}: XOR attack recovered another key", t.bench.name())
                });
                xor_keys.push((t, key));
            }
            (Target::Xor(t), other) => report.check(false, || {
                format!("{}: XOR attack not broken: {other:?}", t.bench.name())
            }),
        }
    }
    // Stage 2: prove every recovered key, and the correct key on every
    // activated frame. A cyclic-reduced frame may have lost a path the key
    // needs (AES: the tables' "resilient*"), so it gets no correct-key proof.
    let proofs = shell_keys
        .iter()
        .map(|(t, key)| (t.bench, "recovered SheLL key", &t.locked, key, &t.oracle))
        .chain(
            xor_keys
                .iter()
                .map(|(t, key)| (t.bench, "recovered XOR key", &t.locked, key, &t.oracle)),
        )
        .chain(
            shell
                .iter()
                .filter(|t| !t.reduced)
                .map(|t| (t.bench, "correct key", &t.locked, &t.key, &t.oracle)),
        );
    for (bench, what, locked, key, oracle) in proofs {
        let (ok, s) = timed(|| key_equivalent(locked, key, oracle, PROOF_VECTORS, seed));
        pass.verify_s += s;
        pass.ops += 1;
        report.check(ok, || format!("{}: {what} fails the proof", bench.name()));
    }
    pass
}

/// The targets of one draw, shuffled by `rng`.
fn shuffled<'a>(
    shell: &'a [ShellTarget],
    xor: &'a [XorTarget],
    rng: &mut shell_util::Rng,
) -> Vec<Target<'a>> {
    let mut order: Vec<Target> = shell
        .iter()
        .map(Target::Shell)
        .chain(xor.iter().map(Target::Xor))
        .collect();
    rng.shuffle(&mut order);
    order
}

pub fn run(args: &Args) -> Report {
    let mut rng = shell_util::Rng::seed_from_u64(args.seed);
    if args.trace {
        return run_traced(args, &mut rng);
    }
    let mut report = Report::default();
    let mut digests = Vec::new();

    // Every draw is attacked once: repeating the attacks of one draw would
    // measure the same locks again, while fresh draws sample the variation
    // the nondeterministic locks add.
    let mut setup_s = Vec::new();
    let mut draws: Vec<Pass> = Vec::new();
    let mut busy = 0.0;
    while draws.len() < MIN_DRAWS || busy < args.seconds {
        let ((shell, xor), s) = timed(|| set_up(false, args.seed, &mut digests, &mut report));
        setup_s.push(s);
        let order = shuffled(&shell, &xor, &mut rng);
        let pass = run_pass(&shell, &order, args.seed, &mut report);
        busy += pass.attack_s + pass.verify_s;
        draws.push(pass);
    }
    let stage = |f: fn(&Pass) -> f64| median(&draws.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", median(&setup_s));
    report.set("stage1_s", stage(|p| p.attack_s));
    // The verdict on a draw, attacks and proofs together. The proofs alone
    // (`verify_s`) moved 1.5x with the shared host between runs of the same
    // code, too far for the bound; the traced run still reports them as
    // `netlist.equiv_s`.
    report.set("stage2_s", stage(|p| p.attack_s + p.verify_s));
    report.set(
        "ops_per_s",
        stage(|p| p.ops as f64 / (p.attack_s + p.verify_s)),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// The traced run: two draws locked layer by layer, then every target of
/// both draws attacked and proven once without and once with a tracer.
fn run_traced(args: &Args, rng: &mut shell_util::Rng) -> Report {
    let mut report = Report::default();
    let mut digests = Vec::new();
    let mut shell = Vec::new();
    let mut xor = Vec::new();
    let mut profile = Profile::default();
    for _ in 0..TRACED_DRAWS {
        let (made, prof) = Profile::capture(|| set_up(true, args.seed, &mut digests, &mut report));
        shell.extend(made.0);
        xor = made.1;
        profile.merge(prof);
    }
    let order = shuffled(&shell, &xor, rng);
    let plain = run_pass(&shell, &order, args.seed, &mut report);
    let (traced, pass_profile) =
        Profile::capture(|| run_pass(&shell, &order, args.seed, &mut report));
    // Layer times cover set-up (the locks and frames) and one traced pass
    // (the attacks and proofs).
    profile.merge(pass_profile);
    profile.fill(&mut report);
    report.set("attacks.exhausted", traced.exhausted as f64);
    report.set(
        "pnr.nondeterministic_designs",
        nondeterministic(&digests) as f64,
    );
    report.set(
        "trace.overhead_frac",
        (traced.attack_s + traced.verify_s) / (plain.attack_s + plain.verify_s) - 1.0,
    );
    report
}
