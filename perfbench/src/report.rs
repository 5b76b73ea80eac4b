//! Metric names, the result line, and the small statistics every workload
//! shares.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run. Each workload defines
/// `stage1_s` and `stage2_s` as its own two halves (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stage1_s", "s"),
    ("stage2_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select_s", "s"),
    ("core.decouple_s", "s"),
    ("core.reassemble_s", "s"),
    ("synth.map_s", "s"),
    ("synth.cuts", "count"),
    ("fabric.emit_s", "s"),
    ("fabric.shrink_s", "s"),
    ("fabric.shrink_cells_in", "count"),
    ("fabric.shrink_cells_out", "count"),
    ("fabric.frame_s", "s"),
    ("lock.pnr_s", "s"),
    ("lock.unattributed_s", "s"),
    ("lock.ladder_attempts", "count"),
    ("lock.locks_per_attempt", "ratio"),
    ("pnr.fit_s", "s"),
    ("pnr.place_s", "s"),
    ("pnr.route_s", "s"),
    ("pnr.place_moves", "count"),
    ("pnr.route_relaxations", "count"),
    ("pnr.fit_attempts", "count"),
    ("pnr.nondeterministic_designs", "count"),
    ("attacks.frame_s", "s"),
    ("attacks.sat_s", "s"),
    ("attacks.dips", "count"),
    ("attacks.exhausted", "count"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("netlist.equiv_s", "s"),
    ("netlist.vectors", "count"),
    ("netlist.ns_per_vector", "ns"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p95_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.resolve_s", "s"),
    ("serve.cache_lookup_s", "s"),
    ("serve.commit_s", "s"),
    ("chaos.commit_s", "s"),
    ("chaos.writes_per_request", "ratio"),
    ("chaos.syncs_per_request", "ratio"),
    ("serve.other_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("journal.commits_per_request", "ratio"),
    ("serve.flow_s", "s"),
    ("serve.refused", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (locks, flows, attacks, proofs, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Human-readable reasons for every failure (printed to stderr).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation; a failed one records `problem`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}` with
    /// every metric of `names`. A per-layer metric the workload left unset
    /// reads 0 (layer not reached); a missing end-to-end metric means the
    /// run stopped early, and there is no result line.
    pub fn line(&self, names: &[(&str, &str)], traced: bool) -> Option<String> {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => 0.0,
                None if traced => 0.0,
                None => return None,
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Some(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, secs(t0))
}

/// Nearest-rank percentile (`q` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over a bit vector: the per-design bitstream digest.
pub fn digest_bits(bits: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bits {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
