//! The traced run's per-layer view: installs a `shell-trace` tracer around
//! a region, then turns the spans and counters (the program's own plus the
//! benchmark's spans around each layer call) into per-layer metrics.

use crate::report::Report;
use std::collections::BTreeMap;

/// Benchmark-side span names, one per layer call the benchmark makes.
pub mod span {
    /// `select_subcircuit` (graph, scores, selection).
    pub const SELECT: &str = "core.select";
    /// `partition_by_cells`.
    pub const DECOUPLE: &str = "core.decouple";
    /// `RedactionPartition::reassemble`.
    pub const REASSEMBLE: &str = "core.reassemble";
    /// One whole `lock_by_layers` call.
    pub const LOCK: &str = "lock.by_layers";
    /// The fit ladder around `place_and_route_with_chains` inside a lock.
    pub const LOCK_PNR: &str = "lock.pnr";
    /// `to_locked_netlist`.
    pub const EMIT: &str = "fabric.emit";
    /// `shrink_locked_netlist`.
    pub const SHRINK: &str = "fabric.shrink";
    /// `FramedBitstream::from_flat`.
    pub const FRAME: &str = "fabric.frame";
    /// `scan_frame` + `cyclic_reduction`.
    pub const ATTACK_FRAME: &str = "attacks.frame";
    /// `equiv_random` / `equiv_sequential_random`.
    pub const EQUIV: &str = "netlist.equiv";
}

/// Benchmark-side counters.
pub mod counter {
    /// Cells entering `shrink_locked_netlist`.
    pub const SHRINK_IN: &str = "fabric.shrink_cells_in";
    /// Cells leaving it.
    pub const SHRINK_OUT: &str = "fabric.shrink_cells_out";
    /// Locks the decomposed flow completed.
    pub const LOCKS: &str = "bench.locks";
    /// Vectors (or sequential cycles) the equivalence checks simulated.
    pub const VECTORS: &str = "netlist.vectors";
}

/// Aggregated spans (count, total ns, self ns) and counter totals.
#[derive(Debug, Default)]
pub struct Profile {
    spans: BTreeMap<String, (u64, u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Profile {
    /// Runs `f` with a fresh tracer installed and returns its value together
    /// with everything the tracer recorded.
    pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Profile) {
        shell_trace::install(shell_trace::Tracer::new());
        let value = f();
        let tracer = shell_trace::uninstall().expect("tracer installed above");
        let data = tracer.snapshot();
        let mut profile = Profile::default();
        for thread in &data.threads {
            for s in &thread.spans {
                let e = profile.spans.entry(s.name.to_string()).or_default();
                e.0 += 1;
                e.1 += s.dur_ns;
                e.2 += s.self_ns;
            }
        }
        profile.counters = data.counters.into_iter().collect();
        (value, profile)
    }

    /// Adds `other`'s spans and counters to this profile.
    pub fn merge(&mut self, other: Profile) {
        for (name, (count, total, own)) in other.spans {
            let e = self.spans.entry(name).or_default();
            e.0 += count;
            e.1 += total;
            e.2 += own;
        }
        for (name, value) in other.counters {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Number of closed spans named `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.0 as f64)
    }

    /// Summed wall time of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.1 as f64 / 1e9)
    }

    /// Summed self time (minus same-thread children), in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.2 as f64 / 1e9)
    }

    /// Counter total.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |&v| v as f64)
    }

    /// Fills every per-layer metric that spans and counters determine.
    /// Workload-specific ones (exhausted attacks, serve attribution,
    /// nondeterminism, overhead) are set by the workload.
    pub fn fill(&self, report: &mut Report) {
        report.set("core.select_s", self.total_s(span::SELECT));
        report.set("core.decouple_s", self.total_s(span::DECOUPLE));
        report.set("core.reassemble_s", self.total_s(span::REASSEMBLE));
        report.set("synth.map_s", self.total_s("synth.lutmap"));
        report.set("synth.cuts", self.counter("synth.cuts"));
        report.set("fabric.emit_s", self.total_s(span::EMIT));
        report.set("fabric.shrink_s", self.total_s(span::SHRINK));
        report.set("fabric.shrink_cells_in", self.counter(counter::SHRINK_IN));
        report.set("fabric.shrink_cells_out", self.counter(counter::SHRINK_OUT));
        report.set("fabric.frame_s", self.total_s(span::FRAME));
        let lock_pnr = self.total_s(span::LOCK_PNR);
        report.set("lock.pnr_s", lock_pnr);
        let named: f64 = [
            span::SELECT,
            span::DECOUPLE,
            span::EMIT,
            span::SHRINK,
            span::REASSEMBLE,
            span::FRAME,
        ]
        .iter()
        .map(|name| self.total_s(name))
        .sum();
        report.set(
            "lock.unattributed_s",
            self.total_s(span::LOCK) - named - lock_pnr,
        );
        let attempts = self.counter("lock.ladder_attempts");
        report.set("lock.ladder_attempts", attempts);
        // Locks finished per ladder attempt: the benchmark's own locks plus
        // the service's lock jobs.
        let locks = self.counter(counter::LOCKS) + self.count("serve.job.lock");
        report.set(
            "lock.locks_per_attempt",
            if attempts > 0.0 {
                locks / attempts
            } else {
                0.0
            },
        );
        report.set("pnr.fit_s", self.total_s("pnr.fit"));
        report.set("pnr.place_s", self.self_s("place.anneal"));
        report.set("pnr.route_s", self.self_s("route.negotiate"));
        report.set("pnr.place_moves", self.counter("place.moves"));
        report.set(
            "pnr.route_relaxations",
            self.counter("route.spfa_relaxations"),
        );
        report.set("pnr.fit_attempts", self.counter("pnr.fit_attempts"));
        report.set("attacks.frame_s", self.total_s(span::ATTACK_FRAME));
        report.set("attacks.sat_s", self.total_s("attack.sat"));
        report.set("attacks.dips", self.counter("attack.dips"));
        let solve_s = self.total_s("sat.solve");
        let conflicts = self.counter("sat.conflicts");
        report.set("sat.solve_s", solve_s);
        report.set("sat.conflicts", conflicts);
        report.set("sat.decisions", self.counter("sat.decisions"));
        report.set(
            "sat.conflicts_per_s",
            if solve_s > 0.0 {
                conflicts / solve_s
            } else {
                0.0
            },
        );
        let equiv_s = self.total_s(span::EQUIV);
        let vectors = self.counter(counter::VECTORS);
        report.set("netlist.equiv_s", equiv_s);
        report.set("netlist.vectors", vectors);
        report.set(
            "netlist.ns_per_vector",
            if vectors > 0.0 {
                equiv_s * 1e9 / vectors
            } else {
                0.0
            },
        );
        let hits = self.counter("cache.hits");
        let lookups = hits + self.counter("cache.misses");
        report.set(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        let requests = self.counter("serve.requests");
        report.set(
            "journal.commits_per_request",
            if requests > 0.0 {
                self.counter("journal.commits") / requests
            } else {
                0.0
            },
        );
        report.set(
            "serve.refused",
            self.counter("serve.overloaded") + self.counter("serve.stalled"),
        );
    }
}
