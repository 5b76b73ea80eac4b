//! `serve_mix`: the flow as a service caller sees it. A closed loop of two
//! connections against an in-process `shell-serve` (two workers, fresh
//! in-memory state directory, ephemeral port) sends rounds of a fixed,
//! seed-shuffled mix of warm cache hits on a hot set, cold `lock` misses on
//! fresh seeds, and `attack` jobs. Stage 1 is the caller time spent on hits
//! in a round, stage 2 the caller time spent on cold requests.
//!
//! No record of real service traffic exists. The mix is the one the
//! committed `BENCH_serve` harness (`crates/bench/src/bin/bench_serve.rs`)
//! sends: the default lock request, 32 warm repeats of it, and 8 attack
//! jobs on `AxiXbar { channels: 6, width: 4 }` with 40 key bits, each on a
//! distinct seed. A round sends that mix twice.

use crate::flow::lock_by_layers;
use crate::layers::Profile;
use crate::report::{median, peak_rss_mb, percentile, secs, timed, Report};
use crate::Args;
use shell_chaos::{Io, Journal};
use shell_lock::ShellOptions;
use shell_serve::{CircuitSpec, Client, JobKind, JobRequest, Server, ServerConfig};
use shell_util::{split_mix64, Json, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-up repetitions (start, recover, fill the hot set); `setup_s` is
/// their median and the last server serves the timed part.
const SETUP_REPS: usize = 5;
/// Server workers and client connections.
const WORKERS: usize = 2;
/// Lock artifacts the hits read. `BENCH_serve` warms one; 32 cold locks
/// make set-up an aggregate of about 0.35 s instead of one 10 ms lock, and
/// the hits average over artifacts of different sizes, which with 8 moved
/// `stage1_s` by up to a quarter from seed to seed.
const HOT_SET: usize = 32;
/// Copies of the `BENCH_serve` mix in one round. Two make a round's hits
/// (stage 1) an aggregate of about 75 ms.
const MIX_COPIES: usize = 2;
/// One round: this many hits, cold locks and attack jobs.
const ROUND_HITS: usize = 32 * MIX_COPIES;
const ROUND_LOCKS: usize = MIX_COPIES;
const ROUND_ATTACKS: usize = 8 * MIX_COPIES;
/// Counters of the file writes and fsyncs the service asked for.
const WRITES: &str = "bench.io_writes";
const SYNCS: &str = "bench.io_syncs";
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 2.4;
/// Longest a caller waits for one result.
const WAIT_MS: u64 = 60_000;
/// Directory of the traced run's real-disk commits, in the checkout.
const STATE_ROOT: &str = ".perfbench_state";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Lock,
    Attack,
}

/// `BENCH_serve`'s lock request (the default one) on `seed`.
fn lock_request(seed: u64) -> JobRequest {
    JobRequest {
        seed,
        ..JobRequest::default()
    }
}

/// `BENCH_serve`'s attack job on `seed`.
fn attack_request(seed: u64) -> JobRequest {
    JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::AxiXbar {
            channels: 6,
            width: 4,
        }),
        key_bits: 40,
        seed,
        ..JobRequest::default()
    }
}

/// A distinct seed per (stream, index): every cold request misses.
fn fresh_seed(run_seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = run_seed;
    let mut state = split_mix64(&mut state) ^ (stream << 56) ^ index;
    split_mix64(&mut state)
}

/// The server's state directory, held in memory. The service makes every
/// read, write, rename, list and remove it makes on disk, in the same
/// order and with the same errors for missing paths; only the storage is
/// RAM, and `sync` only counts.
///
/// On the virtual ext4 disk this was written on, creating a file with a
/// new name took from 15 µs to 0.55 ms, rising with the file churn of the
/// last few minutes, and a hit creates two: that cost, not the service's
/// own code, set the hit latency and made it drift from run to run. The real-disk cost of a hit's commit is the traced run's
/// `chaos.commit_s`; the writes and barriers per request are
/// `chaos.writes_per_request` and `chaos.syncs_per_request`.
#[derive(Debug, Default)]
struct MemIo {
    tree: Mutex<MemTree>,
}

#[derive(Debug, Default)]
struct MemTree {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemTree {
    /// A file may be created only in an existing directory.
    fn check_parent(&self, path: &Path) -> io::Result<()> {
        match path.parent().filter(|p| !p.as_os_str().is_empty()) {
            Some(parent) if !self.dirs.contains(parent) => Err(not_found(parent)),
            _ => Ok(()),
        }
    }
}

impl Io for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let tree = self.tree.lock().expect("state lock");
        tree.files.get(path).cloned().ok_or_else(|| not_found(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        shell_trace::counter_add(WRITES, 1);
        let mut tree = self.tree.lock().expect("state lock");
        tree.check_parent(path)?;
        tree.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        shell_trace::counter_add(SYNCS, 1);
        if self.exists(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.tree.lock().expect("state lock");
        tree.check_parent(to)?;
        let bytes = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree.lock().expect("state lock");
        tree.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree.lock().expect("state lock");
        for dir in path.ancestors().filter(|p| !p.as_os_str().is_empty()) {
            tree.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.tree.lock().expect("state lock");
        // Paths order component by component, so a directory's entries
        // follow it directly.
        let children = |keys: &mut dyn Iterator<Item = &PathBuf>| -> Vec<PathBuf> {
            keys.take_while(|p| p.starts_with(path))
                .filter(|p| p.parent() == Some(path))
                .cloned()
                .collect()
        };
        let mut entries = children(&mut tree.files.range(path.to_path_buf()..).map(|(p, _)| p));
        entries.extend(children(&mut tree.dirs.range(path.to_path_buf()..)));
        entries.sort();
        Ok(entries)
    }
    fn exists(&self, path: &Path) -> bool {
        let tree = self.tree.lock().expect("state lock");
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }
}

/// A running server with its hot set.
struct Service {
    server: Server,
    hot: Vec<(JobRequest, String)>,
}

/// Submits `request` and waits for its terminal document.
fn call(client: &mut Client, request: &JobRequest) -> Result<(bool, Json), String> {
    let submitted = client.submit(request).map_err(|e| e.to_string())?;
    let doc = client
        .result(submitted.id, WAIT_MS)
        .map_err(|e| e.to_string())?;
    if doc.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("job {} ended {doc:?}", submitted.id));
    }
    Ok((submitted.cached, doc))
}

fn result_text(doc: &Json) -> String {
    doc.get("result")
        .map(Json::to_string_compact)
        .unwrap_or_default()
}

/// Starts a server on a fresh state directory (startup recovery runs on
/// it) and fills the hot set with cold locks.
fn set_up(args: &Args, report: &mut Report) -> Option<Service> {
    let mut config = ServerConfig::ephemeral("state");
    config.workers = WORKERS;
    config.io = Arc::new(MemIo::default());
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            report.check(false, || format!("server did not start: {e}"));
            return None;
        }
    };
    let mut service = Service {
        server,
        hot: Vec::new(),
    };
    let mut client = match Client::connect(&service.server.local_addr().to_string()) {
        Ok(client) => client,
        Err(e) => {
            report.check(false, || format!("client did not connect: {e}"));
            service.server.stop();
            return None;
        }
    };
    for i in 0..HOT_SET {
        let request = lock_request(fresh_seed(args.seed, 0, i as u64));
        match call(&mut client, &request) {
            Ok((cached, doc)) => {
                report.check(!cached, || "a hot-set lock was already cached".into());
                service.hot.push((request, result_text(&doc)));
            }
            Err(e) => report.check(false, || format!("hot-set lock failed: {e}")),
        }
    }
    Some(service)
}

/// One request's outcome: kind, caller latency in seconds, and a problem.
type Sample = (Kind, f64, Option<String>);

/// Sends `plan` on `client` in order, closed loop.
fn send(client: &mut Client, service: &Service, plan: &[(Kind, u64)]) -> Vec<Sample> {
    plan.iter()
        .map(|&(kind, x)| {
            let request = match kind {
                Kind::Hit => service.hot[x as usize].0.clone(),
                Kind::Lock => lock_request(x),
                Kind::Attack => attack_request(x),
            };
            let (outcome, s) = timed(|| call(client, &request));
            let problem = match (kind, outcome) {
                (_, Err(e)) => Some(e),
                (Kind::Hit, Ok((cached, doc))) => {
                    if !cached {
                        Some("hot request missed the cache".into())
                    } else if result_text(&doc) != service.hot[x as usize].1 {
                        Some("cache hit returned another artifact".into())
                    } else {
                        None
                    }
                }
                (_, Ok((true, _))) => Some("fresh request hit the cache".into()),
                (Kind::Attack, Ok((_, doc))) => {
                    let status = doc
                        .get("result")
                        .and_then(|r| r.get("report"))
                        .and_then(|r| r.get("status"));
                    (status.and_then(Json::as_str) != Some("broken"))
                        .then(|| format!("attack job not broken: {status:?}"))
                }
                (Kind::Lock, Ok(_)) => None,
            };
            (kind, s, problem)
        })
        .collect()
}

/// Runs one round on the two clients: the round's requests are shuffled by
/// the seed and dealt alternately to the two connections.
fn round(
    clients: &mut [Client; WORKERS],
    service: &Service,
    args: &Args,
    index: u64,
) -> Vec<Sample> {
    let mut plan: Vec<(Kind, u64)> = Vec::new();
    let mut rng = Rng::seed_from_u64(fresh_seed(args.seed, 1, index));
    for _ in 0..ROUND_HITS {
        plan.push((Kind::Hit, rng.gen_range(0..service.hot.len()) as u64));
    }
    for i in 0..ROUND_LOCKS {
        plan.push((
            Kind::Lock,
            fresh_seed(args.seed, 2, index * 1000 + i as u64),
        ));
    }
    for i in 0..ROUND_ATTACKS {
        plan.push((
            Kind::Attack,
            fresh_seed(args.seed, 3, index * 1000 + i as u64),
        ));
    }
    rng.shuffle(&mut plan);
    let halves: Vec<Vec<(Kind, u64)>> = (0..WORKERS)
        .map(|c| plan.iter().copied().skip(c).step_by(WORKERS).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&halves)
            .map(|(client, half)| scope.spawn(move || send(client, service, half)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Runs rounds `first..first + count`; returns every round's samples and
/// the wall time they took.
fn rounds(
    clients: &mut [Client; WORKERS],
    service: &Service,
    args: &Args,
    first: u64,
    count: u64,
    report: &mut Report,
) -> (Vec<Vec<Sample>>, f64) {
    let t0 = Instant::now();
    let all: Vec<Vec<Sample>> = (first..first + count.max(1))
        .map(|index| {
            let samples = round(clients, service, args, index);
            for (_, _, problem) in &samples {
                report.check(problem.is_none(), || problem.clone().unwrap_or_default());
            }
            samples
        })
        .collect();
    (all, secs(t0))
}

/// Rounds in a timed run: a fixed amount of work per second of
/// `--seconds` (a round takes about 0.3 s on 2 shared CPUs), so the
/// server's retained state, and with it peak memory, does not depend on
/// how fast the machine happened to be.
fn round_count(args: &Args) -> u64 {
    (ROUNDS_PER_SECOND * args.seconds).ceil() as u64
}

fn latencies(rounds: &[Vec<Sample>], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    rounds
        .iter()
        .flatten()
        .filter(|(k, _, _)| keep(*k))
        .map(|(_, s, _)| *s)
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut service: Option<Service> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = service.take() {
            old.server.stop();
        }
        let (made, s) = timed(|| set_up(args, &mut report));
        setup_s.push(s);
        service = made;
    }
    let Some(service) = service else {
        return report;
    };
    let addr = service.server.local_addr().to_string();
    let connect = || Client::connect(&addr).expect("client connects to a running server");
    let mut clients = [connect(), connect()];

    if args.trace {
        trace(args, &service, &mut clients, &mut report);
    } else {
        let (all, wall) = rounds(
            &mut clients,
            &service,
            args,
            0,
            round_count(args),
            &mut report,
        );
        let per_round = |keep: fn(Kind) -> bool| -> Vec<f64> {
            all.iter()
                .map(|r| {
                    r.iter()
                        .filter(|(k, _, _)| keep(*k))
                        .map(|(_, s, _)| s)
                        .sum()
                })
                .collect()
        };
        let every = latencies(&all, |_| true);
        report.set("setup_s", median(&setup_s));
        report.set("stage1_s", median(&per_round(|k| k == Kind::Hit)));
        report.set("stage2_s", median(&per_round(|k| k != Kind::Hit)));
        report.set("ops_per_s", every.len() as f64 / wall);
        report.set("peak_rss_mb", peak_rss_mb());
    }
    drop(clients);
    service.server.stop();
    report
}

/// The traced run: untraced rounds, then traced rounds (their wall-time
/// ratio is the tracing overhead), then the hit's named calls timed one by
/// one, and the cold locks' flow run in process layer by layer.
fn trace(args: &Args, service: &Service, clients: &mut [Client; WORKERS], report: &mut Report) {
    let half = round_count(args) / 2;
    let (plain, plain_wall) = rounds(clients, service, args, 0, half, report);
    let ((traced, traced_wall), mut profile) =
        Profile::capture(|| rounds(clients, service, args, 1_000_000, half, report));
    let per_round = |wall: f64, n: usize| wall / n as f64;
    report.set(
        "trace.overhead_frac",
        per_round(traced_wall, traced.len()) / per_round(plain_wall, plain.len()) - 1.0,
    );
    let hit_p50_ms = median(&latencies(&traced, |k| k == Kind::Hit)) * 1e3;
    let every = latencies(&traced, |_| true);
    report.set("serve.req_p50_ms", percentile(&every, 50.0) * 1e3);
    report.set("serve.req_p95_ms", percentile(&every, 95.0) * 1e3);

    // The named calls of a hit, timed from outside on the same hot set. The
    // commit is timed twice, each time to a new target as a hit's result
    // record is: on the in-memory state the server runs on (what a hit
    // pays here) and on a real directory with fsync (what durability on
    // disk would add).
    let mut resolve_s = Vec::new();
    let mut lookup_s = Vec::new();
    let mut commit_s = Vec::new();
    let mut disk_commit_s = Vec::new();
    let disk_dir = PathBuf::from(STATE_ROOT).join(format!("journal-{}", std::process::id()));
    let journals = Journal::open(Arc::new(MemIo::default()), Path::new("journal"))
        .and_then(|mem| Journal::open(shell_chaos::real(), &disk_dir).map(|disk| (mem, disk)));
    let (mem_journal, disk_journal) = match &journals {
        Ok(pair) => pair,
        Err(e) => {
            report.check(false, || format!("journal did not open: {e}"));
            let _ = std::fs::remove_dir_all(STATE_ROOT);
            return;
        }
    };
    for (i, (request, artifact)) in service.hot.iter().cycle().take(2 * HOT_SET).enumerate() {
        let (resolved, s) = timed(|| request.resolve());
        resolve_s.push(s);
        let Ok(resolved) = resolved else {
            report.check(false, || "hot request no longer resolves".into());
            continue;
        };
        let (found, s) = timed(|| service.server.cache().lookup(&resolved.key));
        lookup_s.push(s);
        report.check(found.is_some(), || "hot artifact left the cache".into());
        // A terminal record carries the request and the artifact.
        let record = format!("{}{artifact}", request.to_json().to_string_pretty());
        let target = format!("results/{i}.json");
        for (journal, dir, times) in [
            (mem_journal, Path::new("journal"), &mut commit_s),
            (disk_journal, disk_dir.as_path(), &mut disk_commit_s),
        ] {
            let (done, s) = timed(|| journal.commit(&dir.join(&target), record.as_bytes()));
            times.push(s);
            report.check(done.is_ok(), || {
                format!("journal commit failed: {:?}", done.err())
            });
        }
    }
    let _ = std::fs::remove_dir_all(STATE_ROOT);
    let (resolve, lookup, commit) = (median(&resolve_s), median(&lookup_s), median(&commit_s));
    report.set("serve.hit_p50_ms", hit_p50_ms);
    report.set("serve.resolve_s", resolve);
    report.set("serve.cache_lookup_s", lookup);
    report.set("serve.commit_s", commit);
    report.set("chaos.commit_s", median(&disk_commit_s));
    report.set(
        "serve.other_ms",
        hit_p50_ms - (resolve + lookup + commit) * 1e3,
    );

    // The cold locks' flow, in process and layer by layer, on as many
    // fresh seeds as the hot set has.
    let ((), flow_profile) = Profile::capture(|| {
        let mut flow_s = Vec::new();
        for i in 0..HOT_SET as u64 {
            let request = lock_request(fresh_seed(args.seed, 2, i));
            let Some(design) = request.circuit.as_ref().and_then(|c| c.build().ok()) else {
                report.check(false, || "cold circuit does not build".into());
                continue;
            };
            let mut options = ShellOptions::default();
            options.pnr.seed = request.seed;
            let (outcome, s) = timed(|| lock_by_layers(&design, &options));
            flow_s.push(s);
            report.check(outcome.is_ok(), || {
                format!("in-process cold lock failed: {:?}", outcome.err())
            });
        }
        report.set("serve.flow_s", median(&flow_s));
    });
    let requests = profile.counter("serve.requests");
    for (metric, counter) in [
        ("chaos.writes_per_request", WRITES),
        ("chaos.syncs_per_request", SYNCS),
    ] {
        report.set(
            metric,
            if requests > 0.0 {
                profile.counter(counter) / requests
            } else {
                0.0
            },
        );
    }
    profile.merge(flow_profile);
    profile.fill(report);
}
