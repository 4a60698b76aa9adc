//! The workloads, their set-up, the round loop and the figures it yields.
//!
//! Every workload runs the same kinds of operation in each round —
//! kernel executions, CG solves, in-process requests, verdicts for
//! first-seen programs and daemon calls — so every run reports every
//! end-to-end metric.  What a workload changes is how many steps of each
//! kind a round holds (its [`Profile`]), so that its own layers get the
//! most samples: the engines and runtime in `kernels`; synthesis,
//! compilation, per-request work and the daemon's transport in
//! `requests`.

use crate::cg::{self, CgAnswer};
use crate::checks::{self, Observed};
use crate::rename::rename_identifiers;
use crate::serve::{self, Daemon};
use crate::stats::{self, Rng};
use crate::trace::Trace;
use ss_interp::{
    ExecMode, ExecOptions, ExecStats, ExecutionMode, Heap, InputSpec, RunRequest, Session,
};
use ss_npb::{CgParams, Class, StudyKernel};
use ss_parallelizer::Artifacts;
use ss_runtime::CsrMatrix;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The kernels of the execution leg: both monotone CSR patterns, a
/// reduction and both carried-wavefront kernels.
const EXEC_KERNELS: [&str; 5] = [
    "fig9_csr_product",
    "cg_spmv_rows",
    "cg_norm_reduction",
    "sptrsv_levels",
    "gauss_seidel_sweep",
];

/// Input scale of the execution kernels: large enough that loop bodies
/// outweigh dispatch.
const EXEC_SCALE: i64 = 300;

/// Input scale of every request and daemon call.
const REQUEST_SCALE: i64 = 64;

/// The CG problem: NPB class W (`na` = 7000).
fn cg_params() -> CgParams {
    Class::W.params()
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// First-seen programs in each request mix, next to the catalogue's 15
/// kernels in both legs: one request in 7.
const MIX_COLD: usize = 5;

/// Artifact-cache bound, in programs, of the request session and of the
/// daemon: the catalogue and every first-seen program made between two
/// uses of a catalogue kernel fit, so under LRU the catalogue stays
/// cached and old first-seen programs are evicted.
const CACHE_CAPACITY: usize = 64;

/// Empty regions timed per round for each runtime's region cost.
const REGIONS_PER_ROUND: usize = 200;
/// SpMV calls timed per round and leg.
const SPMV_PER_ROUND: usize = 10;
/// `engines` round trips timed per round for the daemon's floor.
const FLOOR_CALLS_PER_ROUND: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Kernels,
    Requests,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Kernels, Workload::Requests];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Requests => "requests",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every workload runs every kind of operation.  The parallel legs
    /// get as many steps on `requests` as on `kernels`: their low
    /// percentile needs a few dozen samples a run to stay clear of the
    /// host's steal time.
    fn profile(self) -> Profile {
        match self {
            Workload::Kernels => Profile {
                exec_pairs: 6,
                cg_pairs: 4,
                request_mixes: 3,
                verdict_batches: 6,
                serve_mixes: 1,
            },
            Workload::Requests => Profile {
                exec_pairs: 6,
                cg_pairs: 4,
                request_mixes: 6,
                verdict_batches: 8,
                serve_mixes: 2,
            },
        }
    }
}

/// How much of each kind of operation one round holds.  Every request mix,
/// in process or over the daemon, is the same: see [`Bench::mix`].
struct Profile {
    /// Pairs of passes over the execution kernels, one pass per leg.
    exec_pairs: usize,
    /// Pairs of CG solves, one per leg.
    cg_pairs: usize,
    /// Request mixes sent in process.
    request_mixes: usize,
    /// Batches of verdicts for first-seen programs, one per catalogue
    /// kernel.
    verdict_batches: usize,
    /// Request mixes sent to the daemon.
    serve_mixes: usize,
}

/// One step of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Exec,
    Cg,
    Requests,
    Verdicts,
    Serve,
}

impl Profile {
    /// The round's steps, each kind's spread evenly through the round, so
    /// that a slow spell of the host falls on every kind alike.
    fn schedule(&self) -> Vec<Unit> {
        let kinds = [
            (Unit::Exec, self.exec_pairs),
            (Unit::Cg, self.cg_pairs),
            (Unit::Requests, self.request_mixes),
            (Unit::Verdicts, self.verdict_batches),
            (Unit::Serve, self.serve_mixes),
        ];
        let mut steps: Vec<(f64, Unit)> = kinds
            .iter()
            .flat_map(|&(unit, n)| (0..n).map(move |i| ((i as f64 + 0.5) / n as f64, unit)))
            .collect();
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        steps.into_iter().map(|(_, unit)| unit).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Leg {
    Serial,
    Parallel,
}

impl Leg {
    const BOTH: [Leg; 2] = [Leg::Serial, Leg::Parallel];

    /// The legs of the `turn`-th pair: the order alternates, so neither
    /// leg always runs on the other's warm caches.
    fn pair(turn: usize) -> [Leg; 2] {
        if turn.is_multiple_of(2) {
            [Leg::Serial, Leg::Parallel]
        } else {
            [Leg::Parallel, Leg::Serial]
        }
    }

    fn mode(self) -> ExecutionMode {
        match self {
            Leg::Serial => ExecutionMode::Serial,
            Leg::Parallel => ExecutionMode::Parallel,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Leg::Serial => "serial",
            Leg::Parallel => "parallel",
        }
    }

    fn threads(self, nproc: usize) -> usize {
        match self {
            Leg::Serial => 1,
            Leg::Parallel => nproc,
        }
    }
}

/// A program one request names: a catalogue kernel as it is, or renamed
/// with the prefix `q<tag>_`.
struct Program {
    kernel: usize,
    tag: Option<u64>,
    name: String,
    source: String,
}

/// A kernel compiled, with its inputs.
struct Prepared {
    kernel: StudyKernel,
    artifacts: Arc<Artifacts>,
    inputs: Heap,
}

/// A prepared kernel with its reference final heap.
struct Case {
    kernel: StudyKernel,
    artifacts: Arc<Artifacts>,
    inputs: Heap,
    reference: Heap,
}

impl Case {
    /// Checks one execution of this kernel on these inputs: reported
    /// verdicts and dispatch, the heap against the reference, properties.
    fn check(&self, threads: usize, leg: Leg, seen: &Observed) -> Result<(), String> {
        checks::execution(&self.kernel, threads, leg == Leg::Parallel, seen)?;
        checks::same_heap(&self.reference, &seen.heap)?;
        checks::properties(self.kernel.name, &seen.heap)
    }
}

/// What one set-up builds, and `setup_s` times: inputs, artifacts, the CG
/// matrix and the daemon.
struct Setup {
    exec_session: Session,
    exec: Vec<Prepared>,
    request_session: Session,
    catalogue: Vec<Prepared>,
    cg_matrix: CsrMatrix,
    makea_s: f64,
    daemon: Daemon,
}

/// A set-up with its oracles, which are computed after the set-up clock
/// stops and before the window opens.
struct State {
    exec_session: Session,
    exec: Vec<Case>,
    request_session: Session,
    /// The whole catalogue at [`REQUEST_SCALE`].
    catalogue: Vec<Case>,
    cg_matrix: CsrMatrix,
    cg_answer: CgAnswer,
    daemon: Daemon,
    /// Check failures met while computing the oracles.
    faults: Vec<String>,
}

fn spec(scale: i64, seed: u64) -> InputSpec {
    InputSpec { scale, seed }
}

/// The reference final heap of `artifacts` on `inputs`, from the
/// registry's reference engine.
fn reference_heap(session: &Session, artifacts: &Artifacts, inputs: &Heap) -> Result<Heap, String> {
    let reference = session
        .registry()
        .reference()
        .ok_or("the engine registry has no reference engine")?;
    Ok(reference
        .run_serial(
            artifacts,
            inputs.clone(),
            &ExecOptions {
                threads: 1,
                ..ExecOptions::default()
            },
        )
        .map_err(|e| format!("reference run of {}: {e}", artifacts.report.name))?
        .heap)
}

impl Setup {
    fn build(seed: u64, nproc: usize) -> Result<Setup, String> {
        let kernels = ss_npb::study_kernels();
        let prepare = |session: &Session, kernel: &StudyKernel, scale: i64| {
            let artifacts = session
                .artifacts(kernel.name, kernel.source)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            let inputs = ss_interp::synthesize_inputs(&artifacts.program, &spec(scale, seed))
                .map_err(|e| format!("{}: input synthesis: {e}", kernel.name))?;
            Ok::<_, String>(Prepared {
                kernel: kernel.clone(),
                artifacts,
                inputs,
            })
        };

        let request_session = Session::new().with_cache_capacity(CACHE_CAPACITY);
        let catalogue = kernels
            .iter()
            .map(|k| prepare(&request_session, k, REQUEST_SCALE))
            .collect::<Result<Vec<_>, _>>()?;
        let exec_session = Session::new();
        let exec = EXEC_KERNELS
            .iter()
            .map(|name| {
                let kernel = kernels
                    .iter()
                    .find(|k| k.name == *name)
                    .ok_or(format!("kernel {name} is not in the catalogue"))?;
                prepare(&exec_session, kernel, EXEC_SCALE)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let started = Instant::now();
        let cg_matrix = ss_npb::makea(&cg_params(), seed);
        let makea_s = started.elapsed().as_secs_f64();

        let daemon = Daemon::start(nproc, nproc, CACHE_CAPACITY)
            .map_err(|e| format!("daemon start: {e}"))?;
        Ok(Setup {
            exec_session,
            exec,
            request_session,
            catalogue,
            cg_matrix,
            makea_s,
            daemon,
        })
    }
}

impl State {
    /// Adds the oracles to `setup`: reference heaps from the reference
    /// engine, the class-verdict and property checks of those heaps, and
    /// the benchmark's own CG answer.
    fn new(setup: Setup) -> Result<State, String> {
        let mut faults = Vec::new();
        let mut cases = |session: &Session, prepared: Vec<Prepared>| {
            prepared
                .into_iter()
                .map(|p| {
                    let reference = reference_heap(session, &p.artifacts, &p.inputs)?;
                    let checked = checks::class_verdict(&p.kernel, &p.artifacts.report)
                        .and_then(|()| checks::properties(p.kernel.name, &reference));
                    if let Err(e) = checked {
                        faults.push(format!("oracle: {e}"));
                    }
                    Ok(Case {
                        kernel: p.kernel,
                        artifacts: p.artifacts,
                        inputs: p.inputs,
                        reference,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let catalogue = cases(&setup.request_session, setup.catalogue)?;
        let exec = cases(&setup.exec_session, setup.exec)?;
        let cg_answer = cg::solve(&setup.cg_matrix, &cg_params());
        Ok(State {
            exec_session: setup.exec_session,
            exec,
            request_session: setup.request_session,
            catalogue,
            cg_matrix: setup.cg_matrix,
            cg_answer,
            daemon: setup.daemon,
            faults,
        })
    }
}

/// Operations attempted and failed.  A failed check fails its operation
/// and marks the run incorrect; an operation that returns an error fails
/// without a check having been wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: &str, message: &str) {
        if self.notes.len() < 20 {
            self.notes.push(format!("{what}: {message}"));
        }
    }

    fn error(&mut self, what: &str, message: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.note(what, &message.to_string());
    }

    fn checked(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        self.late(what, result);
    }

    /// A check made after the window on an operation already counted.
    fn late(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.wrong += 1;
            self.note(what, &e);
        }
    }
}

/// Samples of the end-to-end metrics.
#[derive(Default)]
struct Record {
    exec_serial_s: Vec<f64>,
    exec_par_s: Vec<f64>,
    cg_serial_s: Vec<f64>,
    cg_par_s: Vec<f64>,
    request: Latencies,
    request_busy_s: f64,
    verdict_ms: Vec<f64>,
    serve: Latencies,
    serve_wall_s: f64,
}

/// Latencies of in-process requests or of daemon calls.
#[derive(Default)]
struct Latencies {
    /// Every sample, first-seen programs' included: the throughput's.
    all_ms: Vec<f64>,
    /// The catalogue programs' samples, per kernel and leg.
    by_program: BTreeMap<(usize, Leg), Vec<f64>>,
}

impl Latencies {
    fn add(&mut self, program: &Program, leg: Leg, millis: f64) {
        self.all_ms.push(millis);
        if program.tag.is_none() {
            self.by_program
                .entry((program.kernel, leg))
                .or_default()
                .push(millis);
        }
    }

    /// The median over the catalogue's kernels in both legs of each one's
    /// median latency.  Latencies differ by kernel from 0.2 to 14 ms with
    /// wide gaps between them, and the median of all samples sits at such
    /// a gap: it jumps from one kernel's latency to the next's when one
    /// first-seen program more or less falls below it.  Weighing every
    /// kernel and leg the same keeps it in place.
    fn p50(&self) -> f64 {
        let medians: Vec<f64> = self.by_program.values().map(|v| stats::median(v)).collect();
        stats::median(&medians)
    }

    /// The tail percentile of the catalogue programs' samples, in which
    /// every kernel and leg has one sample per mix.  With first-seen
    /// programs counted, it sat at the gap below the slowest kernel and
    /// jumped across it with the mix's make-up.
    fn tail(&self) -> f64 {
        let catalogue: Vec<f64> = self.by_program.values().flatten().copied().collect();
        stats::percentile(&catalogue, stats::TAIL_PERCENTILE)
    }
}

/// A first-seen program's output, checked against the reference after
/// the window.  Only the program's kernel and tag (its source is made
/// again from them) and a digest of the heap are kept.
struct Pending {
    kernel: usize,
    tag: u64,
    digest: u64,
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// With tracing on: the end-to-end figures of the traced run, for
    /// comparison with an untraced one.
    pub traced_end_to_end: Vec<Metric>,
    /// Figures measured like the end-to-end metrics but left out of them,
    /// because they move with the host's steal time by more than any
    /// bound allows: the request tail.
    pub unbounded: Vec<Metric>,
    pub notes: Vec<String>,
    pub rounds: usize,
    /// Samples behind each end-to-end metric.
    pub samples: Vec<(&'static str, usize)>,
}

/// Fixtures only the traced run uses.
struct Layers {
    team: ss_runtime::ThreadTeam,
    service: ss_daemon::Service,
}

struct Bench {
    workload: Workload,
    schedule: Vec<Unit>,
    seed: u64,
    nproc: usize,
    st: State,
    rng: Rng,
    tally: Tally,
    rec: Record,
    trace: Option<(Trace, Layers)>,
    pending: Vec<Pending>,
    /// Renamed programs made so far (their prefixes stay unique).
    next_tag: u64,
    /// Picks the next first-seen request's kernel and leg; starts at a
    /// seeded offset and counts up.
    cold_turn: usize,
    /// Pairs of execution passes and of CG solves run so far; they set
    /// which leg of the next pair goes first.
    exec_turn: usize,
    cg_turn: usize,
}

/// Runs `workload` for `seconds` after set-up and returns its figures.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    // The daemon reads seeds as signed 64-bit integers.
    let data_seed = seed & i64::MAX as u64;
    let nproc = ss_runtime::hardware_threads();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut makeas = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<Setup> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(old) = last.take() {
            old.daemon.stop();
        }
        // The first set-up is timed from the start of the process.
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let built = Setup::build(data_seed, nproc)?;
        setups.push(started.elapsed().as_secs_f64());
        makeas.push(built.makea_s);
        last = Some(built);
    }
    let st = State::new(last.expect("at least one set-up"))?;
    let mut rng = Rng::new(seed);
    let cold_turn = rng.below(st.catalogue.len());

    let mut bench = Bench {
        workload,
        schedule: workload.profile().schedule(),
        seed: data_seed,
        nproc,
        rng,
        tally: Tally::default(),
        rec: Record::default(),
        trace: traced.then(|| {
            (
                Trace::default(),
                Layers {
                    team: ss_runtime::ThreadTeam::new(nproc),
                    service: ss_daemon::Service::new(ss_daemon::ServiceConfig {
                        shards: nproc,
                        cache_capacity: Some(CACHE_CAPACITY),
                        ..ss_daemon::ServiceConfig::default()
                    }),
                },
            )
        }),
        pending: Vec::new(),
        next_tag: 0,
        cold_turn,
        exec_turn: 0,
        cg_turn: 0,
        st,
    };
    for fault in std::mem::take(&mut bench.st.faults) {
        bench.tally.wrong += 1;
        bench.tally.note("set-up", &fault);
    }

    let cache_before = bench.st.request_session.cache_stats();
    let window = Instant::now();
    let mut rounds = 0;
    loop {
        bench.round();
        rounds += 1;
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    bench.verify_pending();
    bench.self_test();
    let end_to_end = bench.end_to_end(&setups);
    let unbounded = vec![("request_tail_ms".into(), bench.rec.request.tail(), "ms")];
    let samples = bench.sample_counts();
    let Bench {
        st, tally, trace, ..
    } = bench;
    let cache = st.request_session.cache_stats();
    st.daemon.stop();

    let (metrics, traced_end_to_end) = match trace {
        None => (end_to_end, Vec::new()),
        Some((mut tr, _layers)) => {
            // Per round, so that the figures do not grow with the number
            // of rounds that fit in the window.
            let per_round = |n: u64| n as f64 / rounds as f64;
            tr.add(
                "interp.session.cache_hits",
                per_round(cache.hits - cache_before.hits),
            );
            tr.add(
                "interp.session.cache_misses",
                per_round(cache.misses - cache_before.misses),
            );
            tr.add("npb.cg.parallel_calls", cg::parallel_calls(&cg_params()));
            for m in makeas {
                tr.add("npb.cg.makea_s", m);
            }
            (tr.metrics(), end_to_end)
        }
    };
    Ok(Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        traced_end_to_end,
        unbounded,
        notes: tally.notes,
        rounds,
        samples,
    })
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

impl Bench {
    fn round(&mut self) {
        for i in 0..self.schedule.len() {
            match self.schedule[i] {
                Unit::Exec => {
                    for leg in Leg::pair(self.exec_turn) {
                        self.exec_pass(leg);
                    }
                    self.exec_turn += 1;
                }
                Unit::Cg => {
                    for leg in Leg::pair(self.cg_turn) {
                        self.cg_solve(leg);
                    }
                    self.cg_turn += 1;
                }
                Unit::Requests => self.requests(),
                Unit::Verdicts => self.verdicts(),
                Unit::Serve => self.serve(),
            }
        }
        if self.trace.is_some() {
            self.probe_layers();
        }
    }

    fn threads(&self, leg: Leg) -> usize {
        leg.threads(self.nproc)
    }

    /// Catalogue kernel `kernel` renamed with the prefix `q<tag>_`.
    fn renamed(&self, kernel: usize, tag: u64) -> Program {
        let prefix = format!("q{tag}_");
        let k = &self.st.catalogue[kernel].kernel;
        Program {
            kernel,
            tag: Some(tag),
            name: format!("{prefix}{}", k.name),
            source: rename_identifiers(k.source, &prefix),
        }
    }

    /// A renamed copy of catalogue kernel `kernel`, new to every cache.
    fn first_seen(&mut self, kernel: usize) -> Program {
        self.next_tag += 1;
        self.renamed(kernel, self.next_tag)
    }

    fn catalogue_program(&self, kernel: usize) -> Program {
        let k = &self.st.catalogue[kernel].kernel;
        Program {
            kernel,
            tag: None,
            name: k.name.to_string(),
            source: k.source.to_string(),
        }
    }

    /// A request mix in seeded order: every catalogue kernel once in each
    /// leg, plus [`MIX_COLD`] first-seen programs, which take the
    /// catalogue kernels and the legs in turn.  In-process requests and
    /// daemon calls send the same mix.
    fn mix(&mut self) -> Vec<(Program, Leg)> {
        let n = self.st.catalogue.len();
        let mut batch = Vec::with_capacity(2 * n + MIX_COLD);
        for k in 0..n {
            for leg in Leg::BOTH {
                batch.push((self.catalogue_program(k), leg));
            }
        }
        for _ in 0..MIX_COLD {
            let turn = self.cold_turn;
            self.cold_turn += 1;
            let leg = Leg::BOTH[(turn + turn / n) % 2];
            batch.push((self.first_seen(turn % n), leg));
        }
        self.rng.shuffle(&mut batch);
        batch
    }

    /// Checks one execution of `program`: verdicts and dispatch now, the
    /// heap against the reference now (catalogue kernels) or after the
    /// window (first-seen programs).
    fn judge(&mut self, what: &str, program: &Program, leg: Leg, seen: Observed) {
        let case = &self.st.catalogue[program.kernel];
        let threads = self.threads(leg);
        let result = match program.tag {
            Some(_) => checks::execution(&case.kernel, threads, leg == Leg::Parallel, &seen),
            None => case.check(threads, leg, &seen),
        };
        if let (Some(tag), Ok(())) = (program.tag, &result) {
            self.pending.push(Pending {
                kernel: program.kernel,
                tag,
                digest: checks::heap_digest(&seen.heap),
            });
        }
        self.tally
            .checked(&format!("{what} {}", program.name), result);
    }

    /// One pass over the execution kernels through `Session::run`.
    fn exec_pass(&mut self, leg: Leg) {
        let threads = self.threads(leg);
        let mut total = 0.0;
        let mut complete = true;
        let (mut dispatched_s, mut spine_s, mut loops) = (0.0, 0.0, 0usize);
        for case in &self.st.exec {
            let request = RunRequest::new(case.kernel.name, case.kernel.source)
                .initial_heap(case.inputs.clone())
                .mode(leg.mode())
                .threads(threads);
            let started = Instant::now();
            let result = self.st.exec_session.run(&request);
            let seconds = started.elapsed().as_secs_f64();
            let what = format!("execution {} {}", case.kernel.name, leg.label());
            match result {
                Err(e) => {
                    complete = false;
                    self.tally.error(&what, e);
                }
                Ok(outcome) => {
                    total += seconds;
                    if let Some(stats) = &outcome.parallel {
                        let (d, n) = dispatched(stats);
                        dispatched_s += d;
                        spine_s += stats.total_seconds - d;
                        loops += n;
                    }
                    let seen = Observed::from_outcome(
                        outcome.heap,
                        &outcome.dispatched,
                        &outcome.verdicts,
                    );
                    self.tally.checked(&what, case.check(threads, leg, &seen));
                }
            }
        }
        if !complete {
            return;
        }
        match leg {
            Leg::Serial => self.rec.exec_serial_s.push(total),
            Leg::Parallel => {
                self.rec.exec_par_s.push(total);
                if let Some((tr, _)) = &mut self.trace {
                    tr.add("interp.engine.dispatched_s", dispatched_s);
                    tr.add("interp.engine.spine_s", spine_s);
                    tr.add("interp.engine.dispatched_loops", loops as f64);
                }
            }
        }
    }

    /// One native NPB CG solve (`ss_npb::run_cg_with`, Figure 10).
    fn cg_solve(&mut self, leg: Leg) {
        let result = ss_npb::run_cg_with(&cg_params(), self.threads(leg), self.seed);
        match leg {
            Leg::Serial => self.rec.cg_serial_s.push(result.seconds),
            Leg::Parallel => self.rec.cg_par_s.push(result.seconds),
        }
        let check = checks::cg(result.zeta, result.rnorm, &self.st.cg_answer);
        self.tally.checked(&format!("CG {}", leg.label()), check);
    }

    /// The round's in-process requests, one caller, closed loop.
    fn requests(&mut self) {
        let batch = self.mix();
        for (program, leg) in batch {
            let request = RunRequest::new(&program.name, &program.source)
                .scale(REQUEST_SCALE)
                .seed(self.seed)
                .mode(leg.mode())
                .threads(self.threads(leg));
            let started = Instant::now();
            let result = self.st.request_session.run(&request);
            let seconds = started.elapsed().as_secs_f64();
            match result {
                Err(e) => self.tally.error(&format!("request {}", program.name), e),
                Ok(outcome) => {
                    self.rec.request.add(&program, leg, seconds * 1e3);
                    self.rec.request_busy_s += seconds;
                    if let Some((tr, _)) = &mut self.trace {
                        std::hint::black_box(
                            tr.time("interp.json.outcome_us", || outcome.to_json()),
                        );
                    }
                    let seen = Observed::from_outcome(
                        outcome.heap,
                        &outcome.dispatched,
                        &outcome.verdicts,
                    );
                    self.judge("request", &program, leg, seen);
                }
            }
        }
    }

    /// Verdicts for first-seen programs, one per catalogue kernel:
    /// `Session::artifacts` on a miss.
    fn verdicts(&mut self) {
        for kernel in 0..self.st.catalogue.len() {
            let program = self.first_seen(kernel);
            let started = Instant::now();
            let result = self
                .st
                .request_session
                .artifacts_traced(&program.name, &program.source);
            let millis = started.elapsed().as_secs_f64() * 1e3;
            let what = format!("verdict {}", program.name);
            match result {
                Err(e) => self.tally.error(&what, e),
                Ok((artifacts, hit)) => {
                    self.rec.verdict_ms.push(millis);
                    let case = &self.st.catalogue[kernel];
                    let check = if hit {
                        Err("a first-seen program hit the cache".to_string())
                    } else {
                        checks::class_verdict(&case.kernel, &artifacts.report).and_then(|()| {
                            checks::same_verdicts(&case.artifacts.report, &artifacts.report)
                        })
                    };
                    self.tally.checked(&what, check);
                }
            }
        }
    }

    /// The round's daemon calls, on `nproc` connections.
    fn serve(&mut self) {
        let batch = self.mix();
        let lines: Vec<String> = batch
            .iter()
            .map(|(p, leg)| {
                let kernel = p.tag.is_none().then_some(p.name.as_str());
                serve::run_line(
                    kernel,
                    &p.name,
                    &p.source,
                    leg.label(),
                    self.threads(*leg),
                    REQUEST_SCALE,
                    self.seed,
                )
            })
            .collect();
        let (replies, wall) = self.st.daemon.batch(&lines);
        self.rec.serve_wall_s += wall;
        for (((program, leg), reply), line) in batch.iter().zip(replies).zip(&lines) {
            let what = format!("daemon call {}", program.name);
            let seen = reply
                .response
                .map_err(|e| e.to_string())
                .and_then(|text| serve::result(&text))
                .and_then(|result| serve::observed(&result));
            match seen {
                Err(e) => self.tally.error(&what, e),
                Ok(seen) => {
                    self.rec.serve.add(program, *leg, reply.millis);
                    self.judge("daemon call", program, *leg, seen);
                }
            }
            if self.trace.is_some() {
                self.dispatch_in_process(line, reply.millis);
            }
        }
    }

    /// Traced run: the same line through `parse_request` and
    /// `Service::dispatch` in process, and the transport's share of the
    /// daemon call.
    fn dispatch_in_process(&mut self, line: &str, served_ms: f64) {
        let Some((tr, layers)) = &mut self.trace else {
            return;
        };
        let parsed = tr.time("daemon.protocol.parse_us", || {
            ss_daemon::protocol::parse_request(line)
        });
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                self.tally.error("in-process parse", e.message);
                return;
            }
        };
        let started = Instant::now();
        let dispatched = layers.service.dispatch(&request);
        let millis = started.elapsed().as_secs_f64() * 1e3;
        tr.add("daemon.service.dispatch_ms", millis);
        tr.add("daemon.transport_ms", served_ms - millis);
        if let Err(e) = dispatched {
            self.tally.error("in-process dispatch", e.message);
        }
    }

    /// Traced run: times each layer's public functions on this workload's
    /// programs and inputs — per program for the compiler's layers, per
    /// pass over the program set for synthesis and the engines.
    fn probe_layers(&mut self) {
        let nproc = self.nproc;
        let seed = self.seed;
        let Some((tr, layers)) = &mut self.trace else {
            return;
        };
        let (set, scale) = match self.workload {
            Workload::Kernels => (&self.st.exec, EXEC_SCALE),
            _ => (&self.st.catalogue, REQUEST_SCALE),
        };
        let tally = &mut self.tally;

        for case in set {
            let k = &case.kernel;
            let program = match tr.time("ssir.parse_ms", || ss_ir::parse_program(k.name, k.source))
            {
                Ok(p) => p,
                Err(e) => {
                    tally.error(&format!("parse {}", k.name), e);
                    continue;
                }
            };
            std::hint::black_box(
                tr.time("core.analyze_ms", || ss_parallelizer::parallelize(&program)),
            );
            std::hint::black_box(tr.time("core.lower_ms", || {
                let slots = ss_ir::compile_program(&program);
                let bytecode = ss_ir::compile_bytecode(&slots);
                ss_ir::optimize(&bytecode, ss_ir::OptLevel::O1)
            }));
        }

        let mut synth_s = 0.0;
        for case in set {
            let started = Instant::now();
            let synthesized =
                ss_interp::synthesize_inputs(&case.artifacts.program, &spec(scale, seed));
            synth_s += started.elapsed().as_secs_f64();
            tally.checked(
                &format!("synthesis {}", case.kernel.name),
                match synthesized {
                    Ok(heap) if heap == case.inputs => Ok(()),
                    Ok(_) => Err("inputs differ from the set-up's for the same seed".to_string()),
                    Err(e) => Err(e.to_string()),
                },
            );
        }
        tr.add("interp.inputs.synth_ms", synth_s * 1e3);

        let registry = self.st.request_session.registry().clone();
        for engine in registry.iter().filter(|e| !e.caps().reference) {
            for leg in Leg::BOTH {
                let opts = ExecOptions {
                    threads: leg.threads(nproc),
                    ..ExecOptions::default()
                };
                let mut total = 0.0;
                for case in set {
                    let what = format!("{} {} {}", engine.name(), leg.label(), case.kernel.name);
                    let started = Instant::now();
                    let out = match leg {
                        Leg::Serial => {
                            engine.run_serial(&case.artifacts, case.inputs.clone(), &opts)
                        }
                        Leg::Parallel => {
                            engine.run_parallel(&case.artifacts, case.inputs.clone(), &opts)
                        }
                    };
                    total += started.elapsed().as_secs_f64();
                    match out {
                        Ok(out) => {
                            tally.checked(&what, checks::same_heap(&case.reference, &out.heap))
                        }
                        Err(e) => tally.error(&what, e),
                    }
                }
                let leg_name = if leg == Leg::Serial { "serial" } else { "par" };
                tr.add(
                    format!("interp.engine.{}.{leg_name}_ms", engine.name()),
                    total * 1e3,
                );
            }

            // First parallel run on fresh artifacts minus a warm run: the
            // engine's one-off work per program (inspection, lowering).
            let opts = ExecOptions {
                threads: nproc,
                ..ExecOptions::default()
            };
            let mut extra = 0.0;
            for case in set {
                let fresh = match Artifacts::compile_source(case.kernel.name, case.kernel.source) {
                    Ok(a) => a,
                    Err(e) => {
                        tally.error(&format!("compile {}", case.kernel.name), e);
                        continue;
                    }
                };
                if let Err(e) = engine.prepare(&fresh) {
                    tally.error(&format!("prepare {}", engine.name()), e);
                    continue;
                }
                let mut times = [0.0; 2];
                for t in &mut times {
                    let started = Instant::now();
                    let out = engine.run_parallel(&fresh, case.inputs.clone(), &opts);
                    *t = started.elapsed().as_secs_f64();
                    let what = format!("{} fresh {}", engine.name(), case.kernel.name);
                    match out {
                        Ok(out) => {
                            tally.checked(&what, checks::same_heap(&case.reference, &out.heap))
                        }
                        Err(e) => tally.error(&what, e),
                    }
                }
                extra += times[0] - times[1];
            }
            tr.add(
                format!("interp.engine.{}.inspect_ms", engine.name()),
                extra * 1e3,
            );
        }

        for _ in 0..REGIONS_PER_ROUND {
            tr.time("runtime.team.region_us", || layers.team.run(&|_| {}));
        }
        for _ in 0..REGIONS_PER_ROUND {
            tr.time("runtime.pool.region_us", || {
                ss_runtime::parallel_for(nproc, nproc, |_| {})
            });
        }

        let a = &self.st.cg_matrix;
        let x = vec![1.0; a.ncols];
        let mut y = vec![0.0; a.nrows];
        for _ in 0..SPMV_PER_ROUND {
            tr.time("npb.cg.spmv_serial_ms", || a.spmv_serial(&x, &mut y));
            tr.time("npb.cg.spmv_par_ms", || a.spmv(nproc, &x, &mut y));
        }
        std::hint::black_box(&y);

        for _ in 0..FLOOR_CALLS_PER_ROUND {
            let reply = self.st.daemon.call(r#"{"op":"engines"}"#);
            match reply.response {
                Ok(text) if text.starts_with(r#"{"ok":true"#) => {
                    tr.add("daemon.floor_ms", reply.millis)
                }
                Ok(text) => tally.error("engines call", text),
                Err(e) => tally.error("engines call", e),
            }
        }
    }

    /// Checks the heaps of first-seen programs against the reference
    /// engine, compiled and run here after the window.
    fn verify_pending(&mut self) {
        for p in std::mem::take(&mut self.pending) {
            let program = self.renamed(p.kernel, p.tag);
            let what = format!("first-seen {}", program.name);
            let reference = Artifacts::compile_source(&program.name, &program.source)
                .map_err(|e| e.to_string())
                .and_then(|artifacts| {
                    let inputs = ss_interp::synthesize_inputs(
                        &artifacts.program,
                        &spec(REQUEST_SCALE, self.seed),
                    )
                    .map_err(|e| e.to_string())?;
                    reference_heap(&self.st.request_session, &artifacts, &inputs)
                });
            let result = reference.and_then(|r| {
                if checks::heap_digest(&r) == p.digest {
                    Ok(())
                } else {
                    Err("final heap differs from the reference".to_string())
                }
            });
            self.tally.late(&what, result);
        }
    }

    /// Every check must reject a corrupted output.
    fn self_test(&mut self) {
        let find = |name: &str| self.st.catalogue.iter().find(|c| c.kernel.name == name);
        let (Some(fig9), Some(sptrsv)) = (find("fig9_csr_product"), find("sptrsv_levels")) else {
            self.tally.wrong += 1;
            self.tally
                .note("self-test", "fig9_csr_product or sptrsv_levels missing");
            return;
        };
        let accepted = checks::self_test(
            (&fig9.kernel, &fig9.reference, &fig9.artifacts.report),
            (&sptrsv.kernel, &sptrsv.reference, &sptrsv.artifacts.report),
            &self.st.cg_answer,
        );
        for a in accepted {
            self.tally.wrong += 1;
            self.tally
                .note("self-test: check accepted a corrupted output", &a);
        }
    }

    /// Timings are medians, except the parallel legs', which are their
    /// 10th percentile: a parallel pass or solve needs every vCPU at
    /// once, and while the host takes one away (steal time) it waits at
    /// every barrier, so its samples have a long upper tail that can
    /// cover most of a run and double its median.
    fn end_to_end(&self, setups: &[f64]) -> Vec<Metric> {
        let r = &self.rec;
        let per_s = |n: usize, s: f64| n as f64 / s;
        vec![
            ("setup_s".into(), stats::median(setups), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            ("exec_serial_s".into(), stats::median(&r.exec_serial_s), "s"),
            (
                "exec_par_s".into(),
                stats::percentile(&r.exec_par_s, stats::PARALLEL_PERCENTILE),
                "s",
            ),
            ("cg_serial_s".into(), stats::median(&r.cg_serial_s), "s"),
            (
                "cg_par_s".into(),
                stats::percentile(&r.cg_par_s, stats::PARALLEL_PERCENTILE),
                "s",
            ),
            ("request_p50_ms".into(), r.request.p50(), "ms"),
            (
                "request_rps".into(),
                per_s(r.request.all_ms.len(), r.request_busy_s),
                "req/s",
            ),
            ("verdict_ms".into(), stats::median(&r.verdict_ms), "ms"),
            ("serve_p50_ms".into(), r.serve.p50(), "ms"),
            ("serve_tail_ms".into(), r.serve.tail(), "ms"),
            (
                "serve_rps".into(),
                per_s(r.serve.all_ms.len(), r.serve_wall_s),
                "req/s",
            ),
        ]
    }

    fn sample_counts(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("exec passes per leg", self.rec.exec_serial_s.len()),
            ("CG solves per leg", self.rec.cg_serial_s.len()),
            ("requests", self.rec.request.all_ms.len()),
            ("verdicts", self.rec.verdict_ms.len()),
            ("daemon calls", self.rec.serve.all_ms.len()),
        ]
    }
}

/// Seconds in dispatched loops, and how many loops were dispatched.
fn dispatched(stats: &ExecStats) -> (f64, usize) {
    stats
        .loops
        .values()
        .filter(|l| matches!(l.mode, ExecMode::Parallel { .. }))
        .fold((0.0, 0), |(s, n), l| (s + l.seconds, n + 1))
}
