//! The three workloads: set-up, the closed measurement loop, and the
//! metrics each run reports.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use troy_cluster::{Cluster, ClusterConfig, ClusterHandle, ClusterSnapshot};
use troy_portfolio::ResultCache;
use troy_service::{Service, ServiceConfig, ServiceHandle, StatsSnapshot};

use crate::check::{check, Outcome};
use crate::client::Conn;
use crate::replay::{self, Layers};
use crate::stats::{percentile, ratio, Percentile};
use crate::trace::Tracer;
use crate::universe::{Entry, Rng, Source};

/// Longest a client waits for one answer: the request deadline, the
/// supervisor's one-second grace pass, the router's dispatch grace, and
/// slack.
const CLIENT_BUDGET: Duration = Duration::from_secs(5);

/// A traced client replays a request only if its previous replay began
/// at least this long before: every request of the solver-bound
/// workloads, a sample of about a hundred per second of warm-serve's.
const TRACE_EVERY: Duration = Duration::from_millis(10);

/// Successes a window must hold so that p90 has at least ten samples
/// beyond it. A window that has fewer when its time is up runs on until
/// it has them, for at most [`MAX_STRETCH`] times its length.
pub const MIN_SUCCESSES: usize = 100;

/// How far a window may stretch to reach [`MIN_SUCCESSES`].
const MAX_STRETCH: u32 = 3;

/// Longest a stretched window may last, whatever its length.
const MAX_WINDOW: Duration = Duration::from_secs(120);

/// How long after starting the system the first client connects. The
/// accept loops poll a non-blocking listener and sleep 5 ms whenever it
/// is empty, so a client that connects before the loop's first poll is
/// taken at once and one that connects after waits out the sleep. Right
/// after start that is a race the host's scheduler decides, with odds
/// that move from run to run; connecting a little later settles it the
/// way any real client meets it.
const READY_PAUSE: Duration = Duration::from_millis(1);

/// Keys in the warm and hot pools.
const POOL_KEYS: usize = 24;

/// One new mixed-cluster problem in `TIGHT_EVERY` carries a too-tight
/// area cap.
const TIGHT_EVERY: usize = 10;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One daemon, one client, every request a new problem.
    ColdServe,
    /// One daemon, two clients, every request a warm pool key.
    WarmServe,
    /// A three-worker cluster; one client sends hot pool keys, the other
    /// new problems (every tenth too tight).
    MixedCluster,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-serve" => Some(Workload::ColdServe),
            "warm-serve" => Some(Workload::WarmServe),
            "mixed-cluster" => Some(Workload::MixedCluster),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdServe => "cold-serve",
            Workload::WarmServe => "warm-serve",
            Workload::MixedCluster => "mixed-cluster",
        }
    }

    fn clients(self) -> usize {
        match self {
            Workload::ColdServe => 1,
            Workload::WarmServe | Workload::MixedCluster => 2,
        }
    }

    fn has_pool(self) -> bool {
        self != Workload::ColdServe
    }

    /// Set-ups per run; `setup_s` is their median. A cold set-up takes
    /// a few milliseconds, so it is repeated often; a pool fill takes
    /// seconds.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ColdServe => 101,
            Workload::WarmServe | Workload::MixedCluster => 2,
        }
    }
}

/// The system under test, hosted in this process.
pub enum System {
    /// A single `troy-service` daemon.
    Daemon(Service),
    /// A `troy-cluster` router with its workers.
    Cluster(Cluster),
}

impl System {
    fn start(workload: Workload) -> std::io::Result<System> {
        Ok(match workload {
            Workload::ColdServe | Workload::WarmServe => {
                System::Daemon(Service::start(ServiceConfig::default())?)
            }
            Workload::MixedCluster => System::Cluster(Cluster::start(ClusterConfig {
                workers: 3,
                replication: 2,
                ..ClusterConfig::default()
            })?),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            System::Daemon(s) => s.local_addr(),
            System::Cluster(c) => c.local_addr(),
        }
    }

    /// The daemon's completion and circuit-shed counters (summed over
    /// the workers of a cluster; the other fields stay 0).
    pub fn service_stats(&self) -> StatsSnapshot {
        match self {
            System::Daemon(s) => s.stats(),
            System::Cluster(c) => {
                let h = c.handle();
                let mut sum = StatsSnapshot::default();
                for i in 0..h.worker_count() {
                    let w = h.worker_stats(i).unwrap_or_default();
                    sum.completed_ok += w.completed_ok;
                    sum.completed_degraded += w.completed_degraded;
                    sum.shed_circuit += w.shed_circuit;
                }
                sum
            }
        }
    }

    /// Router counters (cluster only).
    pub fn cluster_stats(&self) -> Option<ClusterSnapshot> {
        match self {
            System::Daemon(_) => None,
            System::Cluster(c) => Some(c.stats()),
        }
    }

    /// A handle for router placement queries (cluster only).
    pub fn cluster_handle(&self) -> Option<ClusterHandle> {
        match self {
            System::Daemon(_) => None,
            System::Cluster(c) => Some(c.handle()),
        }
    }

    /// Drains and joins every thread the system started.
    pub fn stop(self) {
        match self {
            System::Daemon(s) => {
                let handle: ServiceHandle = s.handle();
                handle.shutdown();
                let _ = s.join();
            }
            System::Cluster(c) => {
                c.handle().shutdown();
                let _ = c.join();
            }
        }
    }
}

/// A pool key: the problem and its first (set-up) answer.
#[derive(Debug, Clone)]
pub struct PoolKey {
    /// The problem.
    pub entry: Entry,
    /// Cost and certificate checksum of its set-up answer.
    pub first: (u64, u64),
}

/// The seeded inputs of one run.
pub struct Inputs {
    /// Candidates for the warm/hot pool, in the order they are tried.
    pub pool_candidates: Vec<Entry>,
    /// New problems, in the order they are sent.
    pub fresh: Vec<Entry>,
}

/// Deals `entries` round-robin over strata (`stratum` names each
/// entry's): one entry of every stratum per round, each stratum and each
/// round in seeded order. Any prefix of the result then has nearly the
/// same mix of strata whatever the seed.
fn stratified<K: Ord>(
    entries: Vec<Entry>,
    stratum: impl Fn(&Entry) -> K,
    rng: &mut Rng,
) -> Vec<Entry> {
    let mut groups: std::collections::BTreeMap<K, Vec<Entry>> = Default::default();
    for e in entries {
        groups.entry(stratum(&e)).or_default().push(e);
    }
    let mut groups: Vec<Vec<Entry>> = groups.into_values().collect();
    for g in &mut groups {
        rng.shuffle(g);
    }
    let mut out = Vec::new();
    loop {
        let mut round: Vec<Entry> = groups.iter_mut().filter_map(Vec::pop).collect();
        if round.is_empty() {
            return out;
        }
        rng.shuffle(&mut round);
        out.extend(round);
    }
}

/// Alternates two sequences, then appends what is left of the longer.
fn alternate(a: Vec<Entry>, b: Vec<Entry>) -> Vec<Entry> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return out,
            (x, y) => out.extend(x.into_iter().chain(y)),
        }
    }
}

/// Draws a run's inputs from the universe.
///
/// The warm/hot pool is the same on every run — Figure 5, then the
/// paper's un-relaxed rows (one per benchmark per round) alternating
/// with inline graphs (one per op-count band of two per round) — so
/// every seed measures the same keys; the seed draws the request
/// sequence over them. New problems are the rest of the `row` and `rnd`
/// families, dealt the same stratified way in seeded order, so every
/// run sends nearly the same mix of problem sizes while the seed picks
/// the problems. In mixed-cluster traffic every tenth new problem is a
/// `tight` one whose cap the reference proves infeasible, from a fixed
/// sequence.
pub fn inputs(workload: Workload, universe: &[Entry], seed: u64) -> Inputs {
    let family = |name: &str| -> Vec<Entry> {
        universe
            .iter()
            .filter(|e| e.family() == name)
            .filter(|e| name == "tight" || e.optimum().is_some())
            .cloned()
            .collect()
    };
    let benchmark = |e: &Entry| match &e.spec.source {
        Source::Builtin(name) => name.clone(),
        Source::Random { .. } => String::new(),
    };
    let band = |e: &Entry| match e.spec.source {
        Source::Random { ops, .. } => ops.saturating_sub(8) / 2,
        Source::Builtin(_) => 0,
    };
    let fig5 = universe.iter().find(|e| e.family() == "fig5").cloned();

    let mut pool_candidates = Vec::new();
    if workload.has_pool() {
        let mut fixed = Rng::new(0);
        let rows = family("row")
            .into_iter()
            .filter(|e| e.spec.id.ends_with("+l0+a0"))
            .collect();
        let builtin = stratified(rows, benchmark, &mut fixed);
        let inline = stratified(family("rnd"), band, &mut fixed);
        // Up to twice the pool size, so set-up answers that come back
        // un-cacheable can be replaced.
        let take = POOL_KEYS.min(builtin.len()).min(inline.len());
        pool_candidates.extend(fig5.clone());
        pool_candidates.extend(alternate(builtin[..take].to_vec(), inline[..take].to_vec()));
    }
    let fresh_of = |name: &str| -> Vec<Entry> {
        family(name)
            .into_iter()
            .filter(|e| !pool_candidates.iter().any(|p| p.spec.id == e.spec.id))
            .collect()
    };
    let mut rng = Rng::new(seed ^ 0x6265_6e63_6821);
    let builtin = stratified(fresh_of("row"), benchmark, &mut rng);
    let inline = stratified(fresh_of("rnd"), band, &mut rng);
    // The too-tight caps are the same, in the same order, on every run:
    // what they do to the breakers is the behaviour under measurement,
    // so the seed must not decide how often it happens.
    let mut tight: Vec<Entry> = family("tight")
        .into_iter()
        .filter(|e| e.optimum().is_none())
        .collect();
    Rng::new(0).shuffle(&mut tight);

    let mut fresh: Vec<Entry> = Vec::new();
    if !workload.has_pool() {
        fresh.extend(fig5);
    }
    let mut tight = tight.into_iter();
    for (i, e) in alternate(builtin, inline).into_iter().enumerate() {
        if workload == Workload::MixedCluster && i % (TIGHT_EVERY - 1) == TIGHT_EVERY - 2 {
            fresh.extend(tight.next());
        }
        fresh.push(e);
    }
    Inputs {
        pool_candidates,
        fresh,
    }
}

/// What one set-up produced.
pub struct SetUp {
    /// The running system.
    pub system: System,
    /// Start until ready, plus the pool fill.
    pub elapsed: Duration,
    /// The pool, in candidate order.
    pub pool: Vec<PoolKey>,
    /// Pool candidates whose set-up answer was not a cacheable `ok`.
    pub skipped: Vec<(String, String)>,
    /// Set-up answers that broke the output contract.
    pub wrong: Vec<(String, String)>,
}

/// Starts the system, waits until it answers a ping, and fills the pool
/// with two clients.
pub fn set_up(workload: Workload, candidates: &[Entry], tag: &str) -> std::io::Result<SetUp> {
    let t0 = Instant::now();
    let system = System::start(workload)?;
    let addr = system.addr();
    wait_ready(addr)?;
    let next = Mutex::new(candidates.iter().enumerate());
    let answers = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let workers = if candidates.is_empty() { 0 } else { 2 };
        for _ in 0..workers {
            s.spawn(|| {
                let Ok(mut conn) = Conn::connect(addr) else {
                    return;
                };
                loop {
                    let filled = answers
                        .lock()
                        .expect("answers lock")
                        .iter()
                        .filter(|(_, o): &&(usize, Outcome)| matches!(o, Outcome::Ok { .. }))
                        .count();
                    if filled >= POOL_KEYS {
                        break;
                    }
                    let Some((i, entry)) = next.lock().expect("candidate lock").next() else {
                        break;
                    };
                    let reply = conn.call(&entry.line(&format!("{tag}-fill-{i}")), CLIENT_BUDGET);
                    let outcome = check(entry, reply.as_deref(), None);
                    answers.lock().expect("answers lock").push((i, outcome));
                }
            });
        }
    });
    let mut answers = answers.into_inner().expect("answers lock");
    answers.sort_by_key(|a| a.0);
    let mut set_up = SetUp {
        system,
        elapsed: Duration::ZERO,
        pool: Vec::new(),
        skipped: Vec::new(),
        wrong: Vec::new(),
    };
    for (i, outcome) in answers {
        let entry = &candidates[i];
        match outcome {
            Outcome::Ok { cost, checksum, .. } if set_up.pool.len() < POOL_KEYS => {
                set_up.pool.push(PoolKey {
                    entry: entry.clone(),
                    first: (cost, checksum),
                });
            }
            Outcome::Ok { .. } => {}
            Outcome::Wrong(why) => set_up.wrong.push((entry.spec.id.clone(), why)),
            other => set_up
                .skipped
                .push((entry.spec.id.clone(), format!("{other:?}"))),
        }
    }
    set_up.elapsed = t0.elapsed();
    Ok(set_up)
}

fn wait_ready(addr: SocketAddr) -> std::io::Result<()> {
    std::thread::sleep(READY_PAUSE);
    let until = Instant::now() + Duration::from_secs(10);
    while Instant::now() < until {
        if let Ok(mut conn) = Conn::connect(addr) {
            if let Some(reply) = conn.call(r#"{"id":"ready","cmd":"ping"}"#, CLIENT_BUDGET) {
                if reply.contains("\"pong\"") {
                    return Ok(());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "the system never answered a ping",
    ))
}

/// What one client observed in the measurement window. Kept compact
/// (one `f32` per success) so the benchmark's own bookkeeping barely
/// moves `peak_rss_mb` however fast the system gets.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Send-to-response latency of each success, ms.
    pub successes: Vec<f32>,
    /// `ok` answers, and how many of them were unproven.
    pub ok: usize,
    pub unproven: usize,
    /// Σ returned cost and Σ reference optimum over `ok` answers.
    pub cost: u64,
    pub optimum: u64,
    /// Every answer that is not a success: (request id, problem,
    /// reason), wrong answers tagged `WRONG`.
    pub failures: Vec<(String, String, String)>,
    /// Requests with no typed answer or with one that broke the output
    /// contract; typed `degraded`, `rejected` and `error` answers are
    /// failures above but not here.
    pub broken: usize,
}

impl Tally {
    /// Counts one answer; `true` when it is a success.
    fn add(&mut self, rid: String, entry: &Entry, latency: Duration, outcome: Outcome) -> bool {
        self.attempted += 1;
        let tag = match outcome {
            Outcome::Ok { cost, proven, .. } => {
                self.ok += 1;
                self.unproven += usize::from(!proven);
                self.cost += cost;
                self.optimum += entry.optimum().unwrap_or(0);
                None
            }
            Outcome::Infeasible => None,
            Outcome::NotOk(tag) => Some(tag),
            Outcome::Failed(tag) => {
                self.broken += 1;
                Some(tag)
            }
            Outcome::Wrong(why) => {
                self.broken += 1;
                Some(format!("WRONG {why}"))
            }
        };
        match tag {
            None => {
                self.successes.push((latency.as_secs_f64() * 1e3) as f32);
                true
            }
            Some(tag) => {
                self.failures.push((rid, entry.spec.id.clone(), tag));
                false
            }
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.successes.extend(o.successes);
        self.ok += o.ok;
        self.unproven += o.unproven;
        self.cost += o.cost;
        self.optimum += o.optimum;
        self.failures.extend(o.failures);
        self.broken += o.broken;
    }

    /// Success latencies, ms.
    pub fn success_latencies(&self) -> Vec<f64> {
        self.successes.iter().map(|&v| f64::from(v)).collect()
    }

    /// Answers that broke the output contract.
    pub fn wrong(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.2.starts_with("WRONG"))
            .count()
    }

    /// Failures grouped by reason, with the request ids behind each.
    pub fn failures_by_reason(&self) -> Vec<(String, Vec<String>)> {
        let mut by_tag: HashMap<String, Vec<String>> = HashMap::new();
        for (rid, problem, tag) in &self.failures {
            by_tag
                .entry(tag.clone())
                .or_default()
                .push(format!("{rid} ({problem})"));
        }
        let mut out: Vec<_> = by_tag.into_iter().collect();
        out.sort();
        out
    }
}

/// Where each client's next request comes from.
struct Plan<'a> {
    workload: Workload,
    pool: &'a [PoolKey],
    fresh: Mutex<std::slice::Iter<'a, Entry>>,
}

impl<'a> Plan<'a> {
    /// The next problem for client `client`, and its first answer if it
    /// is a pool key. In mixed-cluster traffic client 0 sends hot keys and
    /// client 1 new problems. `None` once the new problems run out.
    fn next(&self, client: usize, rng: &mut Rng) -> Option<(&'a Entry, Option<(u64, u64)>)> {
        let hot = match self.workload {
            Workload::ColdServe => false,
            Workload::WarmServe => true,
            Workload::MixedCluster => client == 0,
        };
        if hot && !self.pool.is_empty() {
            let key = &self.pool[rng.below(self.pool.len())];
            return Some((&key.entry, Some(key.first)));
        }
        self.fresh
            .lock()
            .expect("plan lock")
            .next()
            .map(|e| (e, None))
    }
}

/// The outcome of the measurement window.
pub struct Window {
    /// What the clients observed.
    pub tally: Tally,
    /// First send to last response: `seconds`, or longer when the window
    /// had to stretch to reach [`MIN_SUCCESSES`].
    pub elapsed: Duration,
    /// `true` when new problems ran out before the time did.
    pub exhausted: bool,
    /// Highest resident set sampled during the window, MiB.
    pub rss_mb: f64,
    /// Per-layer observations (traced runs only).
    pub layers: Layers,
    /// Spans of every client (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Runs the closed loop for `seconds`, and on until the clients hold
/// [`MIN_SUCCESSES`] between them (within the stretch limit): each
/// client sends its next request only after the previous answer
/// arrived. A traced run also replays each request through the layers'
/// public functions; it publishes no latency percentile, so its window
/// never stretches.
pub fn drive(
    workload: Workload,
    set_up: &SetUp,
    fresh: &[Entry],
    seed: u64,
    seconds: u64,
    replay_cache: Option<&ResultCache>,
) -> Window {
    let plan = Plan {
        workload,
        pool: &set_up.pool,
        fresh: Mutex::new(fresh.iter()),
    };
    let addr = set_up.system.addr();
    let handle = set_up.system.cluster_handle();
    let epoch = Instant::now();
    let window = Duration::from_secs(seconds);
    let stop_at = epoch + window;
    let hard_stop = match replay_cache {
        None => epoch + (window * MAX_STRETCH).min(MAX_WINDOW).max(window),
        Some(_) => stop_at,
    };
    let successes = AtomicUsize::new(0);
    let running = |now: Instant| {
        now < stop_at || (now < hard_stop && successes.load(Ordering::Relaxed) < MIN_SUCCESSES)
    };
    let clients_done = AtomicBool::new(false);
    let (elapsed, rss_mb, outcomes) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !clients_done.load(Ordering::Relaxed) {
                peak = peak.max(resident_mb());
                std::thread::sleep(Duration::from_millis(20));
            }
            peak.max(resident_mb())
        });
        let mut clients = Vec::new();
        for client in 0..workload.clients() {
            let plan = &plan;
            let handle = handle.as_ref();
            let (running, successes) = (&running, &successes);
            clients.push(s.spawn(move || {
                let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(client as u64));
                let mut conn = Conn::connect(addr).expect("client connects");
                let mut tally = Tally::default();
                let mut layers = Layers::default();
                let mut tracer = replay_cache.map(|_| Tracer::new(epoch));
                let mut exhausted = false;
                let mut last_replay: Option<Instant> = None;
                let mut n = 0u64;
                while running(Instant::now()) {
                    n += 1;
                    let Some((entry, first)) = plan.next(client, &mut rng) else {
                        exhausted = true;
                        break;
                    };
                    let rid = format!("{}-{seed}-c{client}-{n}", workload.name());
                    let line = entry.line(&rid);
                    let sent = Instant::now();
                    let reply = conn.call(&line, CLIENT_BUDGET);
                    let done = Instant::now();
                    let outcome = check(entry, reply.as_deref(), first);
                    let due = last_replay.is_none_or(|at| sent - at >= TRACE_EVERY);
                    if let (Some(cache), Some(t), true) = (replay_cache, tracer.as_mut(), due) {
                        last_replay = Some(sent);
                        t.begin_request(((client as u64) << 32) | n);
                        t.record("wire", sent, done);
                        replay::trace_request(
                            &line,
                            done - sent,
                            first.is_none(),
                            cache,
                            &mut conn,
                            handle,
                            t,
                            &mut layers,
                        );
                    }
                    if tally.add(rid, entry, done - sent, outcome) {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (tally, exhausted, layers, tracer)
            }));
        }
        let joined: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        let elapsed = epoch.elapsed();
        // Stop the sampler before re-raising a client's panic, or the
        // scope would wait for it forever.
        clients_done.store(true, Ordering::Relaxed);
        let rss_mb = sampler.join().expect("the RSS sampler does not panic");
        let outcomes: Vec<_> = joined
            .into_iter()
            .map(|j| j.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        (elapsed, rss_mb, outcomes)
    });
    let mut window = Window {
        tally: Tally::default(),
        elapsed,
        exhausted: false,
        rss_mb,
        layers: Layers::default(),
        tracer: replay_cache.map(|_| Tracer::new(epoch)),
    };
    for (tally, exhausted, layers, tracer) in outcomes {
        window.tally.merge(tally);
        window.exhausted |= exhausted;
        window.layers.merge(layers);
        if let (Some(all), Some(t)) = (window.tracer.as_mut(), tracer) {
            all.absorb(t);
        }
    }
    window
}

/// Hands the allocator's free pages back to the kernel (glibc
/// `malloc_trim`), so that a window's resident set starts from what the
/// running system holds rather than from what earlier set-ups freed into
/// whichever thread arenas happened to run them.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // heap pages; it is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// This process's current resident set (`VmRSS`), MiB; 0 where
/// `/proc` is unavailable.
pub fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end figures of one window.
pub struct EndToEnd {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that did not succeed.
    pub not_ok: usize,
    /// Requests with no typed answer or a wrong one: the result line's
    /// `failed`.
    pub broken: usize,
    /// Answers that broke the output contract.
    pub wrong: usize,
    /// Successful answers per second.
    pub throughput_rps: f64,
    /// Latency over successes.
    pub p50: Option<Percentile>,
    /// Latency over successes.
    pub p90: Option<Percentile>,
    /// Successes over attempted.
    pub ok_ratio: f64,
    /// `ok` answers with `proven: false`, over `ok` answers.
    pub unproven_ratio: f64,
    /// Returned cost over reference optimum, summed over `ok` answers.
    pub cost_ratio: f64,
    /// `ok` answers.
    pub ok_answers: usize,
}

/// Reduces a window to its end-to-end figures, all taken over the
/// whole window: successes / elapsed, nearest-rank percentiles over every
/// success.
pub fn end_to_end(window: &Window) -> EndToEnd {
    let t = &window.tally;
    let success = t.success_latencies();
    EndToEnd {
        attempted: t.attempted,
        not_ok: t.failures.len(),
        broken: t.broken,
        wrong: t.wrong(),
        throughput_rps: ratio(success.len() as f64, window.elapsed.as_secs_f64()),
        p50: percentile(&success, 50.0),
        p90: percentile(&success, 90.0),
        ok_ratio: ratio(success.len() as f64, t.attempted as f64),
        unproven_ratio: ratio(t.unproven as f64, t.ok as f64),
        cost_ratio: ratio(t.cost as f64, t.optimum as f64),
        ok_answers: t.ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Vec<Entry> {
        crate::universe::load()
            .expect("reference loads")
            .into_iter()
            .map(|(e, _)| e)
            .collect()
    }

    fn ids(entries: &[Entry]) -> Vec<String> {
        entries.iter().map(|e| e.spec.id.clone()).collect()
    }

    #[test]
    fn figures_are_taken_over_the_whole_window() {
        // 200 successes: 190 fast ones, then a 10-sample stall at the end
        // of the window that p90 must not hide.
        let mut successes = vec![1.0f32; 190];
        successes.extend([50.0f32; 10]);
        let window = Window {
            tally: Tally {
                attempted: 250,
                successes,
                ..Tally::default()
            },
            elapsed: Duration::from_secs(40),
            exhausted: false,
            rss_mb: 0.0,
            layers: Layers::default(),
            tracer: None,
        };
        let e2e = end_to_end(&window);
        assert_eq!(e2e.throughput_rps, 5.0);
        assert_eq!(e2e.ok_ratio, 0.8);
        let p90 = e2e.p90.expect("successes");
        assert_eq!((p90.value, p90.samples, p90.beyond), (1.0, 200, 20));
        let p50 = e2e.p50.expect("successes");
        assert_eq!((p50.value, p50.beyond), (1.0, 100));
        // Twenty stalled samples reach p90.
        let mut stalled = window.tally.successes.clone();
        stalled[170..190].fill(50.0);
        let window = Window {
            tally: Tally {
                successes: stalled,
                ..Tally::default()
            },
            ..window
        };
        assert_eq!(end_to_end(&window).p90.expect("successes").value, 50.0);
    }

    #[test]
    fn the_seed_fixes_the_inputs() {
        let u = universe();
        for w in [
            Workload::ColdServe,
            Workload::WarmServe,
            Workload::MixedCluster,
        ] {
            let (a, b) = (inputs(w, &u, 7), inputs(w, &u, 7));
            assert_eq!(ids(&a.fresh), ids(&b.fresh));
            assert_eq!(
                ids(&a.pool_candidates),
                ids(&inputs(w, &u, 8).pool_candidates)
            );
            assert_ne!(ids(&a.fresh), ids(&inputs(w, &u, 8).fresh));
        }
    }

    #[test]
    fn new_problems_never_repeat_and_stay_out_of_the_pool() {
        let u = universe();
        let mixed = inputs(Workload::MixedCluster, &u, 3);
        let mut seen = std::collections::HashSet::new();
        for e in mixed.pool_candidates.iter().chain(&mixed.fresh) {
            assert!(seen.insert(e.line("x")), "{} repeats", e.spec.id);
        }
        assert_eq!(mixed.pool_candidates[0].family(), "fig5");
    }

    #[test]
    fn cold_traffic_is_feasible_and_one_mixed_problem_in_ten_is_tight() {
        let u = universe();
        let cold = inputs(Workload::ColdServe, &u, 5);
        assert!(cold.fresh.iter().all(|e| e.optimum().is_some()));
        assert!(cold.fresh.iter().all(|e| e.family() != "tight"));
        let mixed = inputs(Workload::MixedCluster, &u, 5);
        let tight = mixed.fresh[..200]
            .iter()
            .filter(|e| e.family() == "tight")
            .count();
        assert_eq!(tight, 20);
    }
}
