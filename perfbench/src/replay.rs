//! The traced replay: the daemon's request path re-run through the
//! layers' public functions, one span per call.
//!
//! `handle_synth` and the router internals are private, so a traced run
//! replays, on the same request line and deadline, the calls the daemon
//! makes: `parse_request` → `build_problem` → `cache_key` →
//! `ResultCache::lookup`/`store` → `supervise` → `certify` →
//! `Response::render`. A request the replay had to solve is also handed
//! to the ILP and to the exact prover under the ladder's first slice,
//! to expose their work counts. Cluster layers are timed on the wire
//! (ping, probe) and through `request_key` + `ClusterHandle::placement`.

use std::time::{Duration, Instant};

use troy_cluster::ClusterHandle;
use troy_ilp::{SolveParams, SolveStatus};
use troy_portfolio::{cache_key, Backend, PortfolioResult, ResultCache};
use troy_resilience::{supervise, Chaos, SupervisorConfig, LADDER};
use troy_service::{build_problem, parse_request, request_key, Response, StatsSnapshot};
use troyhls::{
    formulate, ExactSolver, FormulationOptions, GreedySolver, SolveOptions, SynthesisProblem,
    Synthesizer,
};

use crate::client::Conn;
use crate::trace::Tracer;
use crate::universe::DEADLINE_MS;

/// Per-layer observations that are counts rather than spans.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Replayed cache lookups, and how many hit.
    pub lookups: u64,
    pub hits: u64,
    /// Replayed supervised runs, the rungs they executed and the
    /// relaxation steps they reached.
    pub supervised: u64,
    pub rungs: u64,
    pub relaxations: u64,
    /// Per supervised run: ILP and exact attempt time from its
    /// `Degradation` report, ms.
    pub rung_ilp_ms: Vec<f64>,
    pub rung_exact_ms: Vec<f64>,
    /// ILP solves under the first slice: count, nodes, LP iterations,
    /// proven optimal.
    pub ilp_runs: u64,
    pub ilp_nodes: u64,
    pub ilp_lp_iterations: u64,
    pub ilp_proven: u64,
    /// Exact solves under the same slice, and how many proved.
    pub exact_runs: u64,
    pub exact_proven: u64,
    /// Wire latency minus the replayed request path, µs; replayed cache
    /// hits on a daemon only.
    pub unattributed_us: Vec<f64>,
    /// Persistent-connection ping to the daemon, ms.
    pub service_ping_ms: Vec<f64>,
    /// Persistent-connection ping to the router, ms.
    pub router_ping_ms: Vec<f64>,
    /// Wire `probe` of a hot key through the router, ms.
    pub router_probe_ms: Vec<f64>,
    /// New problems sent.
    pub fresh: u64,
}

impl Layers {
    /// Adds another client's observations.
    pub fn merge(&mut self, o: Layers) {
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.supervised += o.supervised;
        self.rungs += o.rungs;
        self.relaxations += o.relaxations;
        self.rung_ilp_ms.extend(o.rung_ilp_ms);
        self.rung_exact_ms.extend(o.rung_exact_ms);
        self.ilp_runs += o.ilp_runs;
        self.ilp_nodes += o.ilp_nodes;
        self.ilp_lp_iterations += o.ilp_lp_iterations;
        self.ilp_proven += o.ilp_proven;
        self.exact_runs += o.exact_runs;
        self.exact_proven += o.exact_proven;
        self.unattributed_us.extend(o.unattributed_us);
        self.service_ping_ms.extend(o.service_ping_ms);
        self.router_ping_ms.extend(o.router_ping_ms);
        self.router_probe_ms.extend(o.router_probe_ms);
        self.fresh += o.fresh;
    }
}

/// The supervisor configuration the daemon uses for a request.
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        deadline: Duration::from_millis(DEADLINE_MS),
        ..SupervisorConfig::default()
    }
}

/// Replays the daemon's path for one request line against `cache`.
/// Returns the problem when the replay had to solve it.
pub fn replay(
    line: &str,
    cache: &ResultCache,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Option<SynthesisProblem> {
    t.span("request", |t| {
        let request = t.span("protocol.parse", |_| parse_request(line)).ok()?;
        let problem = t.span("problem.build", |_| build_problem(&request)).ok()?;
        let key = t.span("cache.key", |_| {
            cache_key(&problem, "serve", &SolveOptions::default())
        });
        let hit = t.span("cache.lookup", |_| cache.lookup(&key, &problem));
        layers.lookups += 1;
        let mut response = Response::outcome(&request.id, "ok");
        let solved = if let Some(hit) = hit {
            layers.hits += 1;
            response.cost = Some(hit.synthesis.cost);
            response.certificate = t.span("certify", |_| {
                troy_analysis::certify(&problem, &hit.synthesis.implementation)
                    .ok()
                    .map(|c| c.to_json())
            });
            None
        } else {
            let sup = t.span("supervise", |_| {
                supervise(&problem, &supervisor_config(), &Chaos::disabled())
            });
            let degradation = match &sup {
                Ok(s) => &s.degradation,
                Err(e) => &e.degradation,
            };
            layers.supervised += 1;
            let ran = degradation.rungs.iter().filter(|r| !r.skipped);
            layers.rungs += ran.clone().count() as u64;
            layers.relaxations += ran.clone().map(|r| r.relaxation).max().unwrap_or(0) as u64;
            let rung_ms = |b: Backend| {
                degradation
                    .rungs
                    .iter()
                    .filter(|r| r.backend == b)
                    .flat_map(|r| &r.attempts)
                    .map(|a| a.elapsed.as_secs_f64() * 1e3)
                    .sum::<f64>()
            };
            layers.rung_ilp_ms.push(rung_ms(Backend::Ilp));
            layers.rung_exact_ms.push(rung_ms(Backend::Exact));
            if let Some(s) = sup.as_ref().ok().filter(|s| !s.degraded()) {
                let result = PortfolioResult {
                    synthesis: s.synthesis.clone(),
                    winner: s.backend,
                    timed_out: false,
                    from_cache: false,
                    elapsed: s.elapsed,
                };
                t.span("cache.store", |_| cache.store(&key, &result));
                response.cost = Some(s.synthesis.cost);
                response.certificate = t.span("certify", |_| {
                    troy_analysis::certify(&problem, &s.synthesis.implementation)
                        .ok()
                        .map(|c| c.to_json())
                });
            }
            Some(problem)
        };
        t.span("response.render", |_| {
            std::hint::black_box(response.render(&StatsSnapshot::default()))
        });
        solved
    })
}

/// Runs the ILP (formulation, greedy warm start, branch and bound) and
/// the exact prover on `problem`, each under the ladder's first slice.
fn solver_probes(problem: &SynthesisProblem, t: &mut Tracer, layers: &mut Layers) {
    let slice = Duration::from_millis(DEADLINE_MS) / LADDER.len() as u32;
    let start = Instant::now();
    let ilp = t.span("ilp.formulate", |_| {
        formulate(problem, &FormulationOptions::default())
    });
    let result = t.span("ilp.solve", |_| {
        let mip_start = GreedySolver::new()
            .synthesize(problem, &SolveOptions::quick())
            .ok()
            .and_then(|s| ilp.encode(&s.implementation));
        let params = SolveParams {
            time_limit: Some(slice.saturating_sub(start.elapsed())),
            integral_objective: true,
            mip_start,
            branch_priority: ilp.branch_priorities(),
            ..SolveParams::default()
        };
        ilp.model.solve(&params)
    });
    layers.ilp_runs += 1;
    layers.ilp_nodes += result.nodes() as u64;
    layers.ilp_lp_iterations += result.lp_iterations() as u64;
    layers.ilp_proven += u64::from(result.status() == SolveStatus::Optimal);
    let exact = t.span("exact", |_| {
        ExactSolver::new().synthesize(
            problem,
            &SolveOptions {
                time_limit: slice,
                ..SolveOptions::default()
            },
        )
    });
    layers.exact_runs += 1;
    layers.exact_proven += u64::from(exact.is_ok_and(|s| s.proven_optimal));
}

/// Traces one answered request: the replay, the solver probes when the
/// replay had to solve, a ping on the client's connection, and for a
/// cluster the route computation and (for pool keys) a wire probe.
#[allow(clippy::too_many_arguments)]
pub fn trace_request(
    line: &str,
    wire: Duration,
    fresh: bool,
    cache: &ResultCache,
    conn: &mut Conn,
    cluster: Option<&ClusterHandle>,
    t: &mut Tracer,
    layers: &mut Layers,
) {
    layers.fresh += u64::from(fresh);
    let before = t.spans().len();
    let solved = replay(line, cache, t, layers);
    // Only a replayed cache hit on a daemon is the same work the daemon
    // did: a replay that had to solve ran a second, independent solve,
    // and behind a router the wire time holds the router's hops.
    if solved.is_none() && cluster.is_none() {
        let path = t.spans()[before].duration() as f64 / 1e3;
        layers.unattributed_us.push(wire.as_secs_f64() * 1e6 - path);
    }
    if let Some(problem) = solved {
        solver_probes(&problem, t, layers);
    }
    let ping = timed_call(conn, r#"{"id":"trace-ping","cmd":"ping"}"#);
    match cluster {
        None => layers.service_ping_ms.push(ping),
        Some(handle) => {
            layers.router_ping_ms.push(ping);
            t.span("router.route", |_| {
                let request = parse_request(line).ok()?;
                let key = request_key(&request).ok()?;
                std::hint::black_box(key);
                handle.placement(&request).ok()
            });
            if !fresh {
                let probe = line.replacen("\"cmd\":\"synth\"", "\"cmd\":\"probe\"", 1);
                layers.router_probe_ms.push(timed_call(conn, &probe));
            }
        }
    }
}

fn timed_call(conn: &mut Conn, line: &str) -> f64 {
    let t0 = Instant::now();
    let _ = conn.call(line, Duration::from_secs(5));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Fills `cache` the way the daemon's set-up solves filled its own:
/// each pool line replayed untraced.
pub fn fill(lines: &[String], cache: &ResultCache) {
    let mut scratch = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    for line in lines {
        let _ = replay(line, cache, &mut scratch, &mut layers);
    }
}
