//! `perfbench`: the end-to-end service benchmark.
//!
//! ```text
//! perfbench --workload <cold-serve|warm-serve|mixed-cluster> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --build-reference   # regenerate reference.tsv on stdout
//! ```
//!
//! One process hosts the system under test (a `troy-service` daemon or
//! a `troy-cluster` router with three workers) and drives it from at
//! most two client threads in a closed loop. Every answer is checked
//! against the committed reference. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced replay with `--trace 1`. Its `failed`
//! counts requests that got no typed answer or a wrong one; typed
//! `degraded`, `rejected` and `error` answers are not successes and count
//! against `ok_ratio` instead. A readable summary, with sample counts and
//! the id of every request that did not succeed, goes to
//! standard error; a traced run writes its spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.

mod check;
mod client;
mod replay;
mod stats;
mod trace;
mod universe;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use troy_portfolio::ResultCache;

use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self_times, Tracer};
use crate::universe::{Entry, Rng, Verdict};
use crate::workload::{drive, end_to_end, inputs, set_up, Window, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("`{flag} {value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric for the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // Non-finite becomes 0, and so does -0 (an empty float sum).
        value: if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        },
        unit,
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Re-proves a few quickly decided reference entries with the exact
/// prover and compares. A disagreement means the committed table no
/// longer describes this program's problems.
fn cross_check(universe: &[(Entry, f64)], seed: u64) -> Vec<String> {
    let mut quick: Vec<&Entry> = universe
        .iter()
        .filter(|(e, ms)| *ms < 20.0 && e.family() != "fig5")
        .map(|(e, _)| e)
        .collect();
    Rng::new(seed).shuffle(&mut quick);
    let fig5 = universe
        .iter()
        .map(|(e, _)| e)
        .filter(|e| e.family() == "fig5");
    let mut problems = Vec::new();
    for entry in fig5.chain(quick.into_iter().take(4)) {
        let live = entry
            .spec
            .problem()
            .ok()
            .and_then(|p| universe::prove(&p, Duration::from_secs(2)));
        let same = match (live, entry.verdict) {
            (Some(Verdict::Optimum { cost: a, .. }), Verdict::Optimum { cost: b, .. }) => a == b,
            (Some(Verdict::Infeasible), Verdict::Infeasible) => true,
            _ => false,
        };
        if !same {
            problems.push(format!(
                "reference disagrees on {}: table {:?}, prover now {live:?}",
                entry.spec.id, entry.verdict
            ));
        }
    }
    problems
}

fn report_failures(window: &Window) {
    for (tag, rids) in window.tally.failures_by_reason() {
        eprintln!("  not ok [{tag}] x{}: {}", rids.len(), rids.join(", "));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--build-reference"] {
        print!("{}", universe::build_reference());
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let universe = universe::load()?;
    let mismatches = cross_check(&universe, args.seed);
    for m in &mismatches {
        eprintln!("perfbench: {m}");
    }
    let entries: Vec<Entry> = universe.into_iter().map(|(e, _)| e).collect();
    let inputs = inputs(args.workload, &entries, args.seed);
    let name = args.workload.name();
    eprintln!(
        "perfbench {name}: seed {}, {} s, trace {}, universe {} problems",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        entries.len()
    );
    if args.trace {
        return traced(args, &inputs, mismatches.is_empty());
    }

    let repeats = args.workload.setup_repeats();
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..repeats {
        let s = set_up(args.workload, &inputs.pool_candidates, &format!("setup{k}"))
            .map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(s.elapsed.as_secs_f64());
        if k + 1 < repeats {
            s.system.stop();
        } else {
            live = Some(s);
        }
    }
    let live = live.expect("at least one set-up");
    for (id, why) in &live.skipped {
        eprintln!("  pool candidate {id} not cacheable at set-up: {why}");
    }
    workload::release_free_memory();
    let window = drive(
        args.workload,
        &live,
        &inputs.fresh,
        args.seed,
        args.seconds,
        None,
    );
    let wrong_at_setup = live.wrong.clone();
    live.system.stop();

    let e2e = end_to_end(&window);
    let setup_s = median(&setups);
    let rss = window.rss_mb;
    let (p50, p90) = (e2e.p50, e2e.p90);
    let successes = e2e.attempted - e2e.not_ok;
    eprintln!(
        "  window {:.2} s, attempted {}, succeeded {successes}, not ok {}, failed {} ({} wrong), ok answers {}, pool {} keys{}",
        window.elapsed.as_secs_f64(),
        e2e.attempted,
        e2e.not_ok,
        e2e.broken,
        e2e.wrong,
        e2e.ok_answers,
        live.pool.len(),
        if window.exhausted { ", NEW PROBLEMS RAN OUT" } else { "" }
    );
    for (label, p) in [("latency_p50_ms", p50), ("latency_p90_ms", p90)] {
        if let Some(p) = p {
            eprintln!(
                "  {label} = {:.3} ms over {} successes, {} beyond",
                p.value, p.samples, p.beyond
            );
        }
    }
    eprintln!(
        "  fail_ratio = {:.4} ({} of {}), proven_ratio = {:.4} (of {} ok answers)",
        1.0 - e2e.ok_ratio,
        e2e.not_ok,
        e2e.attempted,
        1.0 - e2e.unproven_ratio,
        e2e.ok_answers
    );
    eprintln!(
        "  setup_s median of {repeats}: {setup_s:.4} s (all: {setups:.4?}), peak_rss_mb {rss:.1}"
    );
    report_failures(&window);
    for (id, why) in &wrong_at_setup {
        eprintln!("  WRONG at set-up: {id}: {why}");
    }
    if e2e.attempted == 0 {
        return Err("no request was attempted".to_owned());
    }
    // The ten-beyond rule: a p90 with fewer than ten samples above it is
    // not published, even after the window stretched to reach them.
    if !p90.is_some_and(|p| p.supported()) {
        return Err(format!(
            "only {successes} successes in {:.1} s: latency_p90_ms would have fewer than ten samples beyond it",
            window.elapsed.as_secs_f64()
        ));
    }
    let metrics = [
        metric("throughput_rps", e2e.throughput_rps, "1/s"),
        metric("latency_p50_ms", p50.map_or(0.0, |p| p.value), "ms"),
        metric("latency_p90_ms", p90.map_or(0.0, |p| p.value), "ms"),
        metric("ok_ratio", e2e.ok_ratio, "ratio"),
        metric("unproven_ratio", e2e.unproven_ratio, "ratio"),
        metric("cost_ratio", e2e.cost_ratio, "ratio"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    for m in &metrics {
        eprintln!("  {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = e2e.wrong == 0 && wrong_at_setup.is_empty() && mismatches.is_empty();
    Ok(result_line(correct, e2e.attempted, e2e.broken, &metrics))
}

/// Cost of recording one empty span, ns.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new(Instant::now());
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("calibrate", |_| ());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

fn traced(args: &Args, inputs: &workload::Inputs, reference_ok: bool) -> Result<String, String> {
    let live = set_up(args.workload, &inputs.pool_candidates, "traced")
        .map_err(|e| format!("set-up failed: {e}"))?;
    let cache = ResultCache::in_memory();
    let pool_lines: Vec<String> = live
        .pool
        .iter()
        .map(|k| k.entry.line("traced-fill"))
        .collect();
    replay::fill(&pool_lines, &cache);
    let service0 = live.system.service_stats();
    let cluster0 = live.system.cluster_stats();
    let window = drive(
        args.workload,
        &live,
        &inputs.fresh,
        args.seed,
        args.seconds,
        Some(&cache),
    );
    let service1 = live.system.service_stats();
    let cluster1 = live.system.cluster_stats();
    let wrong_at_setup = live.wrong.len();
    live.system.stop();
    if window.tally.attempted == 0 {
        return Err("no request was attempted".to_owned());
    }

    let e2e = end_to_end(&window);
    let layers = &window.layers;
    let tracer = window.tracer.as_ref().expect("traced window has spans");
    let spans = tracer.spans();
    let totals = self_times(spans);
    let mean_self = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64) / scale)
    };
    let (us, ms) = (1e3, 1e6);
    let requests = totals.get("request").map_or(0, |t| t.1) as f64;
    let cl = |f: fn(&troy_cluster::ClusterSnapshot) -> u64| match (&cluster0, &cluster1) {
        (Some(a), Some(b)) => (f(b) - f(a)) as f64,
        _ => 0.0,
    };
    let router_requests = cl(|s| s.requests);
    let completed = (service1.completed_ok + service1.completed_degraded)
        - (service0.completed_ok + service0.completed_degraded);
    let wire = window.tally.success_latencies();
    let metrics = [
        metric("service.ping_ms", mean(&layers.service_ping_ms), "ms"),
        metric("protocol.parse_us", mean_self("protocol.parse", us), "us"),
        metric("problem.build_us", mean_self("problem.build", us), "us"),
        metric("response.render_us", mean_self("response.render", us), "us"),
        metric(
            "service.unattributed_us",
            mean(&layers.unattributed_us),
            "us",
        ),
        metric("cache.key_us", mean_self("cache.key", us), "us"),
        metric("cache.lookup_us", mean_self("cache.lookup", us), "us"),
        metric("cache.store_us", mean_self("cache.store", us), "us"),
        metric(
            "cache.hit_ratio",
            ratio(layers.hits as f64, layers.lookups as f64),
            "ratio",
        ),
        metric("supervise_ms", mean_self("supervise", ms), "ms"),
        metric(
            "supervise.rungs_per_request",
            ratio(layers.rungs as f64, layers.supervised as f64),
            "count",
        ),
        metric(
            "supervise.relaxations_per_request",
            ratio(layers.relaxations as f64, layers.supervised as f64),
            "count",
        ),
        metric("rung.ilp_ms", mean(&layers.rung_ilp_ms), "ms"),
        metric("rung.exact_ms", mean(&layers.rung_exact_ms), "ms"),
        metric("ilp.formulate_ms", mean_self("ilp.formulate", ms), "ms"),
        metric(
            "ilp.nodes",
            ratio(layers.ilp_nodes as f64, layers.ilp_runs as f64),
            "count",
        ),
        metric(
            "ilp.lp_iterations",
            ratio(layers.ilp_lp_iterations as f64, layers.ilp_runs as f64),
            "count",
        ),
        metric(
            "ilp.proven_ratio",
            ratio(layers.ilp_proven as f64, layers.ilp_runs as f64),
            "ratio",
        ),
        metric("exact.ms", mean_self("exact", ms), "ms"),
        metric(
            "exact.proven_ratio",
            ratio(layers.exact_proven as f64, layers.exact_runs as f64),
            "ratio",
        ),
        metric("certify_us", mean_self("certify", us), "us"),
        metric("router.ping_ms", mean(&layers.router_ping_ms), "ms"),
        metric("router.probe_ms", mean(&layers.router_probe_ms), "ms"),
        metric("router.route_us", mean_self("router.route", us), "us"),
        metric(
            "router.probes_per_request",
            ratio(cl(|s| s.probes), router_requests),
            "count",
        ),
        metric(
            "router.probe_hit_ratio",
            ratio(cl(|s| s.probe_hits), cl(|s| s.probes)),
            "ratio",
        ),
        metric("router.read_repairs", cl(|s| s.read_repairs), "count"),
        metric(
            "router.dispatch_ratio",
            ratio(router_requests - cl(|s| s.probe_hits), router_requests),
            "ratio",
        ),
        metric(
            "router.puts_per_new_request",
            ratio(cl(|s| s.replicas_put), layers.fresh as f64),
            "count",
        ),
        metric("router.failovers", cl(|s| s.failovers), "count"),
        metric(
            "breaker.degraded_ratio",
            ratio(
                (service1.completed_degraded - service0.completed_degraded) as f64,
                completed as f64,
            ),
            "ratio",
        ),
        metric(
            "breaker.shed_circuit",
            (service1.shed_circuit - service0.shed_circuit) as f64,
            "count",
        ),
        metric(
            "trace.wire_p50_ms",
            percentile(&wire, 50.0).map_or(0.0, |p| p.value),
            "ms",
        ),
        metric("trace.span_cost_ns", span_cost_ns(), "ns"),
        metric(
            "trace.spans_per_request",
            ratio(spans.len() as f64, requests),
            "count",
        ),
    ];
    eprintln!(
        "  traced window {:.2} s: attempted {}, not ok {}, failed {}, {} replayed requests, {} spans",
        window.elapsed.as_secs_f64(),
        e2e.attempted,
        e2e.not_ok,
        e2e.broken,
        requests,
        spans.len()
    );
    for m in &metrics {
        eprintln!("  {} = {} {}", m.name, m.value, m.unit);
    }
    report_failures(&window);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("  spans written to {}", path.display());
    let correct = e2e.wrong == 0 && wrong_at_setup == 0 && reference_ok;
    Ok(result_line(correct, e2e.attempted, e2e.broken, &metrics))
}
