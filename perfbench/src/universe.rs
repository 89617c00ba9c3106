//! The problem universe every workload draws from, and its reference.
//!
//! Four families, all generated without a seed so the universe is the
//! same on every run (the workload seed only chooses and orders draws):
//!
//! - `row`: the paper's 24 Table 3/4 rows on the 8-vendor catalog, each
//!   relaxed by λ +0..=3 and area +0/25/50 % (the un-relaxed row is the
//!   `+0/+0` member);
//! - `rnd`: `troy_dfg::random_dfg` graphs of 8–32 ops sent inline as
//!   `dfg` text, λ at or just above the critical path;
//! - `tight`: a `row`/`rnd` problem whose area cap is 60 % of the area
//!   of its reference design — a user probing a too-tight bound;
//! - `fig5`: the Figure 5 instance (polynom, table1, λ 4+3, area 22000).
//!
//! The reference is `reference.tsv`, written by `--build-reference`: the
//! exact prover's proven optimum (or proven infeasibility) per problem.
//! Problems the prover could not decide within [`REFERENCE_BUDGET`] are
//! left out of the universe.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use troy_dfg::{random_dfg, write_dfg, RandomDfgConfig};
use troy_service::{build_problem, escape, parse_request};
use troyhls::{ExactSolver, Mode, SolveOptions, SynthesisError, SynthesisProblem, Synthesizer};

/// Every request of every workload carries this deadline.
pub const DEADLINE_MS: u64 = 1000;

/// The exact prover's budget per problem when the reference is built.
/// It decides which problems the universe holds (undecided ones are left
/// out), so it is part of the benchmark's definition, not a setting.
pub const REFERENCE_BUDGET: Duration = Duration::from_secs(4);

/// Area cap of a `tight` problem, in percent of its base's reference
/// design area.
const TIGHT_AREA_PERCENT: u64 = 60;

/// Where a problem's DFG comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A built-in benchmark, sent by name.
    Builtin(String),
    /// A seeded random graph, sent inline as `dfg` text.
    Random { seed: u64, ops: usize, depth: usize },
}

/// One synthesis problem, as a client states it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Stable name; also the reference table key.
    pub id: String,
    /// The DFG.
    pub source: Source,
    /// `paper8` or `table1`.
    pub catalog: &'static str,
    /// Detection-only or detection+recovery.
    pub recovery: bool,
    /// Detection-phase latency.
    pub det: usize,
    /// Recovery-phase latency (recovery mode only).
    pub rec: usize,
    /// Area cap; `None` is unlimited.
    pub area: Option<u64>,
}

/// The reference's verdict on one problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proven optimum license cost, and the area of the design that
    /// reached it.
    Optimum { cost: u64, area: u64 },
    /// Proven infeasible.
    Infeasible,
}

/// A problem with its reference verdict and ready-made request parts.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The problem.
    pub spec: Spec,
    /// Its reference verdict.
    pub verdict: Verdict,
    /// Operations in its DFG (the certificate must cover all of them).
    pub ops: usize,
    /// The request line without its `id` field: `{"cmd":…}`.
    body: String,
}

impl Entry {
    /// Pairs a problem with its reference verdict.
    pub fn new(spec: Spec, verdict: Verdict, ops: usize) -> Self {
        let body = spec.body();
        Entry {
            spec,
            verdict,
            ops,
            body,
        }
    }

    /// The request line for this problem under request id `rid`.
    pub fn line(&self, rid: &str) -> String {
        format!("{{\"id\":{},{}", escape(rid), &self.body[1..])
    }

    /// The reference optimum, when the problem is feasible.
    pub fn optimum(&self) -> Option<u64> {
        match self.verdict {
            Verdict::Optimum { cost, .. } => Some(cost),
            Verdict::Infeasible => None,
        }
    }

    /// The family tag (`row`, `rnd`, `tight` or `fig5`).
    pub fn family(&self) -> &str {
        self.spec.id.split('/').next().unwrap_or("")
    }
}

impl Spec {
    /// The request line without its `id` field.
    pub fn body(&self) -> String {
        let mut s = String::from("{\"cmd\":\"synth\",");
        match &self.source {
            Source::Builtin(name) => {
                let _ = write!(s, "\"benchmark\":{}", escape(name));
            }
            Source::Random { seed, ops, depth } => {
                let cfg = RandomDfgConfig {
                    ops: *ops,
                    max_depth: *depth,
                    ..RandomDfgConfig::default()
                };
                let _ = write!(
                    s,
                    "\"dfg\":{}",
                    escape(&write_dfg(&random_dfg(&cfg, *seed)))
                );
            }
        }
        let mode = if self.recovery {
            "recovery"
        } else {
            "detection"
        };
        let _ = write!(
            s,
            ",\"mode\":\"{mode}\",\"catalog\":\"{}\",\"lambda_det\":{}",
            self.catalog, self.det
        );
        if self.recovery {
            let _ = write!(s, ",\"lambda_rec\":{}", self.rec);
        }
        if let Some(area) = self.area {
            let _ = write!(s, ",\"area\":{area}");
        }
        let _ = write!(s, ",\"deadline_ms\":{DEADLINE_MS}}}");
        s
    }

    /// The problem the daemon builds from this spec's request.
    pub fn problem(&self) -> Result<SynthesisProblem, String> {
        let line = format!("{{\"id\":\"ref\",{}", &self.body()[1..]);
        build_problem(&parse_request(&line)?)
    }

    /// This problem with its area capped at `area`.
    fn tightened(&self, area: u64) -> Spec {
        Spec {
            id: format!("tight/{}", self.id),
            area: Some(area),
            ..self.clone()
        }
    }
}

/// SplitMix64: the benchmark's one seeded stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The committed reference table (see [`build_reference`]).
const REFERENCE: &str = include_str!("../reference.tsv");

/// Loads the universe: every problem in the reference table, with its
/// verdict, its DFG size and the prover time the table recorded. Two
/// `tight` rows can tighten onto the same request; only the first stays.
///
/// # Errors
/// A table row names no candidate, does not parse, or disagrees with the
/// DFG the generator now produces (the table is stale).
pub fn load() -> Result<Vec<(Entry, f64)>, String> {
    let bases: std::collections::HashMap<String, Spec> = base_candidates()
        .into_iter()
        .map(|s| (s.id.clone(), s))
        .collect();
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for line in REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cols: Vec<&str> = line.split('\t').collect();
        let [id, tag, cost, area, ops, exact_ms, area_cap] = cols[..] else {
            return Err(format!("reference row `{line}` has {} columns", cols.len()));
        };
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("`{line}`: {e}"));
        let spec = match id.strip_prefix("tight/") {
            Some(base) => bases
                .get(base)
                .ok_or(format!("unknown reference base `{base}`"))?
                .tightened(num(area_cap)?),
            None => bases
                .get(id)
                .ok_or(format!("unknown reference problem `{id}`"))?
                .clone(),
        };
        let verdict = match tag {
            "optimum" => Verdict::Optimum {
                cost: num(cost)?,
                area: num(area)?,
            },
            "infeasible" => Verdict::Infeasible,
            other => return Err(format!("unknown verdict `{other}`")),
        };
        let built = spec.problem()?.dfg().len();
        if built as u64 != num(ops)? {
            return Err(format!(
                "`{id}`: table says {ops} ops, generator gives {built}"
            ));
        }
        let exact_ms: f64 = exact_ms.parse().map_err(|e| format!("`{line}`: {e}"))?;
        if seen.insert(spec.body()) {
            out.push((Entry::new(spec, verdict, built), exact_ms));
        }
    }
    Ok(out)
}

/// Random graphs in the `rnd` family.
const RANDOM_GRAPHS: u64 = 360;

/// The `row`, `rnd` and `fig5` candidates, before the reference prunes
/// them. Duplicate problems (two rows relaxing onto the same request)
/// keep their first name only.
pub fn base_candidates() -> Vec<Spec> {
    let mut out = vec![Spec {
        id: "fig5".to_owned(),
        source: Source::Builtin("polynom".to_owned()),
        catalog: "table1",
        recovery: true,
        det: 4,
        rec: 3,
        area: Some(22_000),
    }];
    for spec in troy_bench::table3_specs()
        .into_iter()
        .chain(troy_bench::table4_specs())
    {
        let recovery = spec.mode == Mode::DetectionRecovery;
        for dl in 0..=3 {
            for ap in [0u64, 25, 50] {
                let lambda = spec.lambda + dl;
                let (det, rec) = if recovery {
                    (lambda - lambda / 2, lambda / 2)
                } else {
                    (lambda, 0)
                };
                out.push(Spec {
                    id: format!(
                        "row/{}-{}-{}-{}+l{dl}+a{ap}",
                        if recovery { "t4" } else { "t3" },
                        spec.benchmark,
                        spec.lambda,
                        spec.area
                    ),
                    source: Source::Builtin(spec.benchmark.to_owned()),
                    catalog: "paper8",
                    recovery,
                    det,
                    rec,
                    area: Some(spec.area * (100 + ap) / 100),
                });
            }
        }
    }
    let mut rng = Rng::new(0x7472_6f79_6265_6e63);
    for seed in 1..=RANDOM_GRAPHS {
        let ops = 8 + rng.below(25);
        let depth = 3 + ops / 8;
        let cfg = RandomDfgConfig {
            ops,
            max_depth: depth,
            ..RandomDfgConfig::default()
        };
        let cp = random_dfg(&cfg, seed).critical_path_len();
        let recovery = rng.below(2) == 1;
        let slack = rng.below(3);
        out.push(Spec {
            id: format!("rnd/{seed}"),
            source: Source::Random { seed, ops, depth },
            catalog: "paper8",
            recovery,
            det: cp + slack,
            rec: if recovery { cp + slack } else { 0 },
            area: None,
        });
    }
    let mut seen = std::collections::HashSet::new();
    out.retain(|s| seen.insert(s.body()));
    out
}

/// The exact prover's verdict under `budget`; `None` when undecided.
pub fn prove(problem: &SynthesisProblem, budget: Duration) -> Option<Verdict> {
    let options = SolveOptions {
        time_limit: budget,
        node_limit: usize::MAX,
        ..SolveOptions::default()
    };
    match ExactSolver::new().synthesize(problem, &options) {
        Ok(s) if s.proven_optimal => Some(Verdict::Optimum {
            cost: s.cost,
            area: s.implementation.area(problem),
        }),
        Err(SynthesisError::Infeasible) => Some(Verdict::Infeasible),
        _ => None,
    }
}

/// Runs the prover over `specs` on two threads; returns each decided
/// spec with its verdict and solve time.
fn prove_all(specs: Vec<Spec>, budget: Duration) -> Vec<(Spec, Verdict, Duration)> {
    let queue = std::sync::Mutex::new(specs.into_iter().enumerate());
    let done = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").next();
                let Some((i, spec)) = next else { break };
                let problem = spec.problem().expect("candidates are well-formed");
                let t0 = Instant::now();
                let verdict = prove(&problem, budget);
                let took = t0.elapsed();
                eprintln!("{:<40} {verdict:?} {took:.1?}", spec.id);
                if let Some(v) = verdict {
                    done.lock().expect("result lock").push((i, spec, v, took));
                }
            });
        }
    });
    let mut done = done.into_inner().expect("result lock");
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, s, v, t)| (s, v, t)).collect()
}

/// Builds the reference table: proves every base candidate, derives the
/// `tight` family from the feasible ones, proves those too, and renders
/// the TSV.
pub fn build_reference() -> String {
    let budget = REFERENCE_BUDGET;
    let base = prove_all(base_candidates(), budget);
    let tight: Vec<Spec> = base
        .iter()
        .filter(|(s, ..)| s.id != "fig5")
        .filter_map(|(s, v, _)| match v {
            Verdict::Optimum { area, .. } => {
                Some(s.tightened(area * TIGHT_AREA_PERCENT / 100 / 100 * 100))
            }
            Verdict::Infeasible => None,
        })
        .collect();
    let tight = prove_all(tight, budget);
    let mut out = format!(
        "# Reference for the perfbench problem universe: the exact prover's\n\
         # proven verdict per problem, {} ms budget each (undecided problems\n\
         # are omitted). Regenerate: perfbench --build-reference\n\
         # id\tverdict\tcost\tarea\tops\texact_ms\tarea_cap\n",
        budget.as_millis()
    );
    for (spec, verdict, took) in base.iter().chain(&tight) {
        let ops = spec.problem().map_or(0, |p| p.dfg().len());
        let (tag, cost, area) = match verdict {
            Verdict::Optimum { cost, area } => ("optimum", *cost, *area),
            Verdict::Infeasible => ("infeasible", 0, 0),
        };
        let area_cap = spec.area.unwrap_or(0);
        let _ = writeln!(
            out,
            "{}\t{tag}\t{cost}\t{area}\t{ops}\t{:.1}\t{area_cap}",
            spec.id,
            took.as_secs_f64() * 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_reference_loads_and_holds_figure_5() {
        let universe = load().expect("reference.tsv matches the generator");
        let fig5 = universe
            .iter()
            .find(|(e, _)| e.family() == "fig5")
            .expect("Figure 5 is in the universe");
        assert_eq!(fig5.0.optimum(), Some(crate::check::FIG5_OPTIMUM));
        for family in ["row", "rnd", "tight"] {
            assert!(
                universe.iter().any(|(e, _)| e.family() == family),
                "{family} is empty"
            );
        }
    }

    #[test]
    fn request_lines_carry_the_id_and_the_deadline() {
        let spec = &base_candidates()[0];
        let entry = Entry::new(spec.clone(), Verdict::Infeasible, 5);
        let request = parse_request(&entry.line("r-1")).expect("line parses");
        assert_eq!(request.id, "r-1");
        assert_eq!(request.deadline, Some(Duration::from_millis(DEADLINE_MS)));
        assert_eq!(request.benchmark.as_deref(), Some("polynom"));
    }

    #[test]
    fn candidates_are_distinct_problems() {
        let all = base_candidates();
        let bodies: std::collections::HashSet<String> = all.iter().map(Spec::body).collect();
        assert_eq!(bodies.len(), all.len());
    }
}
