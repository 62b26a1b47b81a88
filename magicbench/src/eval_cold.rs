//! `eval_cold`: the paper's own experiment.  Rounds of plan + execute from
//! a fresh EDB over a fixed roster, in process, on one thread.  `engine`,
//! `storage` and `core` do all the work; `incr`, `durable` and `serve` do
//! none.

use crate::gen::Rng;
use crate::report::{repeat_setup, Opts, Report};
use crate::stats::{geomean, median};
use crate::trace::{spanned, Tracer};
use magic_core::planner::{Planner, Strategy};
use magic_datalog::{parse_program, parse_query, Program, Query, Value};
use magic_engine::answers::{ensure_atom_index, project_answers};
use magic_engine::{EvalStats, FixpointRunner, Limits};
use magic_storage::Database;
use std::collections::BTreeSet;
use std::time::Instant;

pub const ANCESTOR: &str = "anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).";

const SAME_GENERATION: &str = "sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).";

const REVERSE: &str = "append(V, [], [V]) :- .
append(V, [W | X], [W | Y]) :- append(V, X, Y).
reverse([], []) :- .
reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).";

const SHORTEST: &str = "dist(X, Y, I) :- edge(X, Y), one(I).
dist(X, Z, J) :- dist(X, Y, I), edge(Y, Z), succ(I, J).
shortest(X, Y, min<I>) :- dist(X, Y, I).";

/// The roster's program sources, for the parse probe.
pub const SOURCES: [&str; 4] = [ANCESTOR, SAME_GENERATION, REVERSE, SHORTEST];

/// What the answers of a cell must equal.
#[derive(Clone, Copy)]
enum Oracle {
    /// `anc(n0, Y)` over a chain: `n1 ..= n<len>`.
    Chain(usize),
    /// As `Chain`, but the counting rewrites carry a 63-level index, so
    /// the answers stop at `n63`.
    ChainCounting(usize),
    /// `sg(l0c0, Y)` over the grid with `flat` on every level: each `sg`
    /// step moves an odd number of columns, so the odd columns of level 0.
    GridOddColumns(usize),
    /// `reverse([e0..e<n-1>], Y)`: the one reversed list.
    Reversed(usize),
    /// `magic_workloads::shortest_oracle` over the cell's EDB.
    Shortest,
}

/// `(answers, facts_derived, join_probes)` of the cell in `BENCH_PR10.json`.
type Pinned = (usize, usize, usize);

fn sizes(quick: bool, full: usize, small: usize) -> usize {
    if quick {
        small
    } else {
        full
    }
}

/// A strategy by its table name, so the benchmark names no enum variant.
pub fn strategy(short_name: &str) -> Strategy {
    *Strategy::ALL
        .iter()
        .find(|s| s.short_name() == short_name)
        .unwrap_or_else(|| panic!("no strategy is called {short_name}"))
}

/// One roster cell, set up: parsed, with its EDB built.
pub struct Cell {
    pub name: &'static str,
    /// Evaluations per round.
    pub reps: usize,
    program: Program,
    query: Query,
    planner: Planner,
    edb: Database,
    oracle: Oracle,
    pinned: Option<Pinned>,
}

/// The roster, parsed, with every EDB built.  `reps` are evaluations per
/// round: the cheap cells repeat so that a round gives each cell a
/// comparable share of the wall.
pub fn set_up(quick: bool) -> Vec<Cell> {
    let chain = sizes(quick, 1024, 64);
    let long_chain = sizes(quick, 8192, 256);
    let list = sizes(quick, 64, 8);
    let side = sizes(quick, 64, 8);
    let grid = magic_workloads::same_generation_grid(magic_workloads::SgConfig {
        depth: side,
        width: side,
        flat_everywhere: true,
    });
    let hops = if quick {
        magic_workloads::hop_graph(8, 16, 4, 0x5EED)
    } else {
        magic_workloads::hop_graph(24, 80, 10, 0x5EED)
    };
    let reverse = format!("reverse({}, Y)", magic_workloads::list_term(list));
    let cell = |name, source, query: &str, strategy_name, reps, edb, oracle, pinned| Cell {
        name,
        reps,
        program: parse_program(source).expect("roster program parses"),
        query: parse_query(query).expect("roster query parses"),
        planner: Planner::new(strategy(strategy_name))
            .with_limits(Limits::default().with_threads(1)),
        edb,
        oracle,
        pinned: (!quick).then_some(pinned),
    };
    vec![
        cell(
            "chain1024-gms",
            ANCESTOR,
            "anc(n0, Y)",
            "gms",
            1,
            magic_workloads::chain(chain),
            Oracle::Chain(chain),
            (1024, 525_825, 3_677_697),
        ),
        cell(
            "chain1024-gsms",
            ANCESTOR,
            "anc(n0, Y)",
            "gsms",
            1,
            magic_workloads::chain(chain),
            Oracle::Chain(chain),
            (1024, 526_849, 2_626_049),
        ),
        cell(
            "sg64x64-gsms",
            SAME_GENERATION,
            "sg(l0c0, Y)",
            "gsms",
            1,
            grid,
            Oracle::GridOddColumns(side),
            (32, 188_420, 11_443_305),
        ),
        cell(
            "rev64-gms",
            REVERSE,
            &reverse,
            "gms",
            1,
            magic_workloads::reverse_database(),
            Oracle::Reversed(list),
            (1, 4_290, 2_447_638),
        ),
        cell(
            "chain8192-gcsj",
            ANCESTOR,
            "anc(n0, Y)",
            "gc+sj",
            sizes(quick, 20, 2),
            magic_workloads::chain(long_chain),
            Oracle::ChainCounting(long_chain),
            (63, 18_401, 42_978),
        ),
        cell(
            "shortest24x80-sn",
            SHORTEST,
            "shortest(X, Y, D)",
            "seminaive",
            sizes(quick, 100, 2),
            hops,
            Oracle::Shortest,
            (529, 4_888, 35_473),
        ),
    ]
}

/// What one evaluation produced.
pub struct Evaluated {
    pub answers: BTreeSet<Vec<Value>>,
    pub facts: usize,
    pub probes: usize,
}

/// Wall of each decomposed step, in seconds.
#[derive(Default, Clone, Copy)]
pub struct Steps {
    pub plan: f64,
    pub compile: f64,
    /// `compile` + `prepare` + `run`.
    pub fixpoint: f64,
    pub project: f64,
}

impl Cell {
    /// `Planner::plan` + `Plan::execute`: what the timed rounds run.
    pub fn evaluate(&self) -> Result<Evaluated, String> {
        let plan = self
            .planner
            .plan(&self.program, &self.query)
            .map_err(|e| e.to_string())?;
        let result = plan.execute(&self.edb).map_err(|e| e.to_string())?;
        Ok(Evaluated {
            answers: result.answers,
            facts: result.stats.facts_derived,
            probes: result.stats.join_probes,
        })
    }

    /// The same evaluation through the public steps `Plan::execute` is
    /// made of, each under its own span.
    pub fn evaluate_decomposed(
        &self,
        tracer: &mut Option<&mut Tracer>,
        op: u64,
    ) -> Result<(Evaluated, Steps), String> {
        let root = tracer
            .as_mut()
            .map(|t| t.begin("cell", "harness", None, op));
        let mut steps = Steps::default();
        let timed = |slot: &mut f64, start: Instant| *slot += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let plan = spanned(tracer, "plan", "core", root, op, || {
            self.planner.plan(&self.program, &self.query)
        })
        .map_err(|e| e.to_string())?;
        timed(&mut steps.plan, start);

        let start = Instant::now();
        let runner = spanned(tracer, "compile", "engine", root, op, || {
            FixpointRunner::for_program(&plan.program)
                .with_limits(plan.limits)
                .with_scheme(plan.scheme)
        });
        timed(&mut steps.compile, start);
        let mut db = spanned(tracer, "edb_clone", "storage", root, op, || {
            let mut db = self.edb.clone();
            ensure_atom_index(&mut db, &plan.answer_atom);
            db
        });
        spanned(tracer, "prepare", "engine", root, op, || {
            runner.prepare(&mut db)
        });
        let mut stats = EvalStats::default();
        spanned(tracer, "run", "engine", root, op, || {
            runner.run(&mut db, &mut stats, None)
        })
        .map_err(|e| e.to_string())?;
        timed(&mut steps.fixpoint, start);

        let start = Instant::now();
        let answers = spanned(tracer, "project", "engine", root, op, || {
            project_answers(&db, &plan.answer_atom, &plan.projection)
        });
        timed(&mut steps.project, start);
        // Dropping the fixpoint's database is part of an evaluation's cost
        // in `evaluate` too; keep it inside the root span.
        spanned(tracer, "drop", "storage", root, op, || drop(db));
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.end(root);
        }
        Ok((
            Evaluated {
                answers,
                facts: stats.facts_derived,
                probes: stats.join_probes,
            },
            steps,
        ))
    }

    /// Answers against the cell's oracle, counters against the pinned cell.
    pub fn verify(&self, got: &Evaluated) -> Result<(), String> {
        let syms = |names: &mut dyn Iterator<Item = String>| -> BTreeSet<Vec<Value>> {
            names.map(|n| vec![Value::sym(&n)]).collect()
        };
        let expected: BTreeSet<Vec<Value>> = match self.oracle {
            Oracle::Chain(n) => syms(&mut (1..=n).map(|i| format!("n{i}"))),
            Oracle::ChainCounting(n) => syms(&mut (1..=n.min(63)).map(|i| format!("n{i}"))),
            Oracle::GridOddColumns(width) => {
                syms(&mut (1..width).step_by(2).map(|c| format!("l0c{c}")))
            }
            Oracle::Reversed(n) => {
                let items = (0..n).rev().map(|i| Value::sym(&format!("e{i}")));
                BTreeSet::from([vec![Value::list(items.collect())]])
            }
            Oracle::Shortest => magic_workloads::shortest_oracle(&self.edb)
                .into_iter()
                .map(|fact| fact.values)
                .collect(),
        };
        if got.answers != expected {
            return Err(format!(
                "{}: {} answers differ from the oracle's {}",
                self.name,
                got.answers.len(),
                expected.len()
            ));
        }
        if let Some((answers, facts, probes)) = self.pinned {
            if (got.answers.len(), got.facts, got.probes) != (answers, facts, probes) {
                return Err(format!(
                    "{}: (answers, facts, probes) = ({}, {}, {}), pinned ({answers}, {facts}, \
                     {probes})",
                    self.name,
                    got.answers.len(),
                    got.facts,
                    got.probes
                ));
            }
        }
        Ok(())
    }
}

pub fn run(opts: &Opts, mut tracer: Option<&mut Tracer>) -> Report {
    let mut report = Report::default();
    let (cells, setup_s) = repeat_setup(opts.trace, || set_up(opts.quick));
    report.setup_s = setup_s;

    let mut rng = Rng::new(opts.seed);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut first: Vec<Option<Evaluated>> = cells.iter().map(|_| None).collect();
    let mut round_rates = Vec::new();
    let mut op = 0u64;
    let cpu_start = crate::host::cpu_seconds();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        // A traced run alternates bare and decomposed rounds: one process,
        // one warm state, both sides of the overhead figure.
        let decomposed = opts.trace && rounds % 2 == 1;
        rng.shuffle(&mut order);
        let round_start = Instant::now();
        let mut evaluations = 0usize;
        for &c in &order {
            let cell = &cells[c];
            for _ in 0..cell.reps {
                op += 1;
                report.attempted += 1;
                let eval_start = Instant::now();
                let outcome = if decomposed {
                    cell.evaluate_decomposed(&mut tracer, op).map(|(e, _)| e)
                } else {
                    cell.evaluate()
                };
                let wall = eval_start.elapsed().as_secs_f64();
                evaluations += 1;
                let got = match outcome {
                    Ok(got) => got,
                    Err(e) => {
                        report.failed += 1;
                        report.wrong.push(format!("{}: {e}", cell.name));
                        continue;
                    }
                };
                if decomposed {
                    traced[c].push(wall);
                } else {
                    plain[c].push(wall);
                }
                match &first[c] {
                    // Every later evaluation must repeat the first exactly,
                    // bare or decomposed; the first is checked in full below.
                    Some(f) => {
                        let same = (got.answers.len(), got.facts, got.probes)
                            == (f.answers.len(), f.facts, f.probes);
                        report.check(same, || format!("{}: counters moved", cell.name));
                        if !same {
                            report.failed += 1;
                        }
                    }
                    None => first[c] = Some(got),
                }
            }
        }
        if !decomposed {
            round_rates.push(evaluations as f64 / round_start.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    let cpu = crate::host::cpu_seconds() - cpu_start;

    for (cell, got) in cells.iter().zip(&first) {
        match got.as_ref().map(|got| cell.verify(got)) {
            Some(Ok(())) => {}
            Some(Err(e)) => report.wrong.push(e),
            None => report.wrong.push(format!("{}: never evaluated", cell.name)),
        }
    }
    let medians: Vec<f64> = plain.iter().map(|w| median(w) * 1e6).collect();
    // A round gives the heavy cells one sample each, too few for a
    // percentile; the tail a user of cold evaluation meets is the slowest
    // kind of query, so that cell's median stands for it.
    report.op_p50_us = geomean(&medians);
    report.op_tail_us = medians.iter().copied().fold(0.0, f64::max);
    report.ops_per_s = median(&round_rates);
    report.detail(
        "cpu_us_per_op",
        "us",
        cpu * 1e6 / report.attempted as f64,
        0,
    );
    if opts.trace {
        let traced_medians: Vec<f64> = traced.iter().map(|w| median(w) * 1e6).collect();
        report.trace_overhead_pct = (geomean(&traced_medians) / report.op_p50_us - 1.0) * 100.0;
    }
    report.detail("eval_geomean_ms", "ms", report.op_p50_us / 1e3, rounds);
    for ((cell, m), walls) in cells.iter().zip(&medians).zip(&plain) {
        report.detail(format!("eval_ms.{}", cell.name), "ms", m / 1e3, walls.len());
    }
    report
}
