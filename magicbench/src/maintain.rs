//! `maintain`: live view maintenance with no socket and no disk.  An
//! in-process `ViewCatalog` (gms) holds four views `anc(n_k, Y)` over a
//! chain; a seeded script of real state changes goes through `apply_all`
//! one op per call.  Cheap leaf ops run beside heavy delete-and-rederive
//! cuts, inserts beside retracts.

use crate::eval_cold::{strategy, ANCESTOR};
use crate::gen::{Band, MaintainScript, Op, OpClass};
use crate::oracle::{self, Answers};
use crate::report::{repeat_setup, Opts, Report};
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{spanned, Tracer};
use magic_datalog::{parse_program, parse_query};
use magic_engine::Limits;
use magic_incr::{Update, ViewCatalog};
use magic_storage::Database;
use std::collections::BTreeMap;
use std::time::Instant;

/// Chain length, view roots, the band leaves hang on and the cut edges.
///
/// Sized on the seed commit, where delete-and-rederive costs about 40 µs a
/// row: a leaf on the band moves ~50 rows of the first view (retract ≈ 2
/// ms, insert ≈ 0.1 ms), and a cut of one of the last four edges moves
/// 2 500 to 10 000 rows across all four views (retract 90 to 340 ms).  A
/// cut in mid-chain would move hundreds of thousands and run for minutes.
pub struct Shape {
    pub nodes: usize,
    pub roots: [usize; 4],
    pub band: Band,
    pub cuts: [usize; 4],
}

pub fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            nodes: 64,
            roots: [0, 16, 32, 48],
            band: Band { lo: 4, width: 8 },
            cuts: [60, 61, 62, 63],
        }
    } else {
        Shape {
            nodes: 1024,
            roots: [0, 256, 512, 768],
            band: Band { lo: 48, width: 8 },
            cuts: [1020, 1021, 1022, 1023],
        }
    }
}

/// The catalog under maintenance, and the benchmark's own copy of the
/// base facts for the oracle.
pub struct Maintained {
    pub catalog: ViewCatalog,
    pub keys: Vec<String>,
    pub base: Database,
    pub shape: Shape,
}

pub fn set_up(quick: bool) -> Maintained {
    let shape = shape(quick);
    let program = parse_program(ANCESTOR).expect("ancestor parses");
    let base = magic_workloads::chain(shape.nodes);
    let mut catalog =
        ViewCatalog::new(strategy("gms")).with_limits(Limits::default().with_threads(1));
    let keys = shape
        .roots
        .iter()
        .map(|&k| {
            let query = parse_query(&oracle::binding(k)).expect("binding parses");
            catalog
                .materialize(&program, &query, &base)
                .expect("materialize a view")
        })
        .collect();
    Maintained {
        catalog,
        keys,
        base,
        shape,
    }
}

impl Maintained {
    /// One op through `apply_all`; its wall in seconds and how many views
    /// it changed.  `Err` when a view was evicted.
    pub fn apply(
        &mut self,
        op: &Op,
        tracer: &mut Option<&mut Tracer>,
        id: u64,
    ) -> Result<(f64, usize), String> {
        let fact = op.fact();
        let update = if op.class.is_insert() {
            Update::Insert(fact)
        } else {
            Update::Retract(fact)
        };
        let start = Instant::now();
        let outcome = spanned(tracer, op.class.name(), "incr", None, id, || {
            self.catalog.apply_all(std::slice::from_ref(&update))
        });
        let wall = start.elapsed().as_secs_f64();
        oracle::mirror(&mut self.base, op);
        match outcome.evicted.first() {
            Some((key, e)) => Err(format!("{key} evicted: {e}")),
            None => Ok((wall, outcome.changed.len())),
        }
    }

    /// Snapshot every view and read its answers, as a reader would; mean
    /// `(snapshot_view, answers)` seconds per view.
    pub fn read_views(&self, tracer: &mut Option<&mut Tracer>, id: u64) -> (f64, f64) {
        let (mut snap, mut read) = (0.0, 0.0);
        for key in &self.keys {
            let start = Instant::now();
            let snapshot = spanned(tracer, "snapshot_view", "incr", None, id, || {
                self.catalog.snapshot_view(key)
            })
            .expect("a live view");
            snap += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let answers = spanned(tracer, "snapshot_answers", "incr", None, id, || {
                snapshot.answers()
            });
            read += start.elapsed().as_secs_f64();
            std::hint::black_box(answers);
        }
        let n = self.keys.len() as f64;
        (snap / n, read / n)
    }

    /// Every view against a from-scratch evaluation of the base facts, and
    /// its derivation counts against a recount.
    pub fn verify(&self) -> Result<(), String> {
        let expected: Vec<Answers> = oracle::ancestor_answers(&self.base, &self.shape.roots);
        for (key, want) in self.keys.iter().zip(&expected) {
            let got = self.catalog.answers(key).ok_or("view vanished")?;
            if &got != want {
                return Err(format!(
                    "{key}: {} answers, from scratch {}",
                    got.len(),
                    want.len()
                ));
            }
            self.catalog
                .view(key)
                .ok_or("view vanished")?
                .verify_support()
                .map_err(|e| format!("{key}: {e}"))?;
        }
        Ok(())
    }
}

pub fn run(opts: &Opts, mut tracer: Option<&mut Tracer>) -> Report {
    let mut report = Report::default();
    let (mut state, setup_s) = repeat_setup(opts.trace, || set_up(opts.quick));
    report.setup_s = setup_s;

    let mut script = MaintainScript::new(state.shape.band, &state.shape.cuts, opts.seed);
    let block_len = script.block_len();
    let mut walls: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    let mut traced_walls: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::new();
    let mut rates = Vec::new();
    let (mut snaps, mut reads, mut moved) = (Vec::new(), Vec::new(), Vec::new());
    let cpu_start = crate::host::cpu_seconds();
    let start = Instant::now();
    let mut blocks = 0usize;
    let mut id = 0u64;
    while blocks < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        // A traced run alternates bare and traced blocks.
        let traced = opts.trace && blocks % 2 == 1;
        let mut none = None;
        let tr = if traced { &mut tracer } else { &mut none };
        let mut block_wall = 0.0;
        for op in script.by_ref().take(block_len) {
            id += 1;
            report.attempted += 1;
            match state.apply(&op, tr, id) {
                Ok((wall, changed)) => {
                    block_wall += wall;
                    moved.push(changed as f64);
                    if traced {
                        traced_walls.entry(op.class).or_default().push(wall);
                    } else {
                        all.push(wall);
                        walls.entry(op.class).or_default().push(wall);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.wrong.push(e);
                }
            }
        }
        if !traced {
            rates.push(block_len as f64 / block_wall);
        }
        let (snap, read) = state.read_views(tr, id);
        snaps.push(snap);
        reads.push(read);
        blocks += 1;
    }
    let cpu = crate::host::cpu_seconds() - cpu_start;
    if let Err(e) = state.verify() {
        report.wrong.push(e);
    }

    let p50_of = |walls: &BTreeMap<OpClass, Vec<f64>>, class| {
        median(walls.get(&class).map_or(&[][..], Vec::as_slice)) * 1e6
    };
    let p50 = |class| p50_of(&walls, class);
    let count = |class| walls.get(&class).map_or(0, Vec::len);
    let insert = p50(OpClass::LeafInsert);
    let retract = p50(OpClass::LeafRetract);
    report.op_p50_us = geomean(&[insert, retract]);
    // One op in ten is a cut, so the 99th percentile of all ops lies well
    // inside the cuts: the heavy retractions set the tail.
    report.op_tail_us = percentile(&all, 99.0) * 1e6;
    report.ops_per_s = median(&rates);
    report.detail(
        "cpu_us_per_op",
        "us",
        cpu * 1e6 / report.attempted as f64,
        0,
    );
    if opts.trace {
        let traced = geomean(&[
            p50_of(&traced_walls, OpClass::LeafInsert),
            p50_of(&traced_walls, OpClass::LeafRetract),
        ]);
        report.trace_overhead_pct = (traced / report.op_p50_us - 1.0) * 100.0;
    }
    report.detail("maintain_ops_per_s", "1/s", report.ops_per_s, rates.len());
    report.detail("insert_p50_us", "us", insert, count(OpClass::LeafInsert));
    report.detail("retract_p50_us", "us", retract, count(OpClass::LeafRetract));
    for class in [OpClass::CutRetract, OpClass::CutInsert] {
        let name = format!("{}_p50_us", class.name());
        report.detail(name, "us", p50(class), count(class));
    }
    report.detail("views_moved_per_update", "count", mean(&moved), moved.len());
    report.detail("view_snapshot_us", "us", median(&snaps) * 1e6, snaps.len());
    report.detail("view_read_us", "us", median(&reads) * 1e6, reads.len());
    report
}
