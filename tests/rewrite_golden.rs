//! Golden renderings of the rewrites.
//!
//! `Planner::rewrite` under every rewriting strategy × every sip strategy,
//! over the paper's benchmark problems (rendered in full) and 200 seeded
//! random programs (one fnv1a-64 digest per program, over its renderings).
//! A rendering is the rewritten program's `Display` — method, answer atom,
//! projection and the rules in order — plus its seed, or the refusal's
//! message.  Any change to rule order, predicate naming, seeds, answer atoms
//! or error text fails here.
//!
//! After an intended change, regenerate with
//! `MAGIC_BLESS=1 cargo test --test rewrite_golden` and review the diff.

use power_of_magic::magic::SipStrategy;
use power_of_magic::workloads::{list_term, programs, SplitMix64};
use power_of_magic::{parse_program, parse_query, Planner, Program, Query, Strategy};
use std::collections::BTreeMap;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rewrite.txt");

const SIPS: [SipStrategy; 3] = [
    SipStrategy::FullLeftToRight,
    SipStrategy::LeftToRightLastOnly,
    SipStrategy::Empty,
];

/// One case: the header naming it in the golden file, its source (printed on
/// a mismatch) and its rendering.  Random cases are stored as a digest.
struct Case {
    header: String,
    source: String,
    rendering: String,
    digest_only: bool,
}

impl Case {
    fn new(header: String, program: &Program, query: &Query, digest_only: bool) -> Case {
        let mut rendering = String::new();
        for strategy in Strategy::REWRITES {
            for sip in SIPS {
                rendering += &format!("--- {strategy} / {sip:?}\n");
                match Planner::new(strategy).with_sip(sip).rewrite(program, query) {
                    Ok(r) => {
                        let seed = r.seed.as_ref().map_or("none".into(), |s| s.to_string());
                        rendering += &format!("{r}% seed: {seed}\n");
                    }
                    Err(e) => rendering += &format!("% error: {e}\n"),
                }
            }
        }
        let source = format!("{program}{query}");
        Case {
            header,
            source,
            rendering,
            digest_only,
        }
    }

    /// The case as it appears in the golden file.
    fn golden(&self) -> String {
        if self.digest_only {
            format!(
                "{} fnv1a64={:016x}\n",
                self.header,
                fnv1a64(&self.rendering)
            )
        } else {
            format!("{}\n{}", self.header, self.rendering)
        }
    }
}

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A random program in the shape of the seed-set suite's `random_positive`:
/// two to four layers of binary or ternary predicates over base `e/2` and
/// `t/3`.  Each rule is a chain of literals from `X` to `Y` over the layers
/// below and the layer itself (so recursion is linear or not), with
/// constants, list terms and base-only bodies mixed in.  The top layer is
/// queried under a random binding pattern.
fn random_case(rng: &mut SplitMix64) -> (Program, Query) {
    let mut preds = vec![("e".to_string(), 2), ("t".to_string(), 3)];
    let mut src = String::new();
    for layer in 0..2 + rng.random_range(0..3) {
        let (name, arity) = (format!("p{layer}"), 2 + rng.random_range(0..2));
        let third = |rng: &mut SplitMix64| match rng.random_range(0..3) {
            0 => format!("c{}", rng.random_range(0..3)),
            _ => "W".to_string(),
        };
        for _ in 0..1 + rng.random_range(0..3) {
            let base_only = rng.random_range(0..4) == 0;
            let len = 1 + rng.random_range(0..3);
            let mut body = Vec::new();
            for i in 0..len {
                let from = if i == 0 { "X".into() } else { format!("Z{i}") };
                let mut to = if i + 1 == len {
                    "Y".into()
                } else {
                    format!("Z{}", i + 1)
                };
                if rng.random_range(0..6) == 0 {
                    to = format!("[{to} | R{i}]");
                }
                let (p, a) = if base_only {
                    preds[rng.random_range(0..2)].clone()
                } else if rng.random_range(0..4) == 0 {
                    (name.clone(), arity)
                } else {
                    preds[rng.random_range(0..preds.len())].clone()
                };
                let mut args = vec![from, to];
                if a == 3 {
                    args.push(third(rng));
                }
                body.push(format!("{p}({})", args.join(", ")));
            }
            if rng.random_range(0..5) == 0 {
                body.push(format!("e(Y, c{})", rng.random_range(0..3)));
            }
            let mut head = vec!["X".to_string(), "Y".to_string()];
            if rng.random_range(0..5) == 0 {
                head[0] = "[H | X]".into();
            }
            if arity == 3 {
                head.push(third(rng));
            }
            src += &format!("{name}({}) :- {}.\n", head.join(", "), body.join(", "));
        }
        preds.push((name, arity));
    }
    let (top, arity) = preds.last().expect("at least two layers").clone();
    let args: Vec<String> = (0..arity)
        .map(|i| match rng.random_range(0..4) {
            0 | 1 => format!("Q{i}"),
            2 => format!("c{i}"),
            _ => "[c1, c2]".to_string(),
        })
        .collect();
    let program = parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let query = parse_query(&format!("{top}({})", args.join(", "))).expect("query parses");
    (program, query)
}

fn cases() -> Vec<Case> {
    let q = |text: &str| parse_query(text).expect("query parses");
    let negation = parse_program(
        "reach(X) :- source(X).
         reach(Y) :- reach(X), edge(X, Y).
         unreached(X) :- node(X), not reach(X).",
    )
    .expect("negation program parses");
    let named = [
        (
            "ancestor",
            programs::ancestor(),
            programs::ancestor_query("n0"),
        ),
        (
            "ancestor_intro",
            programs::ancestor_intro(),
            q("anc(n0, Y)"),
        ),
        (
            "nonlinear_ancestor",
            programs::nonlinear_ancestor(),
            programs::ancestor_query("n0"),
        ),
        (
            "same_generation",
            programs::same_generation(),
            programs::same_generation_query("john"),
        ),
        (
            "nested_same_generation",
            programs::nested_same_generation(),
            programs::nested_sg_query("john"),
        ),
        (
            "list_reverse",
            programs::list_reverse(),
            programs::reverse_query(list_term(3)),
        ),
        ("all_free_query", programs::ancestor(), q("a(U, V)")),
        (
            "unknown_predicate",
            programs::ancestor(),
            q("nosuch(n0, Y)"),
        ),
        ("negation", negation, q("unreached(Y)")),
    ];
    let mut cases: Vec<Case> = named
        .into_iter()
        .map(|(name, program, query)| {
            Case::new(format!("=== {name}: {query}"), &program, &query, false)
        })
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0x601DE4);
    for i in 0..200 {
        let (program, query) = random_case(&mut rng);
        cases.push(Case::new(format!("random {i:03}"), &program, &query, true));
    }
    cases
}

/// Split a golden file into its cases, keyed by header.
fn parse_golden(text: &str) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.starts_with("=== ") {
            current = Some(line.to_string());
            out.insert(line.to_string(), String::new());
        } else if let Some((header, digest)) = line.split_once(" fnv1a64=") {
            current = None;
            out.insert(header.to_string(), digest.to_string());
        } else if let Some(body) = current.as_ref().and_then(|h| out.get_mut(h)) {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

#[test]
fn rewrites_match_the_golden_renderings() {
    let cases = cases();
    let actual: String = cases.iter().map(Case::golden).collect();
    if std::env::var_os("MAGIC_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("read tests/golden/rewrite.txt");
    if actual == expected {
        return;
    }
    let golden = parse_golden(&expected);
    let mut report = String::new();
    for case in &cases {
        let want = golden.get(&case.header).map(String::as_str);
        let have = if case.digest_only {
            format!("{:016x}", fnv1a64(&case.rendering))
        } else {
            case.rendering.clone()
        };
        if want != Some(have.as_str()) {
            report += &format!(
                "\n{} differs.\nsource:\n{}\nnew rendering:\n{}",
                case.header, case.source, case.rendering
            );
        }
    }
    if report.is_empty() {
        report = "\nevery case matches, but the file's layout or case list differs".into();
    }
    panic!("rewrites differ from {GOLDEN}:{report}");
}
