//! Regenerate the paper's fact-count accounting (Sections 1, 9 and 11):
//! for each benchmark scenario and each strategy, the number of answers,
//! answer facts, subquery (magic/counting) facts, supplementary facts, rule
//! firings and iterations.
//!
//! The shapes to look for:
//!
//! * the bottom-up baselines derive the *entire* derived relation while the
//!   rewrites derive only the query-reachable part (Section 1);
//! * the magic facts are a small fraction of the derived facts (Section 9's
//!   discussion of reference \[5\]);
//! * GSMS/GSC trade extra supplementary facts for fewer duplicate firings
//!   than GMS/GC (Section 11);
//! * on the chain, magic derives O(n²) ancestor facts for a query with n
//!   answers — the gap to specialised transitive-closure methods that the
//!   paper concedes in Section 9.
//!
//! Run with `cargo run --release -p magic-bench --bin fact_counts`.

use magic_bench::{
    ancestor_chain, ancestor_tree, list_reverse, nested_same_generation, same_generation, Scenario,
};
use magic_core::planner::Strategy;

/// Strategies that are known to work on the scenario.
///
/// * The counting strategies diverge on the nested same-generation workload
///   (its per-level same-generation relation is cyclic, so derivation paths
///   grow without bound — Section 10).
/// * The counting strategies' numeric derivation-path encoding (`K·m + i`,
///   `H·t + j`) saturates at `i64` past level ⌊log_m 2⁶³⌋ — 63 for m = 2 —
///   where distinct indexes collapse and deeper answers are lost, so they
///   are excluded from the deepest chain (see ROADMAP.md, "Counting indexes
///   are exact, or the run is refused").
fn applicable(scenario: &Scenario) -> Vec<Strategy> {
    let magic_only =
        scenario.name.starts_with("nested_sg") || scenario.name == "ancestor/chain/256";
    if magic_only {
        vec![
            Strategy::NaiveBottomUp,
            Strategy::SemiNaiveBottomUp,
            Strategy::MagicSets,
            Strategy::SupplementaryMagicSets,
        ]
    } else {
        Strategy::ALL.to_vec()
    }
}

fn row(scenario: &Scenario, strategy: Strategy) {
    match scenario.run(strategy) {
        Ok(result) => {
            println!(
                "{:<28} {:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
                scenario.name,
                strategy.short_name(),
                result.answers.len(),
                result.accounting.answer_facts,
                result.accounting.subquery_facts,
                result.accounting.supplementary_facts,
                result.stats.rule_firings,
                result.stats.iterations
            );
        }
        Err(e) => {
            println!(
                "{:<28} {:<10} (failed: {e})",
                scenario.name,
                strategy.short_name()
            );
        }
    }
}

fn main() {
    println!(
        "{:<28} {:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "scenario", "strategy", "answers", "ans.facts", "subquery", "suppl.", "firings", "iters"
    );
    let scenarios = vec![
        ancestor_chain(48),
        ancestor_chain(256),
        ancestor_tree(8),
        same_generation(3, 8),
        nested_same_generation(3, 6),
        list_reverse(24),
    ];
    for scenario in &scenarios {
        for strategy in applicable(scenario) {
            // The unrewritten baselines cannot evaluate the reverse program
            // (it is not range-restricted without the query bindings) —
            // that failure is itself part of the story (Section 10).
            row(scenario, strategy);
        }
        println!();
    }
}
