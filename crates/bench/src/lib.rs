//! # magic-bench
//!
//! The benchmark scenarios of the *Power of Magic* reproduction and the
//! binaries that report on them.
//!
//! * `src/bin/appendix.rs` regenerates the paper's symbolic artifacts: the
//!   adorned rule sets (Appendix A.2) and the rewritten rule sets of every
//!   method (A.3–A.6).
//! * `src/bin/fact_counts.rs` regenerates the fact-count accounting that
//!   backs the paper's qualitative claims (Sections 1, 9 and 11).
//! * `src/bin/perf_report.rs` prints the evaluation counters of every
//!   (scenario, strategy) cell, checked in as
//!   `tests/golden/perf_counters.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use magic_core::planner::{PlanResult, Planner, Strategy};
use magic_datalog::{Program, Query};
use magic_storage::Database;

/// A named scenario: a program, a query and an extensional database.
pub struct Scenario {
    /// Human-readable name (used in report rows).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The query.
    pub query: Query,
    /// The data.
    pub database: Database,
}

impl Scenario {
    /// Construct a scenario.
    pub fn new(
        name: impl Into<String>,
        program: Program,
        query: Query,
        database: Database,
    ) -> Self {
        Scenario {
            name: name.into(),
            program,
            query,
            database,
        }
    }

    /// Evaluate the scenario under a strategy.
    pub fn run(&self, strategy: Strategy) -> Result<PlanResult, magic_core::planner::PlanError> {
        Planner::new(strategy).evaluate(&self.program, &self.query, &self.database)
    }
}

/// The ancestor-on-a-chain scenario of Section 1.
pub fn ancestor_chain(n: usize) -> Scenario {
    Scenario::new(
        format!("ancestor/chain/{n}"),
        magic_workloads::programs::ancestor(),
        magic_workloads::programs::ancestor_query("n0"),
        magic_workloads::chain(n),
    )
}

/// The ancestor-on-a-binary-tree scenario.
pub fn ancestor_tree(depth: usize) -> Scenario {
    Scenario::new(
        format!("ancestor/tree/{depth}"),
        magic_workloads::programs::ancestor(),
        magic_workloads::programs::ancestor_query("n0"),
        magic_workloads::binary_tree(depth),
    )
}

/// The nonlinear same-generation scenario over a layered grid.
pub fn same_generation(depth: usize, width: usize) -> Scenario {
    let cfg = magic_workloads::SgConfig {
        depth,
        width,
        flat_everywhere: true,
    };
    Scenario::new(
        format!("same_generation/{depth}x{width}"),
        magic_workloads::programs::same_generation(),
        magic_workloads::programs::same_generation_query("l0c0"),
        magic_workloads::same_generation_grid(cfg),
    )
}

/// The nested same-generation scenario of Appendix problem (3).
pub fn nested_same_generation(depth: usize, width: usize) -> Scenario {
    let cfg = magic_workloads::SgConfig {
        depth,
        width,
        flat_everywhere: true,
    };
    let mut db = magic_workloads::same_generation_grid(cfg);
    magic_workloads::nested_sg_extras(cfg, &mut db);
    Scenario::new(
        format!("nested_sg/{depth}x{width}"),
        magic_workloads::programs::nested_same_generation(),
        magic_workloads::programs::nested_sg_query("l0c0"),
        db,
    )
}

/// The list-reverse scenario of Appendix problem (4).
pub fn list_reverse(n: usize) -> Scenario {
    Scenario::new(
        format!("reverse/{n}"),
        magic_workloads::programs::list_reverse(),
        magic_workloads::programs::reverse_query(magic_workloads::list_term(n)),
        magic_workloads::reverse_database(),
    )
}

/// The stratified win/lose game over a random `n`-position graph with
/// roughly `moves` moves: all winning positions, `win(X)?`.  The program
/// negates `has_move` one stratum down, so only the strategies that
/// support negation produce cells; the rest record typed skips.
pub fn win_lose_game(n: usize, moves: usize) -> Scenario {
    Scenario::new(
        format!("win_lose/{n}x{moves}"),
        magic_workloads::win_lose(),
        magic_datalog::parse_query("win(X)").expect("query parses"),
        magic_workloads::game_graph(n, moves, 0xB10C),
    )
}

/// The bill-of-materials rollup over a random BOM of `assemblies`
/// assemblies drawing up to `max_parts` parts each: per-assembly cost
/// totals, `total(A, T)?`.  The head aggregates (`sum<C>`), so only the
/// baseline evaluators produce cells; every rewrite records a typed skip.
pub fn bom_rollup(assemblies: usize, max_parts: usize) -> Scenario {
    Scenario::new(
        format!("bom_total/{assemblies}x{max_parts}"),
        magic_workloads::bill_of_materials(),
        magic_datalog::parse_query("total(A, T)").expect("query parses"),
        magic_workloads::bom_database(assemblies, max_parts, 0xB0B0),
    )
}

/// Shortest paths in hops via `min` over a random `n`-node graph with
/// roughly `edges` edges (cycles allowed) and hop counts bounded by
/// `bound`: `shortest(X, Y, D)?`.  Like [`bom_rollup`], aggregate-headed,
/// so baseline-only.
pub fn shortest_hops(n: usize, edges: usize, bound: usize) -> Scenario {
    Scenario::new(
        format!("shortest/{n}x{edges}"),
        magic_workloads::shortest_paths(),
        magic_datalog::parse_query("shortest(X, Y, D)").expect("query parses"),
        magic_workloads::hop_graph(n, edges, bound, 0x5EED),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_run_under_magic_sets() {
        for scenario in [
            ancestor_chain(16),
            ancestor_tree(4),
            same_generation(2, 4),
            nested_same_generation(2, 4),
            list_reverse(5),
        ] {
            let result = scenario.run(Strategy::MagicSets).unwrap();
            assert!(
                !result.answers.is_empty(),
                "{} produced no answers",
                scenario.name
            );
        }
    }

    #[test]
    fn stratified_scenarios_run_and_match_their_oracles() {
        let game = win_lose_game(16, 36);
        let winners = game.run(Strategy::MagicSets).unwrap().answers;
        let expected: std::collections::BTreeSet<Vec<magic_datalog::Value>> =
            magic_workloads::win_lose_oracle(&game.database)
                .into_iter()
                .filter(|f| f.pred == magic_datalog::PredName::plain("win"))
                .map(|f| f.values)
                .collect();
        assert_eq!(winners, expected);
        assert!(!winners.is_empty());

        let bom = bom_rollup(4, 3);
        let totals = bom.run(Strategy::SemiNaiveBottomUp).unwrap().answers;
        assert_eq!(totals.len(), 4);

        let paths = shortest_hops(8, 16, 4);
        let shortest = paths.run(Strategy::SemiNaiveBottomUp).unwrap().answers;
        assert!(!shortest.is_empty());
    }

    #[test]
    fn aggregate_scenarios_are_typed_refusals_under_rewrites() {
        let err = bom_rollup(3, 2).run(Strategy::MagicSets).unwrap_err();
        assert!(matches!(
            err,
            magic_core::planner::PlanError::GuardedUnsupported { .. }
        ));
    }

    #[test]
    fn reverse_answers_are_reversed_lists() {
        let result = list_reverse(4)
            .run(Strategy::SupplementaryMagicSets)
            .unwrap();
        assert_eq!(result.answers.len(), 1);
        let answer = result.answers.iter().next().unwrap();
        let items = answer[0].as_list().unwrap();
        let names: Vec<String> = items.iter().map(|v| v.to_string()).collect();
        assert_eq!(names, vec!["e3", "e2", "e1", "e0"]);
    }
}
