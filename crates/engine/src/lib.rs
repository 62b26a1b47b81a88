//! # magic-engine
//!
//! Bottom-up fixpoint evaluation of Horn-clause programs over stored
//! relations: the deductive-database substrate the paper's rewrites are
//! evaluated on.
//!
//! Two iteration schemes are provided — naive and semi-naive — together with
//! resource limits (so the divergent cases of Section 10 are observable as
//! errors) and detailed metrics (facts, firings, duplicates, join probes)
//! used by the sip-optimality and performance experiments.
//!
//! ```
//! use magic_datalog::{parse_program, parse_query};
//! use magic_engine::{answers::query_answers, Evaluator};
//! use magic_storage::Database;
//!
//! let program = parse_program(
//!     "anc(X, Y) :- par(X, Y).
//!      anc(X, Y) :- par(X, Z), anc(Z, Y).",
//! )
//! .unwrap();
//! let mut db = Database::new();
//! db.insert_pair("par", "john", "mary");
//! db.insert_pair("par", "mary", "ann");
//!
//! let result = Evaluator::new(program).run(&db).unwrap();
//! let q = parse_query("anc(john, Y)").unwrap();
//! assert_eq!(query_answers(&result.database, &q).len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod answers;
pub mod error;
pub mod evaluator;
pub mod join;
pub mod limits;
pub mod metrics;
pub mod plan;

pub use error::EvalError;
pub use evaluator::{
    EvalResult, Evaluator, FiringObserver, FixpointRunner, IterationScheme, WindowDiscipline,
};
pub use join::{
    count_derivations, count_derivations_batch, evaluate_rule, evaluate_rule_windows, DeltaWindow,
    JoinCounters,
};
pub use limits::Limits;
pub use metrics::EvalStats;
pub use plan::{sip_order, with_body_order, AtomPlan, RulePlan};
