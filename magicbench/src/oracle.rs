//! From-scratch answers the maintained and served views are checked
//! against: the unrewritten ancestor program, evaluated semi-naively over
//! the base facts the benchmark itself tracked.

use crate::eval_cold::ANCESTOR;
use crate::gen::Op;
use magic_datalog::{parse_program, parse_query, Value};
use magic_engine::answers::query_answers;
use magic_engine::{Evaluator, Limits};
use magic_storage::Database;
use std::collections::BTreeSet;

pub type Answers = BTreeSet<Vec<Value>>;

/// The query text for the view rooted at chain node `k`.
pub fn binding(k: usize) -> String {
    format!("anc(n{k}, Y)")
}

/// `anc(n_k, Y)` for each `k` in `roots` over `base`.
pub fn ancestor_answers(base: &Database, roots: &[usize]) -> Vec<Answers> {
    let program = parse_program(ANCESTOR).expect("ancestor parses");
    let result = Evaluator::new(program)
        .with_limits(Limits::default().with_threads(1))
        .run(base)
        .expect("from-scratch ancestor evaluation");
    roots
        .iter()
        .map(|&k| {
            let query = parse_query(&binding(k)).expect("binding parses");
            query_answers(&result.database, &query)
        })
        .collect()
}

/// Keep the benchmark's own copy of the base facts in step with an op the
/// product accepted.
pub fn mirror(base: &mut Database, op: &Op) {
    let changed = if op.class.is_insert() {
        base.insert_fact(&op.fact())
    } else {
        base.remove_fact(&op.fact())
    };
    assert!(changed, "generated op {op:?} was not a state change");
}
