//! The semijoin optimization of the counting methods (Section 8,
//! Lemmas 8.1/8.2 and Theorem 8.3).
//!
//! In a counting-rewritten program the derivation-path indexes already
//! identify *which* bindings flow where; when the bound arguments of a block
//! of mutually recursive indexed predicates are never used outside positions
//! that are themselves being dropped, those arguments — and the literals
//! whose only purpose was to produce them — can be deleted.  The result is
//! the paper's "semijoin" form: narrower recursive predicates and shorter
//! rule bodies (Example 8, Appendix A.5/A.6 optimized rule sets).
//!
//! The optimizer below works on the output of the generalized counting and
//! generalized supplementary counting rewrites of this crate (left-to-right
//! sips): for each candidate block it checks the occurrence conditions of
//! Theorem 8.3 — treating index variables as exempt, since the indexes are
//! exactly what makes the deletion sound — and iterates to a fixpoint over
//! the set of blocks that survive.  It is conservative: when a condition
//! fails the block is simply left untouched.

use crate::rewrite::{Method, RewriteError, RewrittenProgram};
use magic_datalog::{Adornment, Atom, DependencyGraph, PredName, Program, Rule, Term, Variable};
use std::collections::BTreeSet;

/// How many index arguments the counting rewrites prepend.
const INDEX_ARITY: usize = 3;

/// The bound (non-index) argument positions of an indexed or counting
/// predicate occurrence, as absolute positions into the atom's term list.
fn bound_positions(pred: &PredName) -> Option<Vec<usize>> {
    match pred {
        PredName::Indexed { adornment, .. } => Some(
            adornment
                .bound_positions()
                .into_iter()
                .map(|p| p + INDEX_ARITY)
                .collect(),
        ),
        _ => None,
    }
}

/// The variables occurring in index positions anywhere in the rule: these
/// are exempt from the occurrence conditions (the indexes are what justifies
/// the deletions).
fn index_vars(rule: &Rule) -> BTreeSet<Variable> {
    let mut out = BTreeSet::new();
    let mut note = |atom: &Atom| {
        if matches!(
            atom.pred,
            PredName::Indexed { .. } | PredName::Count { .. } | PredName::SupCount { .. }
        ) {
            for term in atom.terms.iter().take(INDEX_ARITY) {
                out.extend(term.vars());
            }
        }
    };
    note(&rule.head);
    for atom in &rule.body {
        note(atom);
    }
    out
}

/// All positions (atom-relative) at which `v` occurs within `atom`.
fn occurrence_positions(atom: &Atom, v: Variable) -> Vec<usize> {
    atom.terms
        .iter()
        .enumerate()
        .filter(|(_, t)| t.vars().contains(&v))
        .map(|(p, _)| p)
        .collect()
}

/// Check whether every occurrence of `v` in the rule outside the body
/// positions `exempt_literals` lies in a "dropped" position: a bound
/// non-index argument of an occurrence (head or body) of a predicate whose
/// block is in `candidates`.
fn occurrences_are_dropped(
    rule: &Rule,
    v: Variable,
    exempt_literals: &BTreeSet<usize>,
    candidates: &BTreeSet<PredName>,
) -> bool {
    let check_atom = |atom: &Atom| -> bool {
        let positions = occurrence_positions(atom, v);
        if positions.is_empty() {
            return true;
        }
        let Some(bound) = bound_positions(&atom.pred) else {
            return false;
        };
        if !candidates.contains(&atom.pred) {
            return false;
        }
        positions.iter().all(|p| bound.contains(p))
    };
    if !check_atom(&rule.head) {
        return false;
    }
    for (i, atom) in rule.body.iter().enumerate() {
        if exempt_literals.contains(&i) {
            continue;
        }
        if !check_atom(atom) {
            return false;
        }
    }
    true
}

/// Check the Theorem 8.3 conditions for one occurrence of a candidate-block
/// predicate: body literal `pos` of `rule`.
fn occurrence_ok(rule: &Rule, pos: usize, candidates: &BTreeSet<PredName>) -> bool {
    let atom = &rule.body[pos];
    let Some(bound) = bound_positions(&atom.pred) else {
        return true;
    };
    let idx_vars = index_vars(rule);
    // N: the literals preceding this occurrence (our counting rewrites emit
    // left-to-right full sips, so the prefix is exactly the arc's tail).
    let prefix: BTreeSet<usize> = (0..pos).collect();
    let mut self_and_prefix = prefix.clone();
    self_and_prefix.insert(pos);

    // Condition (1): variables in bound arguments of the occurrence appear
    // nowhere else except in dropped positions or within N (or the index
    // positions).
    let bound_vars: BTreeSet<Variable> = bound.iter().flat_map(|&p| atom.terms[p].vars()).collect();
    for v in bound_vars {
        if idx_vars.contains(&v) {
            continue;
        }
        if !occurrences_are_dropped(rule, v, &self_and_prefix, candidates) {
            return false;
        }
    }
    // Condition (2): variables of N appear nowhere else except in bound
    // arguments of candidate occurrences (or index positions).
    let prefix_vars: BTreeSet<Variable> =
        prefix.iter().flat_map(|&p| rule.body[p].vars()).collect();
    for v in prefix_vars {
        if idx_vars.contains(&v) {
            continue;
        }
        if !occurrences_are_dropped(rule, v, &prefix, candidates) {
            return false;
        }
    }
    true
}

/// Compute the set of indexed predicates whose bound arguments can be
/// dropped, starting from all indexed predicates and removing blocks whose
/// occurrences violate the conditions, until a fixpoint is reached.
fn surviving_predicates(program: &Program) -> BTreeSet<PredName> {
    let graph = DependencyGraph::build(program);
    let blocks: Vec<BTreeSet<PredName>> = graph
        .sccs()
        .into_iter()
        .map(|c| {
            c.into_iter()
                .filter(|p| matches!(p, PredName::Indexed { .. }))
                .collect::<BTreeSet<_>>()
        })
        .filter(|c| !c.is_empty())
        .collect();

    let mut candidates: BTreeSet<PredName> = blocks.iter().flatten().cloned().collect();
    loop {
        let mut removed = false;
        for block in &blocks {
            if !block.iter().all(|p| candidates.contains(p)) {
                continue;
            }
            let ok = program.rules.iter().all(|rule| {
                (0..rule.body.len()).all(|pos| {
                    if block.contains(&rule.body[pos].pred) {
                        occurrence_ok(rule, pos, &candidates)
                    } else {
                        true
                    }
                })
            });
            if !ok {
                for p in block {
                    candidates.remove(p);
                }
                removed = true;
            }
        }
        if !removed {
            return candidates;
        }
    }
}

/// Drop the bound non-index arguments from an atom over a surviving
/// predicate (adjusting its adornment), leaving other atoms untouched.
fn narrow_atom(atom: &Atom, surviving: &BTreeSet<PredName>) -> Atom {
    if !surviving.contains(&atom.pred) {
        return atom.clone();
    }
    let PredName::Indexed { base, adornment } = &atom.pred else {
        return atom.clone();
    };
    let keep: Vec<usize> = (0..INDEX_ARITY)
        .chain(
            adornment
                .free_positions()
                .into_iter()
                .map(|p| p + INDEX_ARITY),
        )
        .collect();
    let terms: Vec<Term> = keep.iter().map(|&p| atom.terms[p].clone()).collect();
    let narrowed = Adornment::all_free(adornment.free_positions().len());
    Atom::new(
        PredName::Indexed {
            base: *base,
            adornment: narrowed,
        },
        terms,
    )
}

/// Apply the semijoin optimization (Theorem 8.3) to the output of a counting
/// or supplementary counting rewrite.
///
/// Returns the optimized program; blocks that do not satisfy the conditions
/// are left untouched, so the result is always at least as general as the
/// input.
pub fn optimize(rewritten: &RewrittenProgram) -> Result<RewrittenProgram, RewriteError> {
    if !matches!(rewritten.method, Method::Gc | Method::Gsc) {
        return Err(RewriteError::CountingNotApplicable {
            reason: format!(
                "the semijoin optimization applies to counting rewrites, not {}",
                rewritten.method
            ),
        });
    }
    let surviving = surviving_predicates(&rewritten.program);

    let mut rules = Vec::new();
    for rule in &rewritten.program.rules {
        // Delete, for every body occurrence of a surviving predicate, the
        // literals preceding it (Lemma 8.1 / Theorem 8.3); then narrow every
        // remaining occurrence of surviving predicates (Lemma 8.2).
        let mut deleted: BTreeSet<usize> = BTreeSet::new();
        for (pos, atom) in rule.body.iter().enumerate() {
            if surviving.contains(&atom.pred) {
                deleted.extend(0..pos);
            }
        }
        let head = narrow_atom(&rule.head, &surviving);
        let body: Vec<Atom> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(pos, _)| !deleted.contains(pos))
            .map(|(_, atom)| narrow_atom(atom, &surviving))
            .collect();
        rules.push(Rule::new(head, body));
    }

    // If the answer predicate was narrowed, the bound query positions
    // disappear from the answer atom, and the derivation indexes become the
    // only link between stored facts and the query: pin them to the seed's
    // indexes (0, 0, 0), which by construction label the top-level
    // derivation.  The projection variables (free positions) are always
    // retained.
    let mut answer_atom = narrow_atom(&rewritten.answer_atom, &surviving);
    if surviving.contains(&rewritten.answer_atom.pred) || surviving.contains(&answer_atom.pred) {
        for term in answer_atom.terms.iter_mut().take(INDEX_ARITY) {
            *term = Term::Int(0);
        }
    }
    let method = match rewritten.method {
        Method::Gc => Method::GcSemijoin,
        _ => Method::GscSemijoin,
    };
    Ok(RewrittenProgram {
        program: Program::from_rules(rules),
        seed: rewritten.seed.clone(),
        answer_atom,
        projection: rewritten.projection.clone(),
        method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::tests::{rewrite_source, texts};
    use crate::rewrite::Guard;

    fn counting_rewrite(src: &str, query: &str) -> RewrittenProgram {
        rewrite_source(src, query, Guard::Counting, false).unwrap()
    }

    #[test]
    fn ancestor_semijoin_matches_appendix_a51_optimized() {
        let base = counting_rewrite(
            "a(X, Y) :- p(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).",
            "a(john, Y)",
        );
        let optimized = optimize(&base).unwrap();
        let text = texts(&optimized);
        // The optimized rule set of Appendix A.5.1: the recursive modified
        // rule loses its cnt/p prefix and the bound argument of a_ind.
        for expected in [
            "cnt_a_ind_bf(I+1, K*2+2, H*2+2, Z) :- cnt_a_ind_bf(I, K, H, X), p(X, Z).",
            "a_ind_f(I, K, H, Y) :- cnt_a_ind_bf(I, K, H, X), p(X, Y).",
            "a_ind_f(I, K, H, Y) :- a_ind_f(I+1, K*2+2, H*2+2, Y).",
            "cnt_a_ind_bf(0, 0, 0, john).",
        ] {
            assert!(
                text.contains(&expected.to_string()),
                "missing: {expected}\nhave: {text:#?}"
            );
        }
        assert_eq!(optimized.method, Method::GcSemijoin);
    }

    #[test]
    fn example_8_same_generation_semijoin() {
        // Example 8: the semijoin optimization applies to all occurrences of
        // sg_ind in the counting-rewritten nonlinear same-generation program.
        let base = counting_rewrite(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
            "sg(john, Y)",
        );
        let optimized = optimize(&base).unwrap();
        let text = texts(&optimized);
        for expected in [
            // Counting rules: the second loses its prefix (Lemma 8.1).
            "cnt_sg_ind_bf(I+1, K*2+2, H*5+2, Z1) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1).",
            "cnt_sg_ind_bf(I+1, K*2+2, H*5+4, Z3) :- sg_ind_f(I+1, K*2+2, H*5+2, Z2), flat(Z2, Z3).",
            // Modified rules: bound arguments of sg_ind dropped, prefixes
            // before the last sg_ind occurrence deleted.
            "sg_ind_f(I, K, H, Y) :- cnt_sg_ind_bf(I, K, H, X), flat(X, Y).",
            "sg_ind_f(I, K, H, Y) :- sg_ind_f(I+1, K*2+2, H*5+4, Z4), down(Z4, Y).",
            "cnt_sg_ind_bf(0, 0, 0, john).",
        ] {
            assert!(
                text.contains(&expected.to_string()),
                "missing: {expected}\nhave: {text:#?}"
            );
        }
    }

    #[test]
    fn semijoin_on_gsc_output() {
        let base = rewrite_source(
            "a(X, Y) :- p(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).",
            "a(john, Y)",
            Guard::Counting,
            true,
        )
        .unwrap();
        let optimized = optimize(&base).unwrap();
        assert_eq!(optimized.method, Method::GscSemijoin);
        // The recursive a_ind occurrence loses its bound argument.
        assert!(texts(&optimized)
            .iter()
            .any(|r| r.starts_with("a_ind_f(I, K, H, Y) :-")));
    }

    #[test]
    fn semijoin_rejects_non_counting_programs() {
        let gms = rewrite_source(
            "a(X, Y) :- p(X, Y).
             a(X, Y) :- p(X, Z), a(Z, Y).",
            "a(john, Y)",
            Guard::Magic,
            false,
        )
        .unwrap();
        assert!(optimize(&gms).is_err());
    }

    #[test]
    fn blocks_violating_conditions_are_left_untouched() {
        // A program where the bound argument of the recursive literal is
        // also used by a later base literal, so it cannot be dropped:
        //   t(X, Y) :- e(X, Y).
        //   t(X, Y) :- e(X, Z), t(Z, W), check(Z, W, Y).
        // Here Z (bound arg of t) reappears in check, outside any dropped
        // position.
        let base = counting_rewrite(
            "t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, W), check(Z, W, Y).",
            "t(john, Y)",
        );
        let optimized = optimize(&base).unwrap();
        // No narrowing happened: t_ind keeps its bf adornment everywhere.
        assert!(texts(&optimized).iter().all(|r| !r.contains("t_ind_f(")));
    }
}
