//! Compiled evaluation plans for rules: the slot-frame join machine.
//!
//! # Design: compile-time variable slots
//!
//! A rule is evaluated left-to-right (the rewrites of `magic-core` emit rule
//! bodies already ordered according to the sip, with guard literals first).
//! Historically the join carried a `HashMap<Variable, Value>` environment:
//! every candidate tuple hashed variable keys, inserted and removed map
//! entries, and allocated a `Vec` of variables per checked term to know what
//! to undo on backtracking.  All of that work is resolvable at
//! compile time, so [`RulePlan::compile`] now does it once per rule:
//!
//! * **Dense slot numbering.**  Every variable of the rule (body first, in
//!   binding order, then any head-only variables) is assigned a dense slot
//!   id `0..num_slots`.  The run-time environment is then a flat *frame*
//!   `Vec<Option<Value>>` indexed by slot id — no hashing, no map nodes —
//!   allocated once per rule evaluation and reused across all candidate
//!   tuples.
//!
//! * **Per-atom key extractor programs.**  For each body atom we precompute
//!   which argument positions are fully evaluable by the time the atom is
//!   reached (all their variables bound by earlier atoms, or ground).
//!   Those become `key_positions`/`key_terms`: an index key evaluated once
//!   per atom *visit* (not per candidate row) and handed to
//!   `Relation::lookup`, which returns a borrowed id slice — the join never
//!   copies id vectors.
//!
//! * **Per-atom check programs.**  The remaining positions become `check`:
//!   [`SlotTerm`]s matched against each candidate row.
//!   `SlotTerm::match_value_slots` records newly bound slots on a shared
//!   *trail* (`Vec<u32>`); backtracking truncates the trail and clears the
//!   recorded frame entries.  Nothing in the per-row path allocates.
//!
//! * **Slot-compiled head.**  The head atom's terms are compiled to
//!   [`SlotTerm`]s too, so producing an output row is a frame read per
//!   argument.
//!
//! The semi-naive delta restriction composes with this machinery by
//! *slicing* the borrowed id sequence: index id lists are in ascending row-id
//! order (rows are append-only), so a delta window `[from, to)` is a slice
//! off the list's tail, not a per-id filter.  See `crate::join` for the
//! interpreter loop over these programs.

use magic_datalog::{PredName, Rule, SlotTerm, Variable};
use std::collections::BTreeSet;

/// A compiled negated body atom: by the safety condition every variable is
/// bound once the positive body is solved, so the whole atom compiles to a
/// row of evaluable [`SlotTerm`]s — the anti-join is a single
/// `Relation::contains_ids` probe against the finished lower-stratum
/// relation per satisfied positive instantiation.
#[derive(Clone, Debug)]
pub struct NegAtomPlan {
    /// The predicate this atom complements against.
    pub pred: PredName,
    /// The atom's arity.
    pub arity: usize,
    /// The slot-compiled terms, one per position.
    pub terms: Vec<SlotTerm>,
}

/// The per-atom part of a compiled rule plan.
#[derive(Clone, Debug)]
pub struct AtomPlan {
    /// The predicate this atom reads.
    pub pred: PredName,
    /// The atom's arity.
    pub arity: usize,
    /// Positions whose terms are fully evaluable when the atom is reached
    /// (all their variables bound by earlier atoms, or ground).
    pub key_positions: Vec<usize>,
    /// The slot-compiled terms at `key_positions`.
    pub key_terms: Vec<SlotTerm>,
    /// The remaining positions, with their slot-compiled terms, matched
    /// against each candidate row (extending the frame).
    pub check: Vec<(usize, SlotTerm)>,
}

/// A compiled rule: the original rule plus per-atom access plans in terms of
/// dense variable slots (see the module docs).
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// The source rule (kept for diagnostics and error messages).
    pub rule: Rule,
    /// The index of the rule in the program (used in metrics).
    pub rule_idx: usize,
    /// The head predicate (every output row of this plan belongs to it).
    pub head_pred: PredName,
    /// The slot-compiled head argument terms.
    pub head_terms: Vec<SlotTerm>,
    /// Number of variable slots; the join allocates one frame of this size.
    pub num_slots: usize,
    /// Slot id -> source variable (diagnostics only).
    pub slot_vars: Vec<Variable>,
    /// Access plans, one per body atom, in evaluation order.
    pub atoms: Vec<AtomPlan>,
    /// Anti-join plans for the negated atoms, checked once per satisfied
    /// positive instantiation (after all body atoms, before emitting).
    pub neg_atoms: Vec<NegAtomPlan>,
    /// Body occurrence indices whose predicate is derived in the program
    /// (candidates for delta-restricted evaluation in semi-naive mode).
    pub derived_occurrences: Vec<usize>,
}

/// The order in which a join should visit the body of `rule`: the paper's
/// sip discipline — bindings flow from what is already bound — as one
/// greedy loop.  `lead`, when given, is the occurrence that must come
/// first (a delta or shadow atom: the tiny relation the join fans out
/// from); `given` are the variables bound before the body starts (the
/// head's, for the head-bound join).  Every further step takes the atom
/// sharing the most variables with what is bound so far; the original
/// position breaks ties, so a body already in sip order is left alone.
///
/// Returns the original occurrence index per evaluation position.  Any
/// permutation is *sound* — the set of satisfying instantiations of a
/// conjunction does not depend on the order its atoms are visited in, so
/// answers, derivation counts and firing counts are those of the written
/// order; the order only decides whether an atom is reached with a key to
/// probe or has to be scanned.
///
/// One function, three users: the delta-driven plan variants of
/// [`FixpointRunner`](crate::FixpointRunner), the head-bound plans
/// ([`RulePlan::compile_head_bound`]), and the incremental layer's
/// overdeletion shadow rules.
pub fn sip_order(rule: &Rule, lead: Option<usize>, given: &BTreeSet<Variable>) -> Vec<usize> {
    let vars: Vec<BTreeSet<Variable>> = rule.body.iter().map(|atom| atom.var_set()).collect();
    let mut bound = given.clone();
    let mut order = Vec::with_capacity(rule.body.len());
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    if let Some(lead) = lead {
        remaining.remove(lead);
        bound.extend(vars[lead].iter().copied());
        order.push(lead);
    }
    while !remaining.is_empty() {
        let (pick, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &o)| {
                // Most bound variables wins; earliest original position
                // breaks ties (remaining is in ascending original order).
                (vars[o].intersection(&bound).count(), std::cmp::Reverse(o))
            })
            .expect("remaining is non-empty");
        let o = remaining.remove(pick);
        bound.extend(vars[o].iter().copied());
        order.push(o);
    }
    order
}

/// `rule` with its positive body permuted into `order` (original
/// occurrence index per new position, as [`sip_order`] returns it).
pub fn with_body_order(rule: &Rule, order: &[usize]) -> Rule {
    let mut reordered = rule.clone();
    reordered.body = order.iter().map(|&o| rule.body[o].clone()).collect();
    reordered
}

impl RulePlan {
    /// Compile a rule.  `derived` is the set of predicates defined by rules
    /// of the program being evaluated.
    pub fn compile(rule: &Rule, rule_idx: usize, derived: &BTreeSet<PredName>) -> RulePlan {
        RulePlan::compile_inner(rule, rule_idx, derived, BTreeSet::new())
    }

    /// Compile the **head-bound** variant of a rule: the body is put in
    /// [`sip_order`] with every head variable given, and the access plans
    /// are computed as if those variables were already bound when the body
    /// starts.  This is the right plan for the head-bound join
    /// (`count_derivations_batch`): the caller matches a concrete row
    /// against the head first, so `magic(Z) :- magic(X), par(X, Z)` with
    /// `Z` given probes `par` on `Z` and then `magic` on the `X` that
    /// binds, instead of scanning `magic`.  The *number* of matches is the
    /// forward plan's — a conjunction's match set does not depend on the
    /// order its atoms are visited in; only the access paths (and body
    /// positions) differ.
    pub fn compile_head_bound(
        rule: &Rule,
        rule_idx: usize,
        derived: &BTreeSet<PredName>,
    ) -> RulePlan {
        // Successfully matching the head row binds every head variable
        // (compound patterns bind recursively; linear terms either invert
        // or fail), so the body may treat them as given.
        let given: BTreeSet<Variable> = rule.head.vars().into_iter().collect();
        let reordered = with_body_order(rule, &sip_order(rule, None, &given));
        RulePlan::compile_inner(&reordered, rule_idx, derived, given)
    }

    /// Compile `rule` in its written body order; `bound` are the variables
    /// given before the body starts.
    fn compile_inner(
        rule: &Rule,
        rule_idx: usize,
        derived: &BTreeSet<PredName>,
        mut bound: BTreeSet<Variable>,
    ) -> RulePlan {
        let mut slot_vars: Vec<Variable> = Vec::new();
        let mut slot_of = |v: Variable| -> u32 {
            match slot_vars.iter().position(|&u| u == v) {
                Some(i) => i as u32,
                None => {
                    slot_vars.push(v);
                    (slot_vars.len() - 1) as u32
                }
            }
        };
        let mut atoms = Vec::with_capacity(rule.body.len());
        let mut derived_occurrences = Vec::new();
        for (i, atom) in rule.body.iter().enumerate() {
            let mut key_positions = Vec::new();
            let mut key_terms = Vec::new();
            let mut check = Vec::new();
            for (p, term) in atom.terms.iter().enumerate() {
                let vars = term.vars();
                if vars.iter().all(|v| bound.contains(v)) {
                    key_positions.push(p);
                    key_terms.push(term.to_slots(&mut slot_of));
                } else {
                    check.push((p, term.to_slots(&mut slot_of)));
                }
            }
            // After this atom is solved, all its variables are bound.
            bound.extend(atom.vars());
            if derived.contains(&atom.pred) {
                derived_occurrences.push(i);
            }
            atoms.push(AtomPlan {
                pred: atom.pred.clone(),
                arity: atom.arity(),
                key_positions,
                key_terms,
                check,
            });
        }
        // Negated atoms compile after the whole positive body: safety
        // guarantees their variables are bound by then, so every term is
        // evaluable.  (A rule that fails the check but slips through still
        // compiles — its unbound slots stay NULL and the join reports
        // UnsafeNegation.)
        let neg_atoms = rule
            .negated
            .iter()
            .map(|atom| NegAtomPlan {
                pred: atom.pred.clone(),
                arity: atom.arity(),
                terms: atom
                    .terms
                    .iter()
                    .map(|t| t.to_slots(&mut slot_of))
                    .collect(),
            })
            .collect();
        let head_terms = rule
            .head
            .terms
            .iter()
            .map(|t| t.to_slots(&mut slot_of))
            .collect();
        let num_slots = slot_vars.len();
        RulePlan {
            rule: rule.clone(),
            rule_idx,
            head_pred: rule.head.pred.clone(),
            head_terms,
            num_slots,
            slot_vars,
            atoms,
            neg_atoms,
            derived_occurrences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::parse_rule;

    #[test]
    fn key_positions_follow_left_to_right_binding() {
        let rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).").unwrap();
        let derived: BTreeSet<PredName> = [PredName::plain("anc")].into_iter().collect();
        let plan = RulePlan::compile(&rule, 1, &derived);
        // par(X, Z): nothing bound yet, both positions are checks.
        assert!(plan.atoms[0].key_positions.is_empty());
        assert_eq!(plan.atoms[0].check.len(), 2);
        // anc(Z, Y): Z is bound by par, Y is not.
        assert_eq!(plan.atoms[1].key_positions, vec![0]);
        assert_eq!(plan.atoms[1].check.len(), 1);
        assert_eq!(plan.derived_occurrences, vec![1]);
    }

    #[test]
    fn ground_arguments_are_keys() {
        let rule = parse_rule("p(X) :- q(john, X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        assert_eq!(plan.atoms[0].key_positions, vec![0]);
        assert!(plan.derived_occurrences.is_empty());
    }

    #[test]
    fn compound_terms_partially_bound_are_checks() {
        let rule = parse_rule("p(X, Y) :- q(X), r(f(X, Y)).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        // f(X, Y): X bound by q but Y free -> not evaluable, so a check.
        assert!(plan.atoms[1].key_positions.is_empty());
        assert_eq!(plan.atoms[1].check.len(), 1);
    }

    #[test]
    fn slots_are_dense_and_shared_across_atoms() {
        let rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        // X, Z from par; Y from anc: three dense slots.
        assert_eq!(plan.num_slots, 3);
        use magic_datalog::Variable;
        assert_eq!(
            plan.slot_vars,
            vec![Variable::new("X"), Variable::new("Z"), Variable::new("Y")]
        );
        // The key of the second atom reads the slot Z was bound to (1).
        assert_eq!(plan.atoms[1].key_terms, vec![SlotTerm::Slot(1)]);
        // The head reads slots 0 and 2.
        assert_eq!(plan.head_terms, vec![SlotTerm::Slot(0), SlotTerm::Slot(2)]);
    }

    #[test]
    fn head_only_variables_get_slots() {
        // Not range-restricted: W never occurs in the body; it still gets a
        // slot (which stays unbound, surfacing the error at evaluation).
        let rule = parse_rule("p(X, W) :- q(X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        assert_eq!(plan.num_slots, 2);
        assert_eq!(plan.head_terms.len(), 2);
    }
}
