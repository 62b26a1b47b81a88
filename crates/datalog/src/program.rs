//! Programs: finite sets of rules, with the validations and catalog queries
//! the rewrites rely on.

use crate::atom::Fact;
use crate::error::DatalogError;
use crate::pred::PredName;
use crate::rule::{Query, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A program: a finite, ordered set of rules.
///
/// Following Section 1.1, facts are kept out of the program and live in the
/// database; [`Program::separate_facts`] performs this split for programs
/// written with embedded facts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The rules, in order.  Rule indices are meaningful: the counting
    /// rewrites encode them in derivation indices.
    pub rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program { rules: Vec::new() }
    }

    /// A program from a list of rules.
    pub fn from_rules(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The set of *derived* predicates: those that appear as the head of some
    /// non-fact rule.
    pub fn derived_preds(&self) -> BTreeSet<PredName> {
        self.rules
            .iter()
            .filter(|r| !r.is_fact())
            .map(|r| r.head.pred.clone())
            .collect()
    }

    /// The set of *base* predicates: those that appear in rule bodies
    /// (positively or under `not`) but are never the head of a (non-fact)
    /// rule.
    pub fn base_preds(&self) -> BTreeSet<PredName> {
        let derived = self.derived_preds();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter().chain(r.negated.iter()))
            .map(|a| a.pred.clone())
            .filter(|p| !derived.contains(p))
            .collect()
    }

    /// True iff `pred` is derived in this program.
    pub fn is_derived(&self, pred: &PredName) -> bool {
        self.rules
            .iter()
            .any(|r| !r.is_fact() && &r.head.pred == pred)
    }

    /// All predicates mentioned by the program, with their arities.
    pub fn predicate_arities(&self) -> Result<BTreeMap<PredName, usize>, DatalogError> {
        let mut arities: BTreeMap<PredName, usize> = BTreeMap::new();
        let mut record = |pred: &PredName, arity: usize| -> Result<(), DatalogError> {
            match arities.get(pred) {
                Some(&existing) if existing != arity => Err(DatalogError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected: existing,
                    found: arity,
                }),
                _ => {
                    arities.insert(pred.clone(), arity);
                    Ok(())
                }
            }
        };
        for rule in &self.rules {
            record(&rule.head.pred, rule.head.arity())?;
            for atom in rule.body.iter().chain(rule.negated.iter()) {
                record(&atom.pred, atom.arity())?;
            }
        }
        Ok(arities)
    }

    /// The rules whose head predicate is `pred`, with their indices.
    pub fn rules_for(&self, pred: &PredName) -> Vec<(usize, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| &r.head.pred == pred)
            .collect()
    }

    /// Split embedded ground facts out of the program, returning the residual
    /// program (rules only) and the extracted facts.
    pub fn separate_facts(&self) -> (Program, Vec<Fact>) {
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        for rule in &self.rules {
            if rule.is_fact() {
                if let Some(f) = rule.head.to_fact() {
                    facts.push(f);
                    continue;
                }
            }
            rules.push(rule.clone());
        }
        (Program { rules }, facts)
    }

    /// Validate the program: every rule satisfies (WF) and (C), arities are
    /// consistent, negated/aggregated variables are positively bound, and
    /// aggregate heads are structurally sound (a single defining rule, no
    /// mixing with plain derivations, the aggregated variable confined to
    /// its head position).
    pub fn validate(&self) -> Result<(), DatalogError> {
        self.predicate_arities()?;
        for rule in &self.rules {
            rule.check_well_formed()?;
            rule.check_connected()?;
            rule.check_negation_safe()?;
        }
        self.check_aggregate_heads()
    }

    /// Structural checks on aggregate rules: an aggregate head predicate
    /// must have exactly one defining rule (two reductions over the same
    /// head, or a mix of aggregate and plain derivations, has no single
    /// group-by meaning), and the aggregated variable may not occur in any
    /// other head position (it is consumed by the fold, not grouped on).
    fn check_aggregate_heads(&self) -> Result<(), DatalogError> {
        for rule in &self.rules {
            let Some(agg) = &rule.aggregate else { continue };
            let defining = self
                .rules
                .iter()
                .filter(|r| r.head.pred == rule.head.pred)
                .count();
            if defining > 1 {
                return Err(DatalogError::MalformedAggregate {
                    rule: rule.to_string(),
                    message: format!(
                        "aggregate head {} must have exactly one defining rule, found {defining}",
                        rule.head.pred
                    ),
                });
            }
            let elsewhere = rule
                .head
                .terms
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != agg.position)
                .any(|(_, t)| t.vars().contains(&agg.var));
            if elsewhere {
                return Err(DatalogError::MalformedAggregate {
                    rule: rule.to_string(),
                    message: format!(
                        "aggregated variable {} also occurs in a group-by head position",
                        agg.var.name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validate a program/query pair: the program validates and the query
    /// predicate is defined (derived) or at least used by the program.
    pub fn validate_with_query(&self, query: &Query) -> Result<(), DatalogError> {
        self.validate()?;
        let pred = query.pred();
        let known = self.is_derived(pred) || self.base_preds().contains(pred);
        if !known {
            return Err(DatalogError::UnknownQueryPredicate {
                predicate: pred.to_string(),
            });
        }
        Ok(())
    }

    /// True iff the program is Datalog: no function symbols in any rule.
    pub fn is_datalog(&self) -> bool {
        use crate::term::Term;
        fn term_is_flat(t: &Term) -> bool {
            !matches!(t, Term::App(_, _))
        }
        self.rules.iter().all(|r| {
            r.head.terms.iter().all(term_is_flat)
                && r.body
                    .iter()
                    .chain(r.negated.iter())
                    .all(|a| a.terms.iter().all(term_is_flat))
        })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn ancestor_program() -> Program {
        Program::from_rules(vec![
            Rule::new(
                Atom::plain("anc", vec![Term::var("X"), Term::var("Y")]),
                vec![Atom::plain("par", vec![Term::var("X"), Term::var("Y")])],
            ),
            Rule::new(
                Atom::plain("anc", vec![Term::var("X"), Term::var("Y")]),
                vec![
                    Atom::plain("par", vec![Term::var("X"), Term::var("Z")]),
                    Atom::plain("anc", vec![Term::var("Z"), Term::var("Y")]),
                ],
            ),
        ])
    }

    #[test]
    fn base_and_derived() {
        let p = ancestor_program();
        assert!(p.is_derived(&PredName::plain("anc")));
        assert!(!p.is_derived(&PredName::plain("par")));
        assert_eq!(p.derived_preds().len(), 1);
        assert_eq!(p.base_preds().len(), 1);
        assert!(p.base_preds().contains(&PredName::plain("par")));
    }

    #[test]
    fn arities_consistent() {
        let p = ancestor_program();
        let arities = p.predicate_arities().unwrap();
        assert_eq!(arities[&PredName::plain("anc")], 2);
        assert_eq!(arities[&PredName::plain("par")], 2);

        let mut bad = ancestor_program();
        bad.push(Rule::new(
            Atom::plain("anc", vec![Term::var("X")]),
            vec![Atom::plain("par", vec![Term::var("X"), Term::var("X")])],
        ));
        assert!(bad.predicate_arities().is_err());
    }

    #[test]
    fn validation() {
        assert!(ancestor_program().validate().is_ok());
        let q = Query::plain("anc", vec![Term::sym("john"), Term::var("Y")]);
        assert!(ancestor_program().validate_with_query(&q).is_ok());
        let bad_q = Query::plain("nonexistent", vec![Term::var("Y")]);
        assert!(ancestor_program().validate_with_query(&bad_q).is_err());
    }

    #[test]
    fn separate_facts() {
        let mut p = ancestor_program();
        p.push(Rule::fact(Atom::plain(
            "par",
            vec![Term::sym("a"), Term::sym("b")],
        )));
        let (rules_only, facts) = p.separate_facts();
        assert_eq!(rules_only.len(), 2);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].pred, PredName::plain("par"));
    }

    #[test]
    fn datalog_detection() {
        assert!(ancestor_program().is_datalog());
        let mut with_fn = ancestor_program();
        with_fn.push(Rule::new(
            Atom::plain("wrap", vec![Term::app("f", vec![Term::var("X")])]),
            vec![Atom::plain("par", vec![Term::var("X"), Term::var("X")])],
        ));
        assert!(!with_fn.is_datalog());
    }

    #[test]
    fn rules_for_returns_indices() {
        let p = ancestor_program();
        let rules = p.rules_for(&PredName::plain("anc"));
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].0, 0);
        assert_eq!(rules[1].0, 1);
    }

    #[test]
    fn display_round_trip_shape() {
        let p = ancestor_program();
        let text = p.to_string();
        assert!(text.contains("anc(X, Y) :- par(X, Y)."));
        assert!(text.contains("anc(X, Y) :- par(X, Z), anc(Z, Y)."));
    }
}
