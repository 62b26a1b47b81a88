//! Horn clauses (rules), queries, and the paper's well-formedness conditions.
//!
//! Beyond the paper's positive language, rules may carry *negated* body
//! atoms (`not p(X)`) and one *aggregate* head position
//! (`total(P, sum<C>)`), evaluated under stratified semantics: a negated
//! or aggregated subgoal may only read predicates from strictly lower
//! strata (see [`crate::schedule::Schedule`]).

use crate::atom::Atom;
use crate::error::DatalogError;
use crate::pred::PredName;
use crate::term::{Term, Value, Variable};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An aggregate function: a stratum-boundary reduction over the grouped
/// matches of a rule body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// The number of distinct values of the aggregated variable per group.
    Count,
    /// The sum of the distinct integer values per group.
    Sum,
    /// The minimum integer value per group.
    Min,
    /// The maximum integer value per group.
    Max,
}

impl AggFunc {
    /// The surface-syntax keyword of the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parse a surface keyword into the function, if it is one.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate head position: `func<Var>` at `position` of the head.
/// The head atom itself keeps a plain variable term at that position (so
/// all positional machinery — plans, adornments — sees an ordinary head);
/// the aggregate is applied as a group-by reduction at the rule's stratum
/// boundary, grouping on the remaining head positions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Aggregate {
    /// The reduction applied per group.
    pub func: AggFunc,
    /// The aggregated body variable (must occur in the positive body).
    pub var: Variable,
    /// The head argument position holding the aggregate result.
    pub position: usize,
}

/// A Horn clause `head :- body`.  A rule with an empty body is a fact
/// (and, by condition (WF), must be ground).
///
/// `body` holds the *positive* atoms only; negated atoms live in
/// [`negated`](Rule::negated) so that every positive-only analysis and
/// rewrite (sips, adornment, magic rules, delta variants) keeps its exact
/// pre-negation meaning.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The positive body atoms (predicate occurrences), in textual order.
    pub body: Vec<Atom>,
    /// The negated body atoms (`not p(...)`), in textual order.  Under
    /// stratified semantics each is an anti-join against the *finished*
    /// relation of a strictly lower stratum.
    pub negated: Vec<Atom>,
    /// The aggregate head position, if any.
    pub aggregate: Option<Aggregate>,
}

impl Rule {
    /// Construct a (positive) rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule {
            head,
            body,
            negated: Vec::new(),
            aggregate: None,
        }
    }

    /// Attach negated body atoms to the rule.
    pub fn with_negated(mut self, negated: Vec<Atom>) -> Rule {
        self.negated = negated;
        self
    }

    /// Attach an aggregate head position to the rule.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Rule {
        self.aggregate = Some(aggregate);
        self
    }

    /// Construct a fact (a rule with an empty body).
    pub fn fact(head: Atom) -> Rule {
        Rule::new(head, Vec::new())
    }

    /// True iff the rule has an empty body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.negated.is_empty()
    }

    /// True iff the rule uses negation or aggregation — i.e. must be
    /// *guarded* by stratification and evaluated semi-positively.
    pub fn is_guarded(&self) -> bool {
        !self.negated.is_empty() || self.aggregate.is_some()
    }

    /// All variables of the rule, in first-occurrence order (head first,
    /// then the positive body, then the negated atoms).
    pub fn vars(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        for t in &self.head.terms {
            t.collect_vars(&mut out);
        }
        for atom in self.body.iter().chain(self.negated.iter()) {
            for t in &atom.terms {
                t.collect_vars(&mut out);
            }
        }
        out
    }

    /// The set of variables appearing in the *positive* body.  Negated
    /// atoms bind nothing: the safety condition requires their variables to
    /// already appear here.
    pub fn body_vars(&self) -> BTreeSet<Variable> {
        self.body.iter().flat_map(|a| a.vars()).collect()
    }

    /// Check condition (WF): every variable in the head also appears in the
    /// body.  (For facts this means the head must be ground.)
    pub fn check_well_formed(&self) -> Result<(), DatalogError> {
        let body_vars = self.body_vars();
        for v in self.head.vars() {
            if !body_vars.contains(&v) {
                return Err(DatalogError::NotWellFormed {
                    rule: self.to_string(),
                    variable: v.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Check condition (C): the predicate occurrences of the rule (head and
    /// body) form a single connected component under shared variables.
    ///
    /// Ground atoms (no variables) are connected to nothing, so a rule with a
    /// ground body atom and a non-empty rest fails the check — exactly the
    /// "existential subquery" case the paper factors out.
    pub fn check_connected(&self) -> Result<(), DatalogError> {
        if self.body.is_empty() {
            return Ok(());
        }
        // Union-find over atom indices 0..=body.len(), where index 0 is the
        // head and i+1 is body[i].
        let n = self.body.len() + 1;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut var_home: HashMap<Variable, usize> = HashMap::new();
        let atoms: Vec<&Atom> = std::iter::once(&self.head)
            .chain(self.body.iter())
            .collect();
        for (i, atom) in atoms.iter().enumerate() {
            for v in atom.vars() {
                match var_home.get(&v) {
                    Some(&j) => union(&mut parent, i, j),
                    None => {
                        var_home.insert(v, i);
                    }
                }
            }
        }
        let root = find(&mut parent, 0);
        for i in 1..n {
            if find(&mut parent, i) != root {
                return Err(DatalogError::NotConnected {
                    rule: self.to_string(),
                    atom: self.body[i - 1].to_string(),
                });
            }
        }
        Ok(())
    }

    /// Check the negation safety condition: every variable of a negated
    /// atom must be bound by a positive body atom (an unbound variable
    /// under complementation would range over the whole domain).  The
    /// aggregated variable, when present, must be bound positively too.
    pub fn check_negation_safe(&self) -> Result<(), DatalogError> {
        let bound = self.body_vars();
        for atom in &self.negated {
            for v in atom.vars() {
                if !bound.contains(&v) {
                    return Err(DatalogError::UnsafeNegation {
                        rule: self.to_string(),
                        variable: v.name().to_string(),
                        predicate: atom.pred.to_string(),
                    });
                }
            }
        }
        if let Some(agg) = &self.aggregate {
            if !bound.contains(&agg.var) {
                return Err(DatalogError::UnsafeNegation {
                    rule: self.to_string(),
                    variable: agg.var.name().to_string(),
                    predicate: self.head.pred.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The set of predicate names occurring in the negated body atoms.
    pub fn negated_preds(&self) -> BTreeSet<PredName> {
        self.negated.iter().map(|a| a.pred.clone()).collect()
    }

    /// All predicate names the rule reads: positive and negated.
    pub fn all_body_preds(&self) -> BTreeSet<PredName> {
        self.body
            .iter()
            .chain(self.negated.iter())
            .map(|a| a.pred.clone())
            .collect()
    }

    /// Rename every variable of the rule using `f`.
    pub fn rename_vars(&self, f: &mut impl FnMut(Variable) -> Variable) -> Rule {
        Rule {
            head: self.head.rename_vars(f),
            body: self.body.iter().map(|a| a.rename_vars(f)).collect(),
            negated: self.negated.iter().map(|a| a.rename_vars(f)).collect(),
            aggregate: self.aggregate.as_ref().map(|agg| Aggregate {
                func: agg.func,
                var: f(agg.var),
                position: agg.position,
            }),
        }
    }

    /// Rename the rule's variables apart by appending a suffix — used when a
    /// rule is instantiated several times in one derivation context.
    pub fn standardize_apart(&self, suffix: usize) -> Rule {
        self.rename_vars(&mut |v| Variable::new(&format!("{}__{}", v.name(), suffix)))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The head, with the aggregate position printed as `func<Var>`.
        match &self.aggregate {
            None => write!(f, "{}", self.head)?,
            Some(agg) => {
                write!(f, "{}(", self.head.pred)?;
                for (i, term) in self.head.terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if i == agg.position {
                        write!(f, "{}<{}>", agg.func, agg.var.name())?;
                    } else {
                        write!(f, "{term}")?;
                    }
                }
                write!(f, ")")?;
            }
        }
        // Negated atoms print after the positive body (parsing accepts them
        // anywhere; printing normalizes them to the end).
        if !self.body.is_empty() || !self.negated.is_empty() {
            write!(f, " :- ")?;
            let mut first = true;
            for atom in &self.body {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{atom}")?;
            }
            for atom in &self.negated {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "not {atom}")?;
            }
        }
        write!(f, ".")
    }
}

/// A query: a single predicate occurrence with some argument positions bound
/// to constants (Section 1.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// The query atom, e.g. `anc(john, Y)`.
    pub atom: Atom,
}

impl Query {
    /// Construct a query from its atom.
    pub fn new(atom: Atom) -> Query {
        Query { atom }
    }

    /// Construct a query over a plain predicate.
    pub fn plain(name: &str, terms: Vec<Term>) -> Query {
        Query {
            atom: Atom::plain(name, terms),
        }
    }

    /// The query predicate.
    pub fn pred(&self) -> &PredName {
        &self.atom.pred
    }

    /// The adornment determined by the query: positions holding ground terms
    /// are bound, positions holding terms with variables are free.
    pub fn adornment(&self) -> crate::adornment::Adornment {
        self.atom.adornment_under(&BTreeSet::new())
    }

    /// The ground values in the bound positions of the query, in order.
    /// These form the magic / counting seed (Section 4, step 4).
    pub fn bound_values(&self) -> Vec<Value> {
        self.atom
            .terms
            .iter()
            .filter(|t| t.is_ground())
            .map(|t| t.to_value().expect("ground term"))
            .collect()
    }

    /// The variables in the free positions of the query, in order.
    pub fn free_vars(&self) -> Vec<Variable> {
        self.atom.vars()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- {}.", self.atom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anc_rule() -> Rule {
        // anc(X, Y) :- par(X, Z), anc(Z, Y).
        Rule::new(
            Atom::plain("anc", vec![Term::var("X"), Term::var("Y")]),
            vec![
                Atom::plain("par", vec![Term::var("X"), Term::var("Z")]),
                Atom::plain("anc", vec![Term::var("Z"), Term::var("Y")]),
            ],
        )
    }

    #[test]
    fn display() {
        assert_eq!(anc_rule().to_string(), "anc(X, Y) :- par(X, Z), anc(Z, Y).");
        let f = Rule::fact(Atom::plain("par", vec![Term::sym("a"), Term::sym("b")]));
        assert_eq!(f.to_string(), "par(a, b).");
    }

    #[test]
    fn well_formedness() {
        assert!(anc_rule().check_well_formed().is_ok());
        let bad = Rule::new(
            Atom::plain("p", vec![Term::var("X"), Term::var("Y")]),
            vec![Atom::plain("q", vec![Term::var("X")])],
        );
        assert!(bad.check_well_formed().is_err());
        // A fact with variables violates WF.
        let bad_fact = Rule::fact(Atom::plain("p", vec![Term::var("X")]));
        assert!(bad_fact.check_well_formed().is_err());
    }

    #[test]
    fn connectivity() {
        assert!(anc_rule().check_connected().is_ok());
        // p(X) :- q(X), r(Y).  r(Y) is a disconnected existential subquery.
        let bad = Rule::new(
            Atom::plain("p", vec![Term::var("X")]),
            vec![
                Atom::plain("q", vec![Term::var("X")]),
                Atom::plain("r", vec![Term::var("Y")]),
            ],
        );
        assert!(bad.check_connected().is_err());
        // Connection through a chain of variables is allowed.
        let chained = Rule::new(
            Atom::plain("p", vec![Term::var("X")]),
            vec![
                Atom::plain("q", vec![Term::var("X"), Term::var("Y")]),
                Atom::plain("r", vec![Term::var("Y"), Term::var("Z")]),
                Atom::plain("s", vec![Term::var("Z")]),
            ],
        );
        assert!(chained.check_connected().is_ok());
    }

    #[test]
    fn vars_order() {
        let vars = anc_rule().vars();
        assert_eq!(
            vars,
            vec![Variable::new("X"), Variable::new("Y"), Variable::new("Z")]
        );
    }

    #[test]
    fn query_adornment_and_seed() {
        let q = Query::plain("anc", vec![Term::sym("john"), Term::var("Y")]);
        assert_eq!(q.adornment().to_string(), "bf");
        assert_eq!(q.bound_values(), vec![Value::sym("john")]);
        assert_eq!(q.free_vars(), vec![Variable::new("Y")]);
        assert_eq!(q.to_string(), "?- anc(john, Y).");
    }

    #[test]
    fn negated_display_and_safety() {
        // stuck(X) :- pos(X), not can_move(X).
        let rule = Rule::new(
            Atom::plain("stuck", vec![Term::var("X")]),
            vec![Atom::plain("pos", vec![Term::var("X")])],
        )
        .with_negated(vec![Atom::plain("can_move", vec![Term::var("X")])]);
        assert_eq!(rule.to_string(), "stuck(X) :- pos(X), not can_move(X).");
        assert!(rule.is_guarded());
        assert!(!rule.is_fact());
        rule.check_negation_safe().unwrap();
        assert!(rule.negated_preds().contains(&PredName::plain("can_move")));
        assert!(rule.all_body_preds().contains(&PredName::plain("pos")));

        // bad(X) :- p(X), not q(Y): Y is not positively bound.
        let bad = Rule::new(
            Atom::plain("bad", vec![Term::var("X")]),
            vec![Atom::plain("p", vec![Term::var("X")])],
        )
        .with_negated(vec![Atom::plain("q", vec![Term::var("Y")])]);
        let err = bad.check_negation_safe().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('Y') && msg.contains('q'), "{msg}");
    }

    #[test]
    fn aggregate_display_and_rename() {
        // total(P, sum<C>) :- part(P, S, N), cost(S, C).
        let rule = Rule::new(
            Atom::plain("total", vec![Term::var("P"), Term::var("C")]),
            vec![
                Atom::plain("part", vec![Term::var("P"), Term::var("S"), Term::var("N")]),
                Atom::plain("cost", vec![Term::var("S"), Term::var("C")]),
            ],
        )
        .with_aggregate(Aggregate {
            func: AggFunc::Sum,
            var: Variable::new("C"),
            position: 1,
        });
        assert_eq!(
            rule.to_string(),
            "total(P, sum<C>) :- part(P, S, N), cost(S, C)."
        );
        rule.check_negation_safe().unwrap();
        let renamed = rule.standardize_apart(3);
        assert_eq!(
            renamed.aggregate.as_ref().unwrap().var,
            Variable::new("C__3")
        );
        assert_eq!(AggFunc::from_name("min"), Some(AggFunc::Min));
        assert_eq!(AggFunc::from_name("avg"), None);
    }

    #[test]
    fn standardize_apart_renames_consistently() {
        let r = anc_rule().standardize_apart(7);
        assert_eq!(
            r.to_string(),
            "anc(X__7, Y__7) :- par(X__7, Z__7), anc(Z__7, Y__7)."
        );
    }
}
