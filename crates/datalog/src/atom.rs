//! Atoms (predicate occurrences) and ground facts.

use crate::adornment::{Adornment, Binding};
use crate::pred::PredName;
use crate::term::{Bindings, Term, Value, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A predicate occurrence: a predicate name applied to a list of terms.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate.
    pub pred: PredName,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: PredName, terms: Vec<Term>) -> Atom {
        Atom { pred, terms }
    }

    /// Construct an atom over a plain predicate name.
    pub fn plain(name: &str, terms: Vec<Term>) -> Atom {
        Atom::new(PredName::plain(name), terms)
    }

    /// The number of arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The variables of the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        for t in &self.terms {
            t.collect_vars(&mut out);
        }
        out
    }

    /// The variables of the atom as a set.
    pub fn var_set(&self) -> BTreeSet<Variable> {
        self.vars().into_iter().collect()
    }

    /// True iff the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_ground)
    }

    /// Convert a ground atom into a fact.
    pub fn to_fact(&self) -> Option<Fact> {
        let values: Option<Vec<Value>> = self.terms.iter().map(Term::to_value).collect();
        Some(Fact {
            pred: self.pred.clone(),
            values: values?,
        })
    }

    /// Evaluate the atom to a fact under a binding environment; `None` if any
    /// argument is not ground under the bindings.
    pub fn eval(&self, bindings: &Bindings) -> Option<Fact> {
        let values: Option<Vec<Value>> = self.terms.iter().map(|t| t.eval(bindings)).collect();
        Some(Fact {
            pred: self.pred.clone(),
            values: values?,
        })
    }

    /// Apply a binding environment to the argument terms.
    pub fn apply(&self, bindings: &Bindings) -> Atom {
        Atom {
            pred: self.pred.clone(),
            terms: self.terms.iter().map(|t| t.apply(bindings)).collect(),
        }
    }

    /// Match the atom's arguments against a row of ground values, extending
    /// `bindings`.  The caller must ensure the row has the atom's arity.
    pub fn match_row(&self, row: &[Value], bindings: &mut Bindings) -> bool {
        debug_assert_eq!(row.len(), self.arity());
        self.terms
            .iter()
            .zip(row.iter())
            .all(|(t, v)| t.match_value(v, bindings))
    }

    /// The adornment induced on this atom by a set of bound variables: an
    /// argument is bound iff *all* of its variables are in `bound_vars`
    /// (ground arguments are always bound).  This is the rule of Section 3.
    pub fn adornment_under(&self, bound_vars: &BTreeSet<Variable>) -> Adornment {
        Adornment::new(
            self.terms
                .iter()
                .map(|t| {
                    if t.vars().iter().all(|v| bound_vars.contains(v)) {
                        Binding::Bound
                    } else {
                        Binding::Free
                    }
                })
                .collect(),
        )
    }

    /// The argument terms at the positions bound by `adornment`.
    pub fn bound_terms(&self, adornment: &Adornment) -> Vec<Term> {
        adornment
            .bound_positions()
            .into_iter()
            .map(|i| self.terms[i].clone())
            .collect()
    }

    /// The argument terms at the positions free in `adornment`.
    pub fn free_terms(&self, adornment: &Adornment) -> Vec<Term> {
        adornment
            .free_positions()
            .into_iter()
            .map(|i| self.terms[i].clone())
            .collect()
    }

    /// Rename every variable using `f`.
    pub fn rename_vars(&self, f: &mut impl FnMut(Variable) -> Variable) -> Atom {
        Atom {
            pred: self.pred.clone(),
            terms: self.terms.iter().map(|t| t.rename_vars(f)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A ground fact: a predicate name applied to ground values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// The predicate.
    pub pred: PredName,
    /// The ground argument values.
    pub values: Vec<Value>,
}

impl Fact {
    /// Construct a fact.
    pub fn new(pred: PredName, values: Vec<Value>) -> Fact {
        Fact { pred, values }
    }

    /// Construct a fact over a plain predicate name.
    pub fn plain(name: &str, values: Vec<Value>) -> Fact {
        Fact::new(PredName::plain(name), values)
    }

    /// The arity of the fact.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// View the fact as an atom with ground terms.
    pub fn to_atom(&self) -> Atom {
        Atom {
            pred: self.pred.clone(),
            terms: self.values.iter().map(Value::to_term).collect(),
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_atom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(s: &str, terms: Vec<Term>) -> Atom {
        Atom::plain(s, terms)
    }

    #[test]
    fn vars_and_groundness() {
        let a = atom("p", vec![Term::var("X"), Term::sym("c"), Term::var("Y")]);
        assert_eq!(a.vars(), vec![Variable::new("X"), Variable::new("Y")]);
        assert!(!a.is_ground());
        let g = atom("p", vec![Term::sym("a"), Term::int(1)]);
        assert!(g.is_ground());
        assert_eq!(
            g.to_fact().unwrap(),
            Fact::plain("p", vec![Value::sym("a"), Value::int(1)])
        );
    }

    #[test]
    fn eval_under_bindings() {
        let a = atom("p", vec![Term::var("X"), Term::var("Y")]);
        let mut b = Bindings::new();
        b.insert(Variable::new("X"), Value::sym("a"));
        assert!(a.eval(&b).is_none());
        b.insert(Variable::new("Y"), Value::sym("b"));
        let fact = a.eval(&b).unwrap();
        assert_eq!(fact.values, vec![Value::sym("a"), Value::sym("b")]);
    }

    #[test]
    fn match_row_consistency() {
        let a = atom("p", vec![Term::var("X"), Term::var("X")]);
        let mut b = Bindings::new();
        assert!(a.match_row(&[Value::sym("a"), Value::sym("a")], &mut b));
        let mut b2 = Bindings::new();
        assert!(!a.match_row(&[Value::sym("a"), Value::sym("b")], &mut b2));
    }

    #[test]
    fn adornment_under_bound_vars() {
        // p(X, f(X, Z), W) with X bound: first arg bound, second free (Z
        // unbound), third free.  This is the example from Section 3.
        let a = atom(
            "p",
            vec![
                Term::var("X"),
                Term::app("f", vec![Term::var("X"), Term::var("Z")]),
                Term::var("W"),
            ],
        );
        let bound: BTreeSet<Variable> = [Variable::new("X")].into_iter().collect();
        assert_eq!(a.adornment_under(&bound).to_string(), "bff");
        // Ground arguments count as bound.
        let g = atom("q", vec![Term::sym("john"), Term::var("Y")]);
        assert_eq!(g.adornment_under(&BTreeSet::new()).to_string(), "bf");
    }

    #[test]
    fn bound_and_free_terms() {
        let a = atom("p", vec![Term::var("X"), Term::var("Y"), Term::var("Z")]);
        let ad: Adornment = "bfb".parse().unwrap();
        assert_eq!(a.bound_terms(&ad), vec![Term::var("X"), Term::var("Z")]);
        assert_eq!(a.free_terms(&ad), vec![Term::var("Y")]);
    }

    #[test]
    fn display() {
        let a = atom("anc", vec![Term::sym("john"), Term::var("Y")]);
        assert_eq!(a.to_string(), "anc(john, Y)");
        let f = Fact::plain("par", vec![Value::sym("a"), Value::sym("b")]);
        assert_eq!(f.to_string(), "par(a, b)");
    }
}
