//! Terms, ground values, bindings, matching and unification.
//!
//! A term is a variable, a constant (symbolic or integer), a function symbol
//! applied to terms, or — in programs produced by the *counting* rewrites —
//! a linear index expression `var * mul + add` (see Section 6 of the paper).
//!
//! Ground terms are represented separately as [`Value`]s so that relations
//! store compact, hash-friendly rows.

use crate::symbol::{Constant, Symbol};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// The reserved functor used for list cells (`[H|T]` is `cons(H, T)`).
pub const LIST_CONS: &str = "cons";
/// The reserved constant used for the empty list `[]`.
pub const LIST_NIL: &str = "nil";

/// A logic variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub Symbol);

impl Variable {
    /// Create a variable from its name.
    pub fn new(name: &str) -> Variable {
        Variable(Symbol::new(name))
    }

    /// The variable's name.
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Variable({})", self.name())
    }
}

/// A linear index expression `var * mul + add`.
///
/// The generalized counting and supplementary counting rewrites (Sections 6
/// and 7) attach three index arguments to derived predicates and manipulate
/// them with expressions of this shape (`I + 1`, `K × m + i`, `H × t + j`).
/// The engine evaluates such an expression forwards when `var` is bound, and
/// inverts it (with a divisibility check) when matching against a known
/// integer value — which is required after the Lemma 8.1 deletions remove the
/// literal that would otherwise have bound `var`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinearExpr {
    /// The variable the expression is linear in.
    pub var: Variable,
    /// Multiplier (must be non-zero).
    pub mul: i64,
    /// Additive constant.
    pub add: i64,
}

impl LinearExpr {
    /// Evaluate the expression given a value for `var`.
    ///
    /// The arithmetic saturates: the counting rewrites multiply the
    /// rule-sequence index by the number of rules at every derivation level,
    /// so a divergent run (Section 10) would otherwise overflow `i64` after
    /// ~60 levels.  Saturation keeps evaluation panic-free; the engine's
    /// resource limits are the intended way to surface such divergence.
    pub fn eval(&self, v: i64) -> i64 {
        LinearExpr::eval_parts(self.mul, self.add, v)
    }

    /// Invert the expression: find `x` with `x * mul + add == value`,
    /// if such an integer exists.
    pub fn invert(&self, value: i64) -> Option<i64> {
        LinearExpr::invert_parts(self.mul, self.add, value)
    }

    /// [`LinearExpr::eval`] without a variable: `v * mul + add`, saturating.
    /// Used by the slot-compiled form, which stores only the coefficients.
    pub fn eval_parts(mul: i64, add: i64, v: i64) -> i64 {
        v.saturating_mul(mul).saturating_add(add)
    }

    /// [`LinearExpr::invert`] without a variable: find `x` with
    /// `x * mul + add == value`, if such an integer exists.
    ///
    /// Checked arithmetic throughout: `eval_parts` saturates, so values
    /// near `i64::MAX`/`i64::MIN` do occur (divergent counting runs,
    /// Section 10), and an inversion that would overflow has no exact
    /// integer preimage — it answers `None` rather than wrapping.
    pub fn invert_parts(mul: i64, add: i64, value: i64) -> Option<i64> {
        let num = value.checked_sub(add)?;
        if mul == 0 {
            return if num == 0 { Some(0) } else { None };
        }
        // checked_rem/checked_div also reject i64::MIN / -1 overflow.
        if num.checked_rem(mul)? != 0 {
            return None;
        }
        num.checked_div(mul)
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mul, self.add) {
            (1, 0) => write!(f, "{}", self.var),
            (1, a) if a >= 0 => write!(f, "{}+{}", self.var, a),
            (1, a) => write!(f, "{}-{}", self.var, -a),
            (m, 0) => write!(f, "{}*{}", self.var, m),
            (m, a) if a >= 0 => write!(f, "{}*{}+{}", self.var, m, a),
            (m, a) => write!(f, "{}*{}-{}", self.var, m, -a),
        }
    }
}

/// A term: the arguments of atoms in rules and queries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable.
    Var(Variable),
    /// An integer constant.
    Int(i64),
    /// A symbolic constant.
    Sym(Symbol),
    /// A function symbol applied to argument terms, e.g. `cons(H, T)`.
    App(Symbol, Vec<Term>),
    /// A linear index expression (counting rewrites only).
    Linear(LinearExpr),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Variable::new(name))
    }

    /// Convenience constructor for a symbolic constant.
    pub fn sym(name: &str) -> Term {
        Term::Sym(Symbol::new(name))
    }

    /// Convenience constructor for an integer constant.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Convenience constructor for a compound term.
    pub fn app(functor: &str, args: Vec<Term>) -> Term {
        Term::App(Symbol::new(functor), args)
    }

    /// The empty-list constant `[]`.
    pub fn nil() -> Term {
        Term::sym(LIST_NIL)
    }

    /// A list cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::app(LIST_CONS, vec![head, tail])
    }

    /// A proper list `[t0, t1, ...]` built from `items`, ending in `tail`
    /// (use [`Term::nil`] for a proper list).
    pub fn list(items: Vec<Term>, tail: Term) -> Term {
        items
            .into_iter()
            .rev()
            .fold(tail, |acc, item| Term::cons(item, acc))
    }

    /// A linear index expression `var * mul + add`.
    pub fn linear(var: Variable, mul: i64, add: i64) -> Term {
        if mul == 1 && add == 0 {
            Term::Var(var)
        } else {
            Term::Linear(LinearExpr { var, mul, add })
        }
    }

    /// Collect the variables of this term into `out`, in first-occurrence
    /// order (duplicates skipped).
    pub fn collect_vars(&self, out: &mut Vec<Variable>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Linear(l) => {
                if !out.contains(&l.var) {
                    out.push(l.var);
                }
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::Int(_) | Term::Sym(_) => {}
        }
    }

    /// The set of variables of this term.
    pub fn vars(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// The set of variables as a `BTreeSet`.
    pub fn var_set(&self) -> BTreeSet<Variable> {
        self.vars().into_iter().collect()
    }

    /// True iff the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) | Term::Linear(_) => false,
            Term::Int(_) | Term::Sym(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Convert a ground term to a [`Value`]; `None` if the term is not ground.
    pub fn to_value(&self) -> Option<Value> {
        match self {
            Term::Var(_) | Term::Linear(_) => None,
            Term::Int(i) => Some(Value::Int(*i)),
            Term::Sym(s) => Some(Value::Sym(*s)),
            Term::App(f, args) => {
                let vals: Option<Vec<Value>> = args.iter().map(Term::to_value).collect();
                Some(Value::app(*f, vals?))
            }
        }
    }

    /// Apply a (ground) binding environment, producing a term in which bound
    /// variables are replaced by their values.  Unbound variables remain.
    pub fn apply(&self, bindings: &Bindings) -> Term {
        match self {
            Term::Var(v) => match bindings.get(v) {
                Some(val) => val.to_term(),
                None => self.clone(),
            },
            Term::Linear(l) => match bindings.get(&l.var) {
                Some(Value::Int(i)) => Term::Int(l.eval(*i)),
                _ => self.clone(),
            },
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| a.apply(bindings)).collect()),
            Term::Int(_) | Term::Sym(_) => self.clone(),
        }
    }

    /// Evaluate the term to a ground [`Value`] under `bindings`.
    ///
    /// Returns `None` if any variable of the term is unbound (or a linear
    /// expression is applied to a non-integer value).
    pub fn eval(&self, bindings: &Bindings) -> Option<Value> {
        match self {
            Term::Var(v) => bindings.get(v).cloned(),
            Term::Int(i) => Some(Value::Int(*i)),
            Term::Sym(s) => Some(Value::Sym(*s)),
            Term::Linear(l) => match bindings.get(&l.var) {
                Some(Value::Int(i)) => Some(Value::Int(l.eval(*i))),
                _ => None,
            },
            Term::App(f, args) => {
                let vals: Option<Vec<Value>> = args.iter().map(|a| a.eval(bindings)).collect();
                Some(Value::app(*f, vals?))
            }
        }
    }

    /// Match this term against a ground value, extending `bindings`.
    ///
    /// This is one-way unification: the value is ground, the term may contain
    /// variables.  On success the bindings are extended (consistently with
    /// any existing bindings) and `true` is returned; on failure `bindings`
    /// may contain partial additions and should be discarded by the caller
    /// (the engine clones environments per candidate tuple).
    pub fn match_value(&self, value: &Value, bindings: &mut Bindings) -> bool {
        match self {
            Term::Var(v) => match bindings.get(v) {
                Some(existing) => existing == value,
                None => {
                    bindings.insert(*v, value.clone());
                    true
                }
            },
            Term::Int(i) => matches!(value, Value::Int(j) if i == j),
            Term::Sym(s) => matches!(value, Value::Sym(t) if s == t),
            Term::Linear(l) => match value {
                Value::Int(observed) => match bindings.get(&l.var) {
                    Some(Value::Int(bound)) => l.eval(*bound) == *observed,
                    Some(_) => false,
                    None => match l.invert(*observed) {
                        Some(x) => {
                            bindings.insert(l.var, Value::Int(x));
                            true
                        }
                        None => false,
                    },
                },
                _ => false,
            },
            Term::App(f, args) => match value {
                Value::App(cell) => {
                    let (vf, vargs) = (&cell.0, &cell.1);
                    if vf != f || vargs.len() != args.len() {
                        return false;
                    }
                    args.iter()
                        .zip(vargs.iter())
                        .all(|(t, v)| t.match_value(v, bindings))
                }
                _ => false,
            },
        }
    }

    /// Rename every variable `v` to `f(v)`.
    pub fn rename_vars(&self, f: &mut impl FnMut(Variable) -> Variable) -> Term {
        match self {
            Term::Var(v) => Term::Var(f(*v)),
            Term::Linear(l) => Term::Linear(LinearExpr {
                var: f(l.var),
                mul: l.mul,
                add: l.add,
            }),
            Term::App(functor, args) => {
                Term::App(*functor, args.iter().map(|a| a.rename_vars(f)).collect())
            }
            Term::Int(_) | Term::Sym(_) => self.clone(),
        }
    }

    /// The maximum function-symbol nesting depth of the term (constants and
    /// variables have depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// The *symbolic length* of the term per Section 10 of the paper:
    /// `|t| = 1` for a constant, `|f(t1..tn)| = 1 + Σ|ti|`, and variables
    /// contribute their (unknown, ≥ 1) lengths symbolically.
    pub fn symbolic_length(&self) -> SymbolicLength {
        match self {
            Term::Var(v) => SymbolicLength::var(*v),
            Term::Linear(l) => SymbolicLength::var(l.var),
            Term::Int(_) | Term::Sym(_) => SymbolicLength::constant(1),
            Term::App(_, args) => {
                let mut total = SymbolicLength::constant(1);
                for a in args {
                    total = total.plus(&a.symbolic_length());
                }
                total
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::Sym(s) if s.as_str() == LIST_NIL => write!(f, "[]"),
            Term::Sym(s) => write!(f, "{}", Constant(*s)),
            Term::Linear(l) => write!(f, "{l}"),
            Term::App(functor, args) => {
                if functor.as_str() == LIST_CONS && args.len() == 2 {
                    return fmt_list_term(f, &args[0], &args[1]);
                }
                write!(f, "{}(", Constant(*functor))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn fmt_list_term(f: &mut fmt::Formatter<'_>, head: &Term, tail: &Term) -> fmt::Result {
    write!(f, "[{head}")?;
    let mut current = tail;
    loop {
        match current {
            Term::Sym(s) if s.as_str() == LIST_NIL => break,
            Term::App(functor, args) if functor.as_str() == LIST_CONS && args.len() == 2 => {
                write!(f, ", {}", args[0])?;
                current = &args[1];
            }
            other => {
                write!(f, " | {other}")?;
                break;
            }
        }
    }
    write!(f, "]")
}

/// A symbolic term length: an integer constant plus a multiset of variable
/// lengths (each unknown but ≥ 1).  Used by the safety analysis
/// (Theorem 10.1) to bound binding-graph arc lengths.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymbolicLength {
    /// The constant part of the length.
    pub constant: i64,
    /// Multiplicity of each variable's (unknown) length.
    pub vars: BTreeMap<Variable, i64>,
}

impl SymbolicLength {
    /// A purely constant length.
    pub fn constant(c: i64) -> SymbolicLength {
        SymbolicLength {
            constant: c,
            vars: BTreeMap::new(),
        }
    }

    /// The length of a single variable occurrence.
    pub fn var(v: Variable) -> SymbolicLength {
        let mut vars = BTreeMap::new();
        vars.insert(v, 1);
        SymbolicLength { constant: 0, vars }
    }

    /// Sum of two symbolic lengths.
    pub fn plus(&self, other: &SymbolicLength) -> SymbolicLength {
        let mut vars = self.vars.clone();
        for (v, m) in &other.vars {
            *vars.entry(*v).or_insert(0) += m;
        }
        SymbolicLength {
            constant: self.constant + other.constant,
            vars,
        }
    }

    /// Difference `self - other`.
    pub fn minus(&self, other: &SymbolicLength) -> SymbolicLength {
        let mut vars = self.vars.clone();
        for (v, m) in &other.vars {
            *vars.entry(*v).or_insert(0) -= m;
        }
        vars.retain(|_, m| *m != 0);
        SymbolicLength {
            constant: self.constant - other.constant,
            vars,
        }
    }

    /// A conservative lower bound of the length, assuming each variable's
    /// length is at least 1 (positive coefficients contribute their
    /// coefficient, negative coefficients are unbounded below and make the
    /// result `None`).
    pub fn lower_bound(&self, upper_bounds: &BTreeMap<Variable, i64>) -> Option<i64> {
        let mut total = self.constant;
        for (v, m) in &self.vars {
            if *m >= 0 {
                total += m; // each |v| >= 1
            } else if let Some(ub) = upper_bounds.get(v) {
                total += m * ub;
            } else {
                return None; // unbounded below
            }
        }
        Some(total)
    }
}

/// A ground value: what relations store.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A symbolic constant.
    Sym(Symbol),
    /// A ground compound term, reference-counted so rows stay cheap to clone.
    App(Arc<(Symbol, Vec<Value>)>),
}

impl Value {
    /// A symbolic constant value.
    pub fn sym(name: &str) -> Value {
        Value::Sym(Symbol::new(name))
    }

    /// An integer value.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// A ground compound value.
    pub fn app(functor: Symbol, args: Vec<Value>) -> Value {
        Value::App(Arc::new((functor, args)))
    }

    /// The empty list.
    pub fn nil() -> Value {
        Value::sym(LIST_NIL)
    }

    /// A list cell.
    pub fn cons(head: Value, tail: Value) -> Value {
        Value::app(Symbol::new(LIST_CONS), vec![head, tail])
    }

    /// A proper list of the given items.
    pub fn list(items: Vec<Value>) -> Value {
        items
            .into_iter()
            .rev()
            .fold(Value::nil(), |acc, item| Value::cons(item, acc))
    }

    /// If this value is a proper list, return its elements.
    pub fn as_list(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut current = self.clone();
        loop {
            match current {
                Value::Sym(s) if s.as_str() == LIST_NIL => return Some(out),
                Value::App(cell) if cell.0.as_str() == LIST_CONS && cell.1.len() == 2 => {
                    out.push(cell.1[0].clone());
                    current = cell.1[1].clone();
                }
                _ => return None,
            }
        }
    }

    /// Convert back into a (ground) term.
    pub fn to_term(&self) -> Term {
        match self {
            Value::Int(i) => Term::Int(*i),
            Value::Sym(s) => Term::Sym(*s),
            Value::App(cell) => Term::App(cell.0, cell.1.iter().map(Value::to_term).collect()),
        }
    }

    /// The ground length of the value per Section 10 (`|c| = 1`,
    /// `|f(t1..tn)| = 1 + Σ|ti|`).
    pub fn length(&self) -> i64 {
        match self {
            Value::Int(_) | Value::Sym(_) => 1,
            Value::App(cell) => 1 + cell.1.iter().map(Value::length).sum::<i64>(),
        }
    }

    /// The maximum nesting depth of the value.
    pub fn depth(&self) -> usize {
        match self {
            Value::Int(_) | Value::Sym(_) => 0,
            Value::App(cell) => 1 + cell.1.iter().map(Value::depth).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

/// A binding environment mapping variables to ground values.
pub type Bindings = HashMap<Variable, Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_term_to_value_roundtrip() {
        let t = Term::app("f", vec![Term::sym("a"), Term::int(3)]);
        let v = t.to_value().unwrap();
        assert_eq!(v.to_term(), t);
        assert!(t.is_ground());
    }

    #[test]
    fn non_ground_term_has_no_value() {
        let t = Term::app("f", vec![Term::var("X")]);
        assert!(t.to_value().is_none());
        assert!(!t.is_ground());
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let t = Term::app(
            "f",
            vec![
                Term::var("X"),
                Term::app("g", vec![Term::var("Y"), Term::var("X")]),
            ],
        );
        let vars = t.vars();
        assert_eq!(vars, vec![Variable::new("X"), Variable::new("Y")]);
    }

    #[test]
    fn match_binds_variables() {
        let t = Term::app("f", vec![Term::var("X"), Term::var("X")]);
        let v = Value::app(Symbol::new("f"), vec![Value::sym("a"), Value::sym("a")]);
        let mut b = Bindings::new();
        assert!(t.match_value(&v, &mut b));
        assert_eq!(b.get(&Variable::new("X")), Some(&Value::sym("a")));

        let v2 = Value::app(Symbol::new("f"), vec![Value::sym("a"), Value::sym("b")]);
        let mut b2 = Bindings::new();
        assert!(!t.match_value(&v2, &mut b2));
    }

    #[test]
    fn match_respects_existing_bindings() {
        let t = Term::var("X");
        let mut b = Bindings::new();
        b.insert(Variable::new("X"), Value::sym("a"));
        assert!(t.match_value(&Value::sym("a"), &mut b));
        assert!(!t.match_value(&Value::sym("b"), &mut b));
    }

    #[test]
    fn linear_forward_and_inverse() {
        let l = LinearExpr {
            var: Variable::new("K"),
            mul: 2,
            add: 2,
        };
        assert_eq!(l.eval(3), 8);
        assert_eq!(l.invert(8), Some(3));
        assert_eq!(l.invert(7), None);

        let t = Term::Linear(l);
        let mut b = Bindings::new();
        assert!(t.match_value(&Value::Int(8), &mut b));
        assert_eq!(b.get(&Variable::new("K")), Some(&Value::Int(3)));
        // Bound case: must agree.
        assert!(t.match_value(&Value::Int(8), &mut b));
        assert!(!t.match_value(&Value::Int(10), &mut b));
    }

    #[test]
    fn linear_inversion_near_saturation_does_not_overflow() {
        // eval_parts saturates, so extreme values occur in divergent runs;
        // inverting them must answer None, not wrap or panic.
        assert_eq!(LinearExpr::invert_parts(1, -1, i64::MAX), None);
        assert_eq!(LinearExpr::invert_parts(-1, 0, i64::MIN), None);
        assert_eq!(LinearExpr::invert_parts(2, i64::MIN, i64::MAX), None);
        // Ordinary inversion still works.
        assert_eq!(LinearExpr::invert_parts(3, 1, 10), Some(3));
    }

    #[test]
    fn linear_eval_under_bindings() {
        let t = Term::linear(Variable::new("H"), 5, 4);
        let mut b = Bindings::new();
        b.insert(Variable::new("H"), Value::Int(7));
        assert_eq!(t.eval(&b), Some(Value::Int(39)));
    }

    #[test]
    fn linear_identity_collapses_to_var() {
        assert_eq!(Term::linear(Variable::new("I"), 1, 0), Term::var("I"));
    }

    #[test]
    fn list_display() {
        let t = Term::list(vec![Term::sym("a"), Term::sym("b")], Term::nil());
        assert_eq!(t.to_string(), "[a, b]");
        let open = Term::list(vec![Term::var("V")], Term::var("X"));
        assert_eq!(open.to_string(), "[V | X]");
    }

    #[test]
    fn value_list_roundtrip() {
        let v = Value::list(vec![Value::sym("a"), Value::int(2), Value::sym("c")]);
        assert_eq!(
            v.as_list().unwrap(),
            vec![Value::sym("a"), Value::int(2), Value::sym("c")]
        );
        assert_eq!(v.length(), 7); // 3 cons cells + 3 elements + nil
    }

    #[test]
    fn symbolic_length_matches_paper_example() {
        // |X.X| = 2|X| + 1 in the paper; here cons(X, X).
        let t = Term::cons(Term::var("X"), Term::var("X"));
        let len = t.symbolic_length();
        assert_eq!(len.constant, 1);
        assert_eq!(len.vars.get(&Variable::new("X")), Some(&2));
        // lower bound assuming |X| >= 1 is 3.
        assert_eq!(len.lower_bound(&BTreeMap::new()), Some(3));
    }

    #[test]
    fn symbolic_length_difference() {
        let a = Term::cons(Term::var("V"), Term::var("X")).symbolic_length();
        let b = Term::var("X").symbolic_length();
        let d = a.minus(&b);
        assert_eq!(d.constant, 1);
        assert_eq!(d.vars.get(&Variable::new("V")), Some(&1));
        assert_eq!(d.lower_bound(&BTreeMap::new()), Some(2));
    }

    #[test]
    fn rename_vars() {
        let t = Term::app("f", vec![Term::var("X"), Term::var("Y")]);
        let renamed = t.rename_vars(&mut |v| Variable::new(&format!("{}_1", v.name())));
        assert_eq!(
            renamed,
            Term::app("f", vec![Term::var("X_1"), Term::var("Y_1")])
        );
    }

    #[test]
    fn depths() {
        assert_eq!(Term::sym("a").depth(), 0);
        assert_eq!(Term::cons(Term::sym("a"), Term::nil()).depth(), 1);
        assert_eq!(Value::list(vec![Value::int(1), Value::int(2)]).depth(), 2);
    }
}
