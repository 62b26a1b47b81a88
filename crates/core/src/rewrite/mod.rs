//! The rule rewriting of Sections 4–8: one construction with two switches,
//! and the semijoin optimization as a post-pass.
//!
//! The paper's four methods are one construction varied along two axes,
//! and [`rewrite`] implements them as exactly that:
//!
//! * the [`Guard`] put on every rule: a magic set `magic_p^a(χ^b)`, or a
//!   counting set `cnt_p_ind^a(I, K, H, χ^b)` that also records the
//!   derivation path reaching each binding;
//! * `supplementary`: whether the rule generated for each sip arc
//!   recomputes the join of the arc's tail, or the body's prefix joins are
//!   stored once in a chain of supplementary predicates that the guard
//!   rules and the modified rule read.
//!
//! | guard \ supplementary | `false` | `true` |
//! |---|---|---|
//! | [`Guard::Magic`] | generalized magic sets (§4, Theorem 4.1) | generalized supplementary magic sets (§5, Theorem 5.1) |
//! | [`Guard::Counting`] | generalized counting (§6, Theorem 6.1) | generalized supplementary counting (§7, Theorem 7.1) |
//!
//! The per-arc branch drops the guards Propositions 4.2–4.3 and Lemma 6.2
//! show redundant; the supplementary branch applies §7's "simple
//! optimizations" to both guards.  [`semijoin::optimize`] (§8, Theorem
//! 8.3) runs over the counting outputs.  The rewrite consumes an
//! [`AdornedProgram`] and produces a [`RewrittenProgram`]: an ordinary
//! program (the query's seed fact last) whose *bottom-up* evaluation
//! implements the sip collection attached to the adorned rules.
//!
//! ## The counting encoding
//!
//! With `m` adorned rules and at most `t` literals per body, applying rule
//! `i` at body position `j` maps the parent indexes `(I, K, H)` to
//! `(I + 1, K·m + i, H·t + j)`.  The paper writes modified-rule heads with
//! `H/t` and body literals with `H + j`; we use the equivalent forward form
//! in which the head and the `cnt` literal carry `H` and the body literals
//! carry `H·t + j` (and similarly for `K`).  The encoded derivation paths
//! are identical, and the engine can invert the linear expressions during
//! matching, which is what the semijoin-optimized forms of Section 8
//! require.

pub mod semijoin;

use crate::adorn::{AdornedProgram, AdornedRule};
use crate::sip::{SipArc, SipNode};
use magic_datalog::{
    Adornment, Atom, DatalogError, Fact, PredName, Program, Rule, Symbol, Term, Value, Variable,
};
use std::collections::BTreeSet;
use std::fmt;

/// Which rewriting method produced a [`RewrittenProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Generalized magic sets (Section 4).
    Gms,
    /// Generalized supplementary magic sets (Section 5).
    Gsms,
    /// Generalized counting (Section 6).
    Gc,
    /// Generalized supplementary counting (Section 7).
    Gsc,
    /// Generalized counting followed by the semijoin optimization
    /// (Sections 6 and 8).
    GcSemijoin,
    /// Generalized supplementary counting followed by the semijoin
    /// optimization (Sections 7 and 8).
    GscSemijoin,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Gms => "generalized magic sets",
            Method::Gsms => "generalized supplementary magic sets",
            Method::Gc => "generalized counting",
            Method::Gsc => "generalized supplementary counting",
            Method::GcSemijoin => "generalized counting + semijoin",
            Method::GscSemijoin => "generalized supplementary counting + semijoin",
        };
        f.write_str(s)
    }
}

/// The output of a rewrite: a program to evaluate bottom-up plus the
/// information needed to read the query's answers back out.
#[derive(Clone, Debug)]
pub struct RewrittenProgram {
    /// The rewritten rules, including the seed fact.
    pub program: Program,
    /// The seed fact derived from the query (absent when the query has no
    /// bound arguments).
    pub seed: Option<Fact>,
    /// The atom to match against the evaluated database to obtain answers.
    /// Its variables include the original query's free variables.
    pub answer_atom: Atom,
    /// The original query's free variables, in order — the projection of
    /// [`RewrittenProgram::answer_atom`] matches that defines the answers.
    pub projection: Vec<Variable>,
    /// The rewriting method used.
    pub method: Method,
}

impl fmt::Display for RewrittenProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "% method: {}", self.method)?;
        writeln!(
            f,
            "% answers: {} projected on {:?}",
            self.answer_atom,
            self.projection
                .iter()
                .map(Variable::name)
                .collect::<Vec<_>>()
        )?;
        write!(f, "{}", self.program)
    }
}

/// Errors raised by the rewriting algorithms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// The counting methods require every reachable adorned rule head to have
    /// at least one bound argument and every sip arc tail to include the
    /// head; the given program/sips do not satisfy this (the paper notes the
    /// counting methods are of restricted applicability).
    CountingNotApplicable {
        /// Why the counting rewrite could not be applied.
        reason: String,
    },
    /// A language-level validation error.
    Datalog(DatalogError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::CountingNotApplicable { reason } => {
                write!(f, "the counting rewrite is not applicable: {reason}")
            }
            RewriteError::Datalog(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<DatalogError> for RewriteError {
    fn from(e: DatalogError) -> Self {
        RewriteError::Datalog(e)
    }
}

fn not_applicable(reason: String) -> RewriteError {
    RewriteError::CountingNotApplicable { reason }
}

/// The guard a rewrite puts on every rule: the relation holding the
/// bindings a rule instance may fire for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Guard {
    /// Magic sets (Sections 4 and 5): `magic_p^a(χ^b)` holds the bindings
    /// passed into `p^a`.  Adorned predicates keep their names.
    Magic,
    /// Counting sets (Sections 6 and 7): `cnt_p_ind^a(I, K, H, χ^b)` also
    /// records the derivation path that reached each binding — depth `I`,
    /// rule sequence `K`, body-position sequence `H` — and every derived
    /// literal with a bound argument becomes `p_ind^a(I, K, H, …)`.
    Counting,
}

impl Guard {
    /// The guard predicate of `base^adornment`: `magic_p^a` or `cnt_p_ind^a`.
    fn name(self, base: Symbol, adornment: &Adornment) -> PredName {
        let adornment = adornment.clone();
        match self {
            Guard::Magic => PredName::Magic { base, adornment },
            Guard::Counting => PredName::Count { base, adornment },
        }
    }
}

/// Rewrite an adorned program under `guard`, storing the body's prefix
/// joins in supplementary predicates when `supplementary` holds.
///
/// The rules of each adorned rule come out in one block, in adorned-rule
/// order: the supplementary rules (if any), the guard rules of its sip
/// arcs, then the modified rule.  The seed fact comes last.
pub fn rewrite(
    adorned: &AdornedProgram,
    guard: Guard,
    supplementary: bool,
) -> Result<RewrittenProgram, RewriteError> {
    let counting = guard == Guard::Counting;
    let query_bound = adorned.query_adornment.bound_count() > 0;
    if counting && !query_bound {
        return Err(not_applicable("the query has no bound argument".into()));
    }
    let (m, t) = (adorned.rules.len().max(1), adorned.max_body_len().max(1));
    let mut rules = Vec::new();
    for (n, ar) in adorned.rules.iter().enumerate() {
        let index = if counting {
            check_counting(ar)?;
            Some(Index::new(&ar.rule.vars(), m, t))
        } else {
            None
        };
        let rr = RuleRewrite {
            ar,
            guard,
            number: n + usize::from(counting),
            index,
        };
        rr.emit(supplementary, &mut rules);
    }

    // The seed: the query's bound values as a guard fact, at derivation
    // index (0, 0, 0) under counting.
    let mut values = if counting {
        vec![Value::Int(0); 3]
    } else {
        Vec::new()
    };
    values.extend(adorned.query.bound_values());
    let seed = query_bound.then(|| {
        let name = guard.name(adorned.query_pred, &adorned.query_adornment);
        Fact::new(name, values)
    });
    rules.extend(seed.iter().map(|s| Rule::fact(s.to_atom())));

    // Under counting the answers are read through fresh index variables:
    // the equivalence of Theorem 6.1 holds for every index value.
    let mut answer_atom = adorned.answer_atom();
    if counting {
        let index = Index::new(&answer_atom.vars(), m, t);
        answer_atom = indexed(&answer_atom, &adorned.query_adornment, index.parent());
    }
    let method = match (guard, supplementary) {
        (Guard::Magic, false) => Method::Gms,
        (Guard::Magic, true) => Method::Gsms,
        (Guard::Counting, false) => Method::Gc,
        (Guard::Counting, true) => Method::Gsc,
    };
    Ok(RewrittenProgram {
        program: Program::from_rules(rules),
        seed,
        answer_atom,
        projection: adorned.query.free_vars(),
        method,
    })
}

/// The adornment of body literal `pos` when it is derived with at least one
/// bound argument: the literals that get a guard (and, under counting, an
/// index).
fn bound_adornment(ar: &AdornedRule, pos: usize) -> Option<&Adornment> {
    ar.body_adornments[pos]
        .as_ref()
        .filter(|a| a.bound_count() > 0)
}

/// The counting rewrite's applicability conditions for one adorned rule
/// (Section 6): a bound head, and into every indexed literal at most one
/// sip arc, whose tail includes the head so that a parent index exists.
fn check_counting(ar: &AdornedRule) -> Result<(), RewriteError> {
    if ar.head_adornment.bound_count() == 0 {
        return Err(not_applicable(format!(
            "rule for {} has a head adornment with no bound argument",
            ar.rule.head.pred
        )));
    }
    for (pos, atom) in ar.rule.body.iter().enumerate() {
        if bound_adornment(ar, pos).is_none() {
            continue;
        }
        match ar.sip.arcs_into(pos)[..] {
            [] => {}
            [arc] if arc.tail.contains(&SipNode::Head) => {}
            [_] => {
                return Err(not_applicable(format!(
                    "the sip arc into {atom} does not include the head, so no parent index is available"
                )))
            }
            _ => {
                return Err(not_applicable(format!(
                    "literal {atom} receives several sip arcs; the counting encoding assumes one"
                )))
            }
        }
    }
    Ok(())
}

/// Variables needed "later": in the head or in body literals at 0-based
/// positions `>= from`.
fn needed_later(rule: &Rule, from: usize) -> BTreeSet<Variable> {
    let mut needed: BTreeSet<Variable> = rule.head.vars().into_iter().collect();
    for atom in &rule.body[from..] {
        needed.extend(atom.vars());
    }
    needed
}

/// Order a variable set by first occurrence in the rule (head first, then
/// body), so supplementary predicates have deterministic argument orders.
fn order_vars(rule: &Rule, vars: &BTreeSet<Variable>) -> Vec<Variable> {
    rule.vars()
        .into_iter()
        .filter(|v| vars.contains(v))
        .collect()
}

/// `p_ind^a(index, terms)`: the counting rewrite's indexed form of an
/// adorned atom.
fn indexed(atom: &Atom, adornment: &Adornment, mut index: Vec<Term>) -> Atom {
    index.extend(atom.terms.iter().cloned());
    let pred = PredName::Indexed {
        base: atom.pred.base(),
        adornment: adornment.clone(),
    };
    Atom::new(pred, index)
}

/// The derivation-path index variables `(I, K, H)` of one counting rule,
/// with the encoding bases `m` (adorned rules) and `t` (longest body).
#[derive(Clone, Copy)]
struct Index {
    vars: [Variable; 3],
    m: i64,
    t: i64,
}

impl Index {
    /// Name `I`, `K` and `H` apart from the variables in `taken`.
    fn new(taken: &[Variable], m: usize, t: usize) -> Index {
        let vars = ["I", "K", "H"].map(|base| {
            let mut name = base.to_string();
            loop {
                let candidate = Variable::new(&name);
                if !taken.contains(&candidate) {
                    return candidate;
                }
                name.push('0');
            }
        });
        Index {
            vars,
            m: m as i64,
            t: t as i64,
        }
    }

    /// `(I, K, H)`.
    fn parent(&self) -> Vec<Term> {
        self.vars.iter().map(|v| Term::Var(*v)).collect()
    }

    /// `(I+1, K·m+i, H·t+j)`: rule `i` expanding body position `j`, both
    /// 1-based.
    fn child(&self, rule: usize, position: usize) -> Vec<Term> {
        let [i, k, h] = self.vars;
        vec![
            Term::linear(i, 1, 1),
            Term::linear(k, self.m, rule as i64),
            Term::linear(h, self.t, position as i64),
        ]
    }
}

/// One adorned rule under rewrite: where the guard decides a name or an
/// index, it decides it here.
struct RuleRewrite<'a> {
    ar: &'a AdornedRule,
    guard: Guard,
    /// The rule's number in generated names and indexes, as in the paper's
    /// examples: 0-based under magic (`supmagic_r1_…` is the second rule),
    /// 1-based under counting (`K·m + 2`, `supcnt_r2_…`).
    number: usize,
    /// The index variables (counting only).
    index: Option<Index>,
}

impl RuleRewrite<'_> {
    /// The modified rule and the rules feeding its guard, appended to `out`.
    fn emit(&self, supplementary: bool, out: &mut Vec<Rule>) {
        let rule = &self.ar.rule;
        let targets: Vec<usize> = (0..rule.body.len())
            .filter(|&pos| bound_adornment(self.ar, pos).is_some())
            .filter(|&pos| self.ar.sip.has_arc_into(pos))
            .collect();
        let head_bound = self.ar.head_adornment.bound_count() > 0;
        // With an unbound head there is no guard to start a supplementary
        // chain from, and with no arcs there is nothing worth storing: both
        // fall back to the per-arc construction (Example 5, rule 1).
        let body = if supplementary && head_bound && !targets.is_empty() {
            self.supplementary_chain(&targets, out)
        } else {
            self.arc_rules(&targets, out);
            let mut body: Vec<Atom> = head_bound.then(|| self.head_guard()).into_iter().collect();
            body.extend((0..rule.body.len()).map(|pos| self.literal(pos)));
            body
        };
        // The modified rule keeps its negated atoms verbatim: they are
        // checked against the full (plain-named) relations, whose
        // unrewritten defining cones the planner appends.  The guard rules
        // stay positive — a guard without the negation filter
        // over-approximates the relevant bindings, which is always sound.
        out.push(Rule::new(self.head(), body).with_negated(rule.negated.clone()));
    }

    /// The index terms of the head: `(I, K, H)`, none under magic.
    fn parent(&self) -> Vec<Term> {
        self.index.map_or_else(Vec::new, |ix| ix.parent())
    }

    /// The index terms of body literal `pos` (0-based), none under magic.
    fn child(&self, pos: usize) -> Vec<Term> {
        self.index
            .map_or_else(Vec::new, |ix| ix.child(self.number, pos + 1))
    }

    /// The guard literal `magic_q^a(θ^b)` / `cnt_q_ind^a(index, θ^b)`.
    fn guard_literal(&self, atom: &Atom, adornment: &Adornment, mut index: Vec<Term>) -> Atom {
        index.extend(atom.bound_terms(adornment));
        Atom::new(self.guard.name(atom.pred.base(), adornment), index)
    }

    fn head_guard(&self) -> Atom {
        let head = &self.ar.rule.head;
        self.guard_literal(head, &self.ar.head_adornment, self.parent())
    }

    /// The guard literal of body literal `pos`: the head of the rules that
    /// pass bindings into it.
    fn target_guard(&self, pos: usize) -> Atom {
        let adornment = bound_adornment(self.ar, pos).expect("targets are bound literals");
        self.guard_literal(&self.ar.rule.body[pos], adornment, self.child(pos))
    }

    fn head(&self) -> Atom {
        let head = &self.ar.rule.head;
        match self.index {
            Some(ix) => indexed(head, &self.ar.head_adornment, ix.parent()),
            None => head.clone(),
        }
    }

    /// Body literal `pos` as the rewritten rules read it: indexed under
    /// counting when it is derived with a bound argument, unchanged
    /// otherwise.
    fn literal(&self, pos: usize) -> Atom {
        let atom = &self.ar.rule.body[pos];
        match bound_adornment(self.ar, pos) {
            Some(adornment) if self.index.is_some() => indexed(atom, adornment, self.child(pos)),
            _ => atom.clone(),
        }
    }

    /// Sections 4 and 6: one guard rule per sip arc `N → q`, its body the
    /// join of the tail `N`.  Several arcs into one literal each define a
    /// label, and the guard rule joins the labels.
    fn arc_rules(&self, targets: &[usize], out: &mut Vec<Rule>) {
        for &pos in targets {
            let guard = self.target_guard(pos);
            let arcs = self.ar.sip.arcs_into(pos);
            if let [arc] = arcs[..] {
                out.push(Rule::new(guard, self.arc_body(arc)));
                continue;
            }
            let adornment = bound_adornment(self.ar, pos).expect("targets are bound literals");
            let mut labels = Vec::new();
            for (k, arc) in arcs.into_iter().enumerate() {
                let pred = PredName::Label {
                    base: guard.pred.base(),
                    adornment: adornment.clone(),
                    rule: self.number,
                    arc: k,
                };
                let label = Atom::new(pred, arc.label.iter().map(|v| Term::Var(*v)).collect());
                out.push(Rule::new(label.clone(), self.arc_body(arc)));
                labels.push(label);
            }
            out.push(Rule::new(guard, labels));
        }
    }

    /// The body of the rule generated from one sip arc: the head's guard
    /// when the head is in the tail, then the tail's body literals in body
    /// order.  A tail literal brings its own guard only when the head's is
    /// absent: otherwise it is redundant (Proposition 4.3, Lemma 6.2).
    fn arc_body(&self, arc: &SipArc) -> Vec<Atom> {
        let head_in_tail =
            arc.tail.contains(&SipNode::Head) && self.ar.head_adornment.bound_count() > 0;
        let mut body: Vec<Atom> = head_in_tail
            .then(|| self.head_guard())
            .into_iter()
            .collect();
        for &node in &arc.tail {
            let SipNode::Body(j) = node else { continue };
            if let Some(adornment) = bound_adornment(self.ar, j).filter(|_| !head_in_tail) {
                body.push(self.guard_literal(&self.ar.rule.body[j], adornment, self.child(j)));
            }
            body.push(self.literal(j));
        }
        body
    }

    /// Sections 5 and 7: the join of the head's guard with body literals
    /// `1..j-1` is stored in `sup_j(φ_j)`, where φ_j keeps the bound head
    /// variables and those of the literals joined so far that are still
    /// needed later.  Each guard rule reads the chain at its target, and the
    /// returned modified body reads it at the last target.  `sup_1` is the
    /// head's guard itself (§7's "simple optimizations"), and the chain
    /// stops at the last target.
    fn supplementary_chain(&self, targets: &[usize], out: &mut Vec<Rule>) -> Vec<Atom> {
        let rule = &self.ar.rule;
        let last = targets[targets.len() - 1];
        let mut phi: BTreeSet<Variable> = rule
            .head
            .bound_terms(&self.ar.head_adornment)
            .iter()
            .flat_map(Term::vars)
            .collect();
        let needed = needed_later(rule, 0);
        phi.retain(|v| needed.contains(v));
        // chain[pos] is the stored join in front of body literal `pos`.
        let mut chain = vec![self.head_guard()];
        for pos in 0..last {
            phi.extend(rule.body[pos].vars());
            let needed = needed_later(rule, pos + 1);
            phi.retain(|v| needed.contains(v));
            let sup = self.supplementary(pos + 2, &order_vars(rule, &phi));
            out.push(Rule::new(
                sup.clone(),
                vec![chain[pos].clone(), self.literal(pos)],
            ));
            chain.push(sup);
        }
        for &pos in targets {
            out.push(Rule::new(self.target_guard(pos), vec![chain[pos].clone()]));
        }
        let mut body = vec![chain[last].clone()];
        body.extend((last..rule.body.len()).map(|pos| self.literal(pos)));
        body
    }

    /// `supmagic_r_j(φ)` / `supcnt_r_j(I, K, H, φ)` at 1-based body
    /// position `position`.
    fn supplementary(&self, position: usize, vars: &[Variable]) -> Atom {
        let (base, adornment, rule) = (
            self.ar.head_base(),
            self.ar.head_adornment.clone(),
            self.number,
        );
        let pred = match self.guard {
            Guard::Magic => PredName::Supplementary {
                base,
                adornment,
                rule,
                position,
            },
            Guard::Counting => PredName::SupCount {
                base,
                adornment,
                rule,
                position,
            },
        };
        let mut terms = self.parent();
        terms.extend(vars.iter().map(|v| Term::Var(*v)));
        Atom::new(pred, terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::sip::Sip;
    use crate::sip_builder::SipStrategy;
    use magic_datalog::{parse_program, parse_query};

    /// Adorn `src` for `query` under `sip`, then rewrite.
    pub(super) fn rewrite_with(
        src: &str,
        query: &str,
        sip: SipStrategy,
        guard: Guard,
        supplementary: bool,
    ) -> Result<RewrittenProgram, RewriteError> {
        let program = parse_program(src).unwrap();
        let query = parse_query(query).unwrap();
        let adorned = adorn(&program, &query, sip).unwrap();
        rewrite(&adorned, guard, supplementary)
    }

    /// Adorn `src` for `query` under the full left-to-right sip, then
    /// rewrite.
    pub(super) fn rewrite_source(
        src: &str,
        query: &str,
        guard: Guard,
        supplementary: bool,
    ) -> Result<RewrittenProgram, RewriteError> {
        rewrite_with(
            src,
            query,
            SipStrategy::FullLeftToRight,
            guard,
            supplementary,
        )
    }

    pub(super) fn texts(r: &RewrittenProgram) -> Vec<String> {
        r.program.rules.iter().map(|x| x.to_string()).collect()
    }

    pub(super) fn assert_all_present(text: &[String], expected: &[&str]) {
        for e in expected {
            assert!(
                text.contains(&e.to_string()),
                "missing: {e}\nhave: {text:#?}"
            );
        }
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Gms.to_string(), "generalized magic sets");
        assert_eq!(
            Method::GscSemijoin.to_string(),
            "generalized supplementary counting + semijoin"
        );
    }

    #[test]
    fn rewrite_error_display() {
        let e = RewriteError::CountingNotApplicable {
            reason: "head has no bound arguments".into(),
        };
        assert!(e.to_string().contains("not applicable"));
    }

    #[test]
    fn several_arcs_into_one_literal_are_joined_through_labels() {
        // The built-in sip strategies send one arc into each literal; a
        // hand-made sip sends two into q, one binding Z and one binding W.
        let program = parse_program(
            "p(X, Y) :- a(X, Z), b(X, W), q(Z, W, Y).
             q(Z, W, Y) :- c(Z, W, Y).",
        )
        .unwrap();
        let query = parse_query("p(john, Y)").unwrap();
        let mut adorned = adorn(&program, &query, SipStrategy::FullLeftToRight).unwrap();
        let arc = |tail: [SipNode; 2], v: &str| SipArc {
            tail: tail.into_iter().collect(),
            target: 2,
            label: [Variable::new(v)].into_iter().collect(),
        };
        adorned.rules[0].sip = Sip {
            arcs: vec![
                arc([SipNode::Head, SipNode::Body(0)], "Z"),
                arc([SipNode::Head, SipNode::Body(1)], "W"),
            ],
        };
        let gms = rewrite(&adorned, Guard::Magic, false).unwrap();
        assert_eq!(
            gms.program.to_string(),
            "label_q_bbf_r0_a0(Z) :- magic_p_bf(X), a(X, Z).
label_q_bbf_r0_a1(W) :- magic_p_bf(X), b(X, W).
magic_q_bbf(Z, W) :- label_q_bbf_r0_a0(Z), label_q_bbf_r0_a1(W).
p_bf(X, Y) :- magic_p_bf(X), a(X, Z), b(X, W), q_bbf(Z, W, Y).
q_bbf(Z, W, Y) :- magic_q_bbf(Z, W), c(Z, W, Y).
magic_p_bf(john).
"
        );
        // The supplementary chain stores the whole prefix, so the guard
        // rule reads it once, whatever the number of arcs.
        let gsms = rewrite(&adorned, Guard::Magic, true).unwrap();
        assert_eq!(
            gsms.program.to_string(),
            "supmagic_r0_2_p_bf(X, Z) :- magic_p_bf(X), a(X, Z).
supmagic_r0_3_p_bf(X, Z, W) :- supmagic_r0_2_p_bf(X, Z), b(X, W).
magic_q_bbf(Z, W) :- supmagic_r0_3_p_bf(X, Z, W).
p_bf(X, Y) :- supmagic_r0_3_p_bf(X, Z, W), q_bbf(Z, W, Y).
q_bbf(Z, W, Y) :- magic_q_bbf(Z, W), c(Z, W, Y).
magic_p_bf(john).
"
        );
        for supplementary in [false, true] {
            assert_eq!(
                rewrite(&adorned, Guard::Counting, supplementary)
                    .unwrap_err()
                    .to_string(),
                "the counting rewrite is not applicable: literal q_bbf(Z, W, Y) receives \
                 several sip arcs; the counting encoding assumes one"
            );
        }
    }
}

/// The paper's examples, one test module per method.
#[cfg(test)]
mod gms {
    mod tests {
        use crate::rewrite::tests::{assert_all_present, rewrite_source, rewrite_with, texts};
        use crate::rewrite::{Guard, RewrittenProgram};
        use crate::sip_builder::SipStrategy;

        fn gms(src: &str, query: &str) -> RewrittenProgram {
            rewrite_source(src, query, Guard::Magic, false).unwrap()
        }

        fn sg_rewrite(strategy: SipStrategy) -> RewrittenProgram {
            rewrite_with(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
                "sg(john, Y)",
                strategy,
                Guard::Magic,
                false,
            )
            .unwrap()
        }

        #[test]
        fn example_4_full_sip() {
            // Example 4 of the paper, full sip (IV).
            let rewritten = sg_rewrite(SipStrategy::FullLeftToRight);
            let text = texts(&rewritten);
            assert!(text.contains(&"magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).".to_string()));
            assert!(text.contains(
                &"magic_sg_bf(Z3) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), flat(Z2, Z3)."
                    .to_string()
            ));
            assert!(text.contains(&"sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).".to_string()));
            assert!(text.contains(
                &"sg_bf(X, Y) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), flat(Z2, Z3), sg_bf(Z3, Z4), down(Z4, Y)."
                    .to_string()
            ));
            assert!(text.contains(&"magic_sg_bf(john).".to_string()));
            // 2 magic rules + 2 modified rules + seed.
            assert_eq!(rewritten.program.len(), 5);
            assert_eq!(
                rewritten.seed.as_ref().unwrap().to_string(),
                "magic_sg_bf(john)"
            );
            assert_eq!(rewritten.answer_atom.to_string(), "sg_bf(john, Y)");
        }

        #[test]
        fn example_4_partial_sip() {
            // Example 4, second variant: the partial sip (V) keeps the magic
            // literal of sg.1 in the second magic rule because the head is not in
            // the arc's tail.
            let rewritten = sg_rewrite(SipStrategy::LeftToRightLastOnly);
            let text = texts(&rewritten);
            assert!(text.contains(&"magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).".to_string()));
            assert!(text.contains(
                &"magic_sg_bf(Z3) :- magic_sg_bf(Z1), sg_bf(Z1, Z2), flat(Z2, Z3).".to_string()
            ));
            assert_eq!(rewritten.program.len(), 5);
        }

        #[test]
        fn ancestor_rewrite_matches_appendix_a31() {
            // Appendix A.3.1.
            let rewritten = gms(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(john, Y)",
            );
            assert_eq!(
                texts(&rewritten),
                vec![
                    "a_bf(X, Y) :- magic_a_bf(X), p(X, Y).".to_string(),
                    "magic_a_bf(Z) :- magic_a_bf(X), p(X, Z).".to_string(),
                    "a_bf(X, Y) :- magic_a_bf(X), p(X, Z), a_bf(Z, Y).".to_string(),
                    "magic_a_bf(john).".to_string(),
                ]
            );
        }

        #[test]
        fn nonlinear_ancestor_matches_appendix_a32() {
            // Appendix A.3.2.  The redundant magic rule
            // `magic_a_bf(X) :- magic_a_bf(X)` noted in the appendix ("can be
            // deleted") corresponds to the arc into the first a occurrence; we
            // emit it for fidelity.
            let rewritten = gms(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- a(X, Z), a(Z, Y).",
                "a(john, Y)",
            );
            let text = texts(&rewritten);
            assert!(text.contains(&"magic_a_bf(X) :- magic_a_bf(X).".to_string()));
            assert!(text.contains(&"magic_a_bf(Z) :- magic_a_bf(X), a_bf(X, Z).".to_string()));
            assert!(
                text.contains(&"a_bf(X, Y) :- magic_a_bf(X), a_bf(X, Z), a_bf(Z, Y).".to_string())
            );
        }

        #[test]
        fn nested_sg_matches_appendix_a33() {
            let rewritten = gms(
                "p(X, Y) :- b1(X, Y).
                 p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
                 sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).",
                "p(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "magic_p_bf(Z1) :- magic_p_bf(X), sg_bf(X, Z1).",
                    "magic_sg_bf(X) :- magic_p_bf(X).",
                    "magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).",
                    "p_bf(X, Y) :- magic_p_bf(X), b1(X, Y).",
                    "p_bf(X, Y) :- magic_p_bf(X), sg_bf(X, Z1), p_bf(Z1, Z2), b2(Z2, Y).",
                    "sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).",
                    "sg_bf(X, Y) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), down(Z2, Y).",
                    "magic_p_bf(john).",
                ],
            );
        }

        #[test]
        fn list_reverse_matches_appendix_a34() {
            let rewritten = gms(
                "append(V, [], [V]) :- .
                 append(V, [W | X], [W | Y]) :- append(V, X, Y).
                 reverse([], []) :- .
                 reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).",
                "reverse(list, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "magic_append_bbf(V, X) :- magic_append_bbf(V, [W | X]).",
                    "magic_append_bbf(V, Z) :- magic_reverse_bf([V | X]), reverse_bf(X, Z).",
                    "magic_reverse_bf(X) :- magic_reverse_bf([V | X]).",
                    "append_bbf(V, [], [V]) :- magic_append_bbf(V, []).",
                    "append_bbf(V, [W | X], [W | Y]) :- magic_append_bbf(V, [W | X]), append_bbf(V, X, Y).",
                    "reverse_bf([], []) :- magic_reverse_bf([]).",
                    "reverse_bf([V | X], Y) :- magic_reverse_bf([V | X]), reverse_bf(X, Z), append_bbf(V, Z, Y).",
                    "magic_reverse_bf(list).",
                ],
            );
        }

        #[test]
        fn all_free_query_produces_no_seed() {
            let rewritten = gms(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(U, V)",
            );
            assert!(rewritten.seed.is_none());
            // Still a valid program: the a^ff rules are unguarded, the a^bf rules
            // (reached through the recursive literal, which is bound by p) are
            // guarded.
            assert!(rewritten
                .program
                .rules
                .iter()
                .any(|r| r.head.pred.to_string() == "a_ff"));
        }
    }
}

#[cfg(test)]
mod gsms {
    mod tests {
        use crate::rewrite::tests::{assert_all_present, rewrite_source, texts};
        use crate::rewrite::{Guard, Method, RewrittenProgram};

        fn gsms(src: &str, query: &str) -> RewrittenProgram {
            rewrite_source(src, query, Guard::Magic, true).unwrap()
        }

        #[test]
        fn example_5_same_generation() {
            // Example 5 of the paper (supplementary predicate numbering follows
            // the paper: supmagic^2_i, here rendered supmagic_r1_i because our
            // rule indices are 0-based).
            let rewritten = gsms(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
                "sg(john, Y)",
            );
            let text = texts(&rewritten);
            assert_all_present(
                &text,
                &[
                    "supmagic_r1_2_sg_bf(X, Z1) :- magic_sg_bf(X), up(X, Z1).",
                    "supmagic_r1_3_sg_bf(X, Z2) :- supmagic_r1_2_sg_bf(X, Z1), sg_bf(Z1, Z2).",
                    "supmagic_r1_4_sg_bf(X, Z3) :- supmagic_r1_3_sg_bf(X, Z2), flat(Z2, Z3).",
                    "sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).",
                    "sg_bf(X, Y) :- supmagic_r1_4_sg_bf(X, Z3), sg_bf(Z3, Z4), down(Z4, Y).",
                    "magic_sg_bf(Z1) :- supmagic_r1_2_sg_bf(X, Z1).",
                    "magic_sg_bf(Z3) :- supmagic_r1_4_sg_bf(X, Z3).",
                    "magic_sg_bf(john).",
                ],
            );
            assert_eq!(rewritten.program.len(), 8);
            assert_eq!(rewritten.method, Method::Gsms);
        }

        #[test]
        fn appendix_a41_linear_ancestor() {
            let rewritten = gsms(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supmagic_r1_2_a_bf(X, Z) :- magic_a_bf(X), p(X, Z).",
                    "a_bf(X, Y) :- magic_a_bf(X), p(X, Y).",
                    "a_bf(X, Y) :- supmagic_r1_2_a_bf(X, Z), a_bf(Z, Y).",
                    "magic_a_bf(Z) :- supmagic_r1_2_a_bf(X, Z).",
                    "magic_a_bf(john).",
                ],
            );
        }

        #[test]
        fn appendix_a42_nonlinear_ancestor() {
            let rewritten = gsms(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- a(X, Z), a(Z, Y).",
                "a(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supmagic_r1_2_a_bf(X, Z) :- magic_a_bf(X), a_bf(X, Z).",
                    "a_bf(X, Y) :- magic_a_bf(X), p(X, Y).",
                    "a_bf(X, Y) :- supmagic_r1_2_a_bf(X, Z), a_bf(Z, Y).",
                    "magic_a_bf(X) :- magic_a_bf(X).",
                    "magic_a_bf(Z) :- supmagic_r1_2_a_bf(X, Z).",
                    "magic_a_bf(john).",
                ],
            );
        }

        #[test]
        fn appendix_a43_nested_same_generation() {
            let rewritten = gsms(
                "p(X, Y) :- b1(X, Y).
                 p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
                 sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).",
                "p(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supmagic_r1_2_p_bf(X, Z1) :- magic_p_bf(X), sg_bf(X, Z1).",
                    "supmagic_r3_2_sg_bf(X, Z1) :- magic_sg_bf(X), up(X, Z1).",
                    "p_bf(X, Y) :- magic_p_bf(X), b1(X, Y).",
                    "p_bf(X, Y) :- supmagic_r1_2_p_bf(X, Z1), p_bf(Z1, Z2), b2(Z2, Y).",
                    "sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).",
                    "sg_bf(X, Y) :- supmagic_r3_2_sg_bf(X, Z1), sg_bf(Z1, Z2), down(Z2, Y).",
                    "magic_sg_bf(X) :- magic_p_bf(X).",
                    "magic_p_bf(Z1) :- supmagic_r1_2_p_bf(X, Z1).",
                    "magic_sg_bf(Z1) :- supmagic_r3_2_sg_bf(X, Z1).",
                    "magic_p_bf(john).",
                ],
            );
        }

        #[test]
        fn appendix_a44_list_reverse() {
            let rewritten = gsms(
                "append(V, [], [V]) :- .
                 append(V, [W | X], [W | Y]) :- append(V, X, Y).
                 reverse([], []) :- .
                 reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).",
                "reverse(list, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supmagic_r1_2_reverse_bf(V, X, Z) :- magic_reverse_bf([V | X]), reverse_bf(X, Z).",
                    "append_bbf(V, [], [V]) :- magic_append_bbf(V, []).",
                    "append_bbf(V, [W | X], [W | Y]) :- magic_append_bbf(V, [W | X]), append_bbf(V, X, Y).",
                    "reverse_bf([], []) :- magic_reverse_bf([]).",
                    "reverse_bf([V | X], Y) :- supmagic_r1_2_reverse_bf(V, X, Z), append_bbf(V, Z, Y).",
                    "magic_append_bbf(V, X) :- magic_append_bbf(V, [W | X]).",
                    "magic_append_bbf(V, Z) :- supmagic_r1_2_reverse_bf(V, X, Z).",
                    "magic_reverse_bf(X) :- magic_reverse_bf([V | X]).",
                    "magic_reverse_bf(list).",
                ],
            );
        }
    }
}

#[cfg(test)]
mod counting {
    mod tests {
        use crate::rewrite::tests::{assert_all_present, rewrite_source, rewrite_with, texts};
        use crate::rewrite::{Guard, Method, RewriteError, RewrittenProgram};
        use crate::sip_builder::SipStrategy;

        fn gc(src: &str, query: &str) -> Result<RewrittenProgram, RewriteError> {
            rewrite_source(src, query, Guard::Counting, false)
        }

        #[test]
        fn example_6_same_generation() {
            // Example 6 of the paper: m = 2 rules, t = 5 literals.
            let rewritten = gc(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
                "sg(john, Y)",
            )
            .unwrap();
            let text = texts(&rewritten);
            assert_all_present(
                &text,
                &[
                    // From rule 2, 2nd body literal.
                    "cnt_sg_ind_bf(I+1, K*2+2, H*5+2, Z1) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1).",
                    // From rule 2, 4th body literal.
                    "cnt_sg_ind_bf(I+1, K*2+2, H*5+4, Z3) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I+1, K*2+2, H*5+2, Z1, Z2), flat(Z2, Z3).",
                    // Modified rule (1).
                    "sg_ind_bf(I, K, H, X, Y) :- cnt_sg_ind_bf(I, K, H, X), flat(X, Y).",
                    // Modified rule (2).
                    "sg_ind_bf(I, K, H, X, Y) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I+1, K*2+2, H*5+2, Z1, Z2), flat(Z2, Z3), sg_ind_bf(I+1, K*2+2, H*5+4, Z3, Z4), down(Z4, Y).",
                    // Seed.
                    "cnt_sg_ind_bf(0, 0, 0, john).",
                ],
            );
            assert_eq!(rewritten.program.len(), 5);
            assert_eq!(rewritten.method, Method::Gc);
        }

        #[test]
        fn appendix_a51_ancestor() {
            let rewritten = gc(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(john, Y)",
            )
            .unwrap();
            assert_all_present(
                &texts(&rewritten),
                &[
                    "cnt_a_ind_bf(I+1, K*2+2, H*2+2, Z) :- cnt_a_ind_bf(I, K, H, X), p(X, Z).",
                    "a_ind_bf(I, K, H, X, Y) :- cnt_a_ind_bf(I, K, H, X), p(X, Y).",
                    "a_ind_bf(I, K, H, X, Y) :- cnt_a_ind_bf(I, K, H, X), p(X, Z), a_ind_bf(I+1, K*2+2, H*2+2, Z, Y).",
                    "cnt_a_ind_bf(0, 0, 0, john).",
                ],
            );
        }

        #[test]
        fn appendix_a52_nonlinear_ancestor_generates_self_incrementing_rule() {
            // A.5.2: the rule
            //   cnt_a_ind(I+1, K·2+2, H·2+1, X) :- cnt_a_ind(I, K, H, X)
            // makes the counting strategy diverge; we still generate it (safety
            // analysis flags it, Section 10).
            let rewritten = gc(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- a(X, Z), a(Z, Y).",
                "a(john, Y)",
            )
            .unwrap();
            assert_all_present(
                &texts(&rewritten),
                &["cnt_a_ind_bf(I+1, K*2+2, H*2+1, X) :- cnt_a_ind_bf(I, K, H, X)."],
            );
        }

        #[test]
        fn appendix_a53_nested_same_generation() {
            // m = 4 adorned rules, t = 3 literals.
            let rewritten = gc(
                "p(X, Y) :- b1(X, Y).
                 p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
                 sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).",
                "p(john, Y)",
            )
            .unwrap();
            assert_all_present(
                &texts(&rewritten),
                &[
                    "cnt_sg_ind_bf(I+1, K*4+2, H*3+1, X) :- cnt_p_ind_bf(I, K, H, X).",
                    "cnt_p_ind_bf(I+1, K*4+2, H*3+2, Z1) :- cnt_p_ind_bf(I, K, H, X), sg_ind_bf(I+1, K*4+2, H*3+1, X, Z1).",
                    "cnt_sg_ind_bf(I+1, K*4+4, H*3+2, Z1) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1).",
                    "p_ind_bf(I, K, H, X, Y) :- cnt_p_ind_bf(I, K, H, X), b1(X, Y).",
                    "p_ind_bf(I, K, H, X, Y) :- cnt_p_ind_bf(I, K, H, X), sg_ind_bf(I+1, K*4+2, H*3+1, X, Z1), p_ind_bf(I+1, K*4+2, H*3+2, Z1, Z2), b2(Z2, Y).",
                    "sg_ind_bf(I, K, H, X, Y) :- cnt_sg_ind_bf(I, K, H, X), flat(X, Y).",
                    "sg_ind_bf(I, K, H, X, Y) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I+1, K*4+4, H*3+2, Z1, Z2), down(Z2, Y).",
                    "cnt_p_ind_bf(0, 0, 0, john).",
                ],
            );
        }

        #[test]
        fn appendix_a54_list_reverse() {
            let rewritten = gc(
                "append(V, [], [V]) :- .
                 append(V, [W | X], [W | Y]) :- append(V, X, Y).
                 reverse([], []) :- .
                 reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).",
                "reverse(list, Y)",
            )
            .unwrap();
            // Adorned rule order: reverse exit (1), reverse recursive (2),
            // append exit (3), append recursive (4); m = 4, t = 2.
            assert_all_present(
                &texts(&rewritten),
                &[
                    "cnt_reverse_ind_bf(I+1, K*4+2, H*2+1, X) :- cnt_reverse_ind_bf(I, K, H, [V | X]).",
                    "cnt_append_ind_bbf(I+1, K*4+2, H*2+2, V, Z) :- cnt_reverse_ind_bf(I, K, H, [V | X]), reverse_ind_bf(I+1, K*4+2, H*2+1, X, Z).",
                    "cnt_append_ind_bbf(I+1, K*4+4, H*2+1, V, X) :- cnt_append_ind_bbf(I, K, H, V, [W | X]).",
                    "reverse_ind_bf(I, K, H, [], []) :- cnt_reverse_ind_bf(I, K, H, []).",
                    "append_ind_bbf(I, K, H, V, [], [V]) :- cnt_append_ind_bbf(I, K, H, V, []).",
                    "append_ind_bbf(I, K, H, V, [W | X], [W | Y]) :- cnt_append_ind_bbf(I, K, H, V, [W | X]), append_ind_bbf(I+1, K*4+4, H*2+1, V, X, Y).",
                    "reverse_ind_bf(I, K, H, [V | X], Y) :- cnt_reverse_ind_bf(I, K, H, [V | X]), reverse_ind_bf(I+1, K*4+2, H*2+1, X, Z), append_ind_bbf(I+1, K*4+2, H*2+2, V, Z, Y).",
                    "cnt_reverse_ind_bf(0, 0, 0, list).",
                ],
            );
        }

        #[test]
        fn counting_rejects_queries_without_bindings() {
            let err = gc(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(U, V)",
            )
            .unwrap_err();
            assert!(matches!(err, RewriteError::CountingNotApplicable { .. }));
        }

        #[test]
        fn counting_rejects_partial_sips_without_head_in_tail() {
            // With the "last only" partial sip the arc into sg.2 does not include
            // the head, so no parent index is available.
            let result = rewrite_with(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
                "sg(john, Y)",
                SipStrategy::LeftToRightLastOnly,
                Guard::Counting,
                false,
            );
            assert!(matches!(
                result,
                Err(RewriteError::CountingNotApplicable { .. })
            ));
        }
    }
}

#[cfg(test)]
mod gsc {
    mod tests {
        use crate::rewrite::tests::{assert_all_present, rewrite_source, texts};
        use crate::rewrite::{Guard, Method, RewrittenProgram};

        fn gsc(src: &str, query: &str) -> RewrittenProgram {
            rewrite_source(src, query, Guard::Counting, true).unwrap()
        }

        #[test]
        fn example_7_same_generation() {
            // Example 7 of the paper.
            let rewritten = gsc(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
                "sg(john, Y)",
            );
            let text = texts(&rewritten);
            assert_all_present(
                &text,
                &[
                    "supcnt_r2_2_sg_bf(I, K, H, X, Z1) :- cnt_sg_ind_bf(I, K, H, X), up(X, Z1).",
                    "supcnt_r2_3_sg_bf(I, K, H, X, Z2) :- supcnt_r2_2_sg_bf(I, K, H, X, Z1), sg_ind_bf(I+1, K*2+2, H*5+2, Z1, Z2).",
                    "supcnt_r2_4_sg_bf(I, K, H, X, Z3) :- supcnt_r2_3_sg_bf(I, K, H, X, Z2), flat(Z2, Z3).",
                    "sg_ind_bf(I, K, H, X, Y) :- cnt_sg_ind_bf(I, K, H, X), flat(X, Y).",
                    "sg_ind_bf(I, K, H, X, Y) :- supcnt_r2_4_sg_bf(I, K, H, X, Z3), sg_ind_bf(I+1, K*2+2, H*5+4, Z3, Z4), down(Z4, Y).",
                    "cnt_sg_ind_bf(I+1, K*2+2, H*5+2, Z1) :- supcnt_r2_2_sg_bf(I, K, H, X, Z1).",
                    "cnt_sg_ind_bf(I+1, K*2+2, H*5+4, Z3) :- supcnt_r2_4_sg_bf(I, K, H, X, Z3).",
                    "cnt_sg_ind_bf(0, 0, 0, john).",
                ],
            );
            assert_eq!(rewritten.program.len(), 8);
            assert_eq!(rewritten.method, Method::Gsc);
        }

        #[test]
        fn appendix_a61_ancestor() {
            let rewritten = gsc(
                "a(X, Y) :- p(X, Y).
                 a(X, Y) :- p(X, Z), a(Z, Y).",
                "a(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supcnt_r2_2_a_bf(I, K, H, X, Z) :- cnt_a_ind_bf(I, K, H, X), p(X, Z).",
                    "a_ind_bf(I, K, H, X, Y) :- cnt_a_ind_bf(I, K, H, X), p(X, Y).",
                    "a_ind_bf(I, K, H, X, Y) :- supcnt_r2_2_a_bf(I, K, H, X, Z), a_ind_bf(I+1, K*2+2, H*2+2, Z, Y).",
                    "cnt_a_ind_bf(I+1, K*2+2, H*2+2, Z) :- supcnt_r2_2_a_bf(I, K, H, X, Z).",
                    "cnt_a_ind_bf(0, 0, 0, john).",
                ],
            );
        }

        #[test]
        fn appendix_a64_list_reverse() {
            let rewritten = gsc(
                "append(V, [], [V]) :- .
                 append(V, [W | X], [W | Y]) :- append(V, X, Y).
                 reverse([], []) :- .
                 reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).",
                "reverse(list, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supcnt_r2_2_reverse_bf(I, K, H, V, X, Z) :- cnt_reverse_ind_bf(I, K, H, [V | X]), reverse_ind_bf(I+1, K*4+2, H*2+1, X, Z).",
                    "reverse_ind_bf(I, K, H, [], []) :- cnt_reverse_ind_bf(I, K, H, []).",
                    "reverse_ind_bf(I, K, H, [V | X], Y) :- supcnt_r2_2_reverse_bf(I, K, H, V, X, Z), append_ind_bbf(I+1, K*4+2, H*2+2, V, Z, Y).",
                    "cnt_append_ind_bbf(I+1, K*4+2, H*2+2, V, Z) :- supcnt_r2_2_reverse_bf(I, K, H, V, X, Z).",
                    "cnt_append_ind_bbf(I+1, K*4+4, H*2+1, V, X) :- cnt_append_ind_bbf(I, K, H, V, [W | X]).",
                    "append_ind_bbf(I, K, H, V, [W | X], [W | Y]) :- cnt_append_ind_bbf(I, K, H, V, [W | X]), append_ind_bbf(I+1, K*4+4, H*2+1, V, X, Y).",
                    "cnt_reverse_ind_bf(0, 0, 0, list).",
                ],
            );
        }

        #[test]
        fn supcnt_chain_only_built_up_to_last_arc() {
            // Nested same-generation: the last arc in the recursive p rule enters
            // the p literal (position 2), so only supcnt_2 is generated and b2 is
            // joined directly in the modified rule (Appendix A.6.3).
            let rewritten = gsc(
                "p(X, Y) :- b1(X, Y).
                 p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
                 sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).",
                "p(john, Y)",
            );
            assert_all_present(
                &texts(&rewritten),
                &[
                    "supcnt_r2_2_p_bf(I, K, H, X, Z1) :- cnt_p_ind_bf(I, K, H, X), sg_ind_bf(I+1, K*4+2, H*3+1, X, Z1).",
                    "p_ind_bf(I, K, H, X, Y) :- supcnt_r2_2_p_bf(I, K, H, X, Z1), p_ind_bf(I+1, K*4+2, H*3+2, Z1, Z2), b2(Z2, Y).",
                    "cnt_sg_ind_bf(I+1, K*4+2, H*3+1, X) :- cnt_p_ind_bf(I, K, H, X).",
                    "cnt_p_ind_bf(I+1, K*4+2, H*3+2, Z1) :- supcnt_r2_2_p_bf(I, K, H, X, Z1).",
                ],
            );
        }
    }
}
