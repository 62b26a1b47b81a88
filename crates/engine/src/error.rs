//! Evaluation errors.

use std::fmt;

/// Errors raised during bottom-up evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A rule produced a head that was not ground once its body was
    /// satisfied, i.e. the rule is not range-restricted.  (The unrewritten
    /// `reverse`/`append` exit rules of the paper's Appendix have this
    /// property; their magic-rewritten forms do not.)
    NotRangeRestricted {
        /// The offending rule, pretty-printed.
        rule: String,
    },
    /// The iteration limit was reached before the fixpoint.
    IterationLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The derived-fact limit was reached before the fixpoint.
    FactLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A derived value exceeded the term-depth limit (runaway function-symbol
    /// growth, e.g. counting on cyclic data).
    TermDepthLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A body atom refers to a relation with a different arity.
    ArityMismatch {
        /// The predicate involved.
        predicate: String,
        /// Arity used in the rule.
        rule_arity: usize,
        /// Arity of the stored relation.
        stored_arity: usize,
    },
    /// A negated atom reached evaluation with an unbound variable (the
    /// rule escaped the front-end safety check).
    UnsafeNegation {
        /// The offending rule, pretty-printed.
        rule: String,
    },
    /// The program's negation/aggregation closes a dependency cycle, so no
    /// stratified evaluation order exists.  Carries the offending predicate
    /// and the cycle it sits on.
    Unstratifiable {
        /// The negated/aggregated predicate closing the cycle.
        predicate: String,
        /// The members of the offending SCC, pretty-printed in order.
        cycle: Vec<String>,
    },
    /// A `sum`/`min`/`max` aggregate was applied to a non-integer value.
    AggregateType {
        /// The rule whose aggregate failed.
        rule: String,
        /// The offending (non-integer) value, pretty-printed.
        value: String,
    },
    /// A `sum` aggregate's total left the 64-bit integer range.
    AggregateOverflow {
        /// The rule whose aggregate overflowed.
        rule: String,
    },
    /// A stratified (guarded) program was driven through an entry point
    /// that cannot respect stratum order, e.g. an incremental resume.
    GuardedUnsupported {
        /// What was attempted.
        operation: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotRangeRestricted { rule } => {
                write!(f, "rule is not range-restricted (head not ground after body evaluation): {rule}")
            }
            EvalError::IterationLimit { limit } => {
                write!(f, "evaluation exceeded the iteration limit of {limit}")
            }
            EvalError::FactLimit { limit } => {
                write!(f, "evaluation exceeded the derived-fact limit of {limit}")
            }
            EvalError::TermDepthLimit { limit } => {
                write!(f, "evaluation produced a term deeper than the limit of {limit}")
            }
            EvalError::ArityMismatch {
                predicate,
                rule_arity,
                stored_arity,
            } => write!(
                f,
                "predicate {predicate} used with arity {rule_arity} but stored with arity {stored_arity}"
            ),
            EvalError::UnsafeNegation { rule } => {
                write!(f, "negated atom not fully bound by the positive body: {rule}")
            }
            EvalError::Unstratifiable { predicate, cycle } => write!(
                f,
                "program is not stratifiable: {predicate} is negated/aggregated inside the cycle [{}]",
                cycle.join(" -> ")
            ),
            EvalError::AggregateType { rule, value } => write!(
                f,
                "aggregate applied to non-integer value {value}: {rule}"
            ),
            EvalError::AggregateOverflow { rule } => {
                write!(f, "aggregate sum overflows a 64-bit integer: {rule}")
            }
            EvalError::GuardedUnsupported { operation } => write!(
                f,
                "stratified program (negation/aggregates) does not support {operation}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = EvalError::IterationLimit { limit: 100 };
        assert!(e.to_string().contains("100"));
        let e = EvalError::NotRangeRestricted {
            rule: "p(X) :- q.".into(),
        };
        assert!(e.to_string().contains("p(X)"));
    }
}
