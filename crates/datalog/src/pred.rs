//! Structured predicate names.
//!
//! The rewriting algorithms of the paper introduce whole families of new
//! predicates — adorned versions `p^a`, magic predicates `magic_p^a`,
//! supplementary magic predicates `supmagic^r_i`, indexed predicates
//! `p_ind^a`, counting predicates `cnt_p_ind^a`, supplementary counting
//! predicates `supcnt^r_i` and (for multi-arc sips) label predicates.
//! Representing these structurally rather than by string mangling keeps the
//! rewrites testable and lets the pretty-printer reproduce the paper's
//! notation.

use crate::adornment::Adornment;
use crate::symbol::{Constant, Symbol};
use std::fmt;

/// A (possibly rewritten) predicate name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PredName {
    /// An ordinary predicate from the source program or database, e.g. `par`.
    Plain(Symbol),
    /// An adorned derived predicate `p^a` (Section 3).
    Adorned {
        /// The underlying predicate.
        base: Symbol,
        /// Its adornment.
        adornment: Adornment,
    },
    /// A magic predicate `magic_p^a` (Section 4).
    Magic {
        /// The underlying predicate.
        base: Symbol,
        /// The adornment of the adorned predicate this magic set feeds.
        adornment: Adornment,
    },
    /// A label predicate `label_q_j` used when several sip arcs enter the
    /// same body literal (Section 4).
    Label {
        /// The underlying predicate of the target literal.
        base: Symbol,
        /// The adornment of the target literal.
        adornment: Adornment,
        /// The index of the adorned rule the label belongs to.
        rule: usize,
        /// The index of the arc among those entering the literal.
        arc: usize,
    },
    /// A supplementary magic predicate `supmagic^r_i` (Section 5).
    Supplementary {
        /// The head predicate of the adorned rule.
        base: Symbol,
        /// The head adornment of the adorned rule.
        adornment: Adornment,
        /// The index of the adorned rule.
        rule: usize,
        /// The position `i` within the rule body (1-based, as in the paper).
        position: usize,
    },
    /// An indexed adorned predicate `p_ind^a` with three index arguments
    /// prepended (Section 6).
    Indexed {
        /// The underlying predicate.
        base: Symbol,
        /// Its adornment (over the non-index arguments).
        adornment: Adornment,
    },
    /// A counting predicate `cnt_p_ind^a` (Section 6).
    Count {
        /// The underlying predicate.
        base: Symbol,
        /// Its adornment (over the non-index arguments).
        adornment: Adornment,
    },
    /// A supplementary counting predicate `supcnt^r_i` (Section 7).
    SupCount {
        /// The head predicate of the adorned rule.
        base: Symbol,
        /// The head adornment of the adorned rule.
        adornment: Adornment,
        /// The index of the adorned rule.
        rule: usize,
        /// The position `i` within the rule body (1-based).
        position: usize,
    },
}

impl PredName {
    /// A plain predicate name.
    pub fn plain(name: &str) -> PredName {
        PredName::Plain(Symbol::new(name))
    }

    /// An adorned predicate `p^a`.
    pub fn adorned(name: &str, adornment: Adornment) -> PredName {
        PredName::Adorned {
            base: Symbol::new(name),
            adornment,
        }
    }

    /// A magic predicate `magic_p^a`.
    pub fn magic(name: &str, adornment: Adornment) -> PredName {
        PredName::Magic {
            base: Symbol::new(name),
            adornment,
        }
    }

    /// An indexed predicate `p_ind^a`.
    pub fn indexed(name: &str, adornment: Adornment) -> PredName {
        PredName::Indexed {
            base: Symbol::new(name),
            adornment,
        }
    }

    /// A counting predicate `cnt_p_ind^a`.
    pub fn count(name: &str, adornment: Adornment) -> PredName {
        PredName::Count {
            base: Symbol::new(name),
            adornment,
        }
    }

    /// The underlying source-program predicate symbol.
    pub fn base(&self) -> Symbol {
        match self {
            PredName::Plain(s) => *s,
            PredName::Adorned { base, .. }
            | PredName::Magic { base, .. }
            | PredName::Label { base, .. }
            | PredName::Supplementary { base, .. }
            | PredName::Indexed { base, .. }
            | PredName::Count { base, .. }
            | PredName::SupCount { base, .. } => *base,
        }
    }

    /// The adornment carried by the name, if any.
    pub fn adornment(&self) -> Option<&Adornment> {
        match self {
            PredName::Plain(_) => None,
            PredName::Adorned { adornment, .. }
            | PredName::Magic { adornment, .. }
            | PredName::Label { adornment, .. }
            | PredName::Supplementary { adornment, .. }
            | PredName::Indexed { adornment, .. }
            | PredName::Count { adornment, .. }
            | PredName::SupCount { adornment, .. } => Some(adornment),
        }
    }

    /// True for auxiliary predicates introduced by a rewrite (magic, label,
    /// supplementary, counting, supplementary counting).
    pub fn is_auxiliary(&self) -> bool {
        matches!(
            self,
            PredName::Magic { .. }
                | PredName::Label { .. }
                | PredName::Supplementary { .. }
                | PredName::Count { .. }
                | PredName::SupCount { .. }
        )
    }

    /// True for magic or counting predicates (the "subquery" predicates whose
    /// contents correspond to generated subqueries in Section 9).
    pub fn is_subquery_predicate(&self) -> bool {
        matches!(self, PredName::Magic { .. } | PredName::Count { .. })
    }

    /// True for the adorned / indexed versions of a source predicate (the
    /// predicates whose tuples correspond to answers of subqueries).
    pub fn is_answer_predicate(&self) -> bool {
        matches!(
            self,
            PredName::Plain(_) | PredName::Adorned { .. } | PredName::Indexed { .. }
        )
    }
}

impl From<&str> for PredName {
    fn from(s: &str) -> Self {
        PredName::plain(s)
    }
}

impl fmt::Display for PredName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredName::Plain(s) => write!(f, "{}", Constant(*s)),
            PredName::Adorned { base, adornment } => write!(f, "{base}_{adornment}"),
            PredName::Magic { base, adornment } => write!(f, "magic_{base}_{adornment}"),
            PredName::Label {
                base,
                adornment,
                rule,
                arc,
            } => write!(f, "label_{base}_{adornment}_r{rule}_a{arc}"),
            PredName::Supplementary {
                base,
                adornment,
                rule,
                position,
            } => write!(f, "supmagic_r{rule}_{position}_{base}_{adornment}"),
            PredName::Indexed { base, adornment } => write!(f, "{base}_ind_{adornment}"),
            PredName::Count { base, adornment } => write!(f, "cnt_{base}_ind_{adornment}"),
            PredName::SupCount {
                base,
                adornment,
                rule,
                position,
            } => write!(f, "supcnt_r{rule}_{position}_{base}_{adornment}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf() -> Adornment {
        "bf".parse().unwrap()
    }

    #[test]
    fn display_matches_paper_conventions() {
        assert_eq!(PredName::plain("par").to_string(), "par");
        assert_eq!(PredName::adorned("sg", bf()).to_string(), "sg_bf");
        assert_eq!(PredName::magic("sg", bf()).to_string(), "magic_sg_bf");
        assert_eq!(PredName::indexed("sg", bf()).to_string(), "sg_ind_bf");
        assert_eq!(PredName::count("sg", bf()).to_string(), "cnt_sg_ind_bf");
    }

    #[test]
    fn base_and_adornment_accessors() {
        let p = PredName::magic("anc", bf());
        assert_eq!(p.base().as_str(), "anc");
        assert_eq!(p.adornment().unwrap().to_string(), "bf");
        assert!(p.is_auxiliary());
        assert!(p.is_subquery_predicate());
        assert!(!p.is_answer_predicate());
    }

    #[test]
    fn plain_predicates_are_answers() {
        let p = PredName::plain("anc");
        assert!(p.is_answer_predicate());
        assert!(!p.is_auxiliary());
        assert!(p.adornment().is_none());
    }

    #[test]
    fn structured_names_are_distinct() {
        let a = PredName::adorned("sg", bf());
        let m = PredName::magic("sg", bf());
        let i = PredName::indexed("sg", bf());
        assert_ne!(a, m);
        assert_ne!(a, i);
        assert_ne!(m, i);
    }
}
