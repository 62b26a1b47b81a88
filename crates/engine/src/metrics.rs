//! Evaluation metrics.
//!
//! Section 9 of the paper compares strategies by the *facts* and *subqueries*
//! they generate; Section 11 and the companion study \[5\] compare them by rule
//! firings and duplicate derivations.  These counters make all of those
//! observable.

use magic_datalog::PredName;
use std::collections::BTreeMap;
use std::fmt;

/// Counters collected during one evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations executed.
    pub iterations: usize,
    /// Number of successful rule firings (head instantiations produced,
    /// including duplicates of already-known facts).
    pub rule_firings: usize,
    /// Number of *new* facts derived (excluding the base facts).
    pub facts_derived: usize,
    /// Number of duplicate derivations (firings whose head fact was already
    /// known).
    pub duplicate_derivations: usize,
    /// Number of candidate tuples examined while joining rule bodies.
    pub join_probes: usize,
    /// New facts per predicate.
    pub facts_by_pred: BTreeMap<PredName, usize>,
    /// Firings per rule index.
    pub firings_by_rule: BTreeMap<usize, usize>,
}

impl EvalStats {
    /// Record `fired` firings of rule `rule_idx` deriving `pred`, `new` of
    /// which produced new facts.  The fixpoint loop folds one plan's whole
    /// insert batch of an iteration into the counters with one call.  Every
    /// counter here is a sum, so splitting a batch over several calls (or
    /// recording row by row) gives bit-identical totals in any order.
    pub fn record_firings(&mut self, rule_idx: usize, pred: &PredName, fired: usize, new: usize) {
        debug_assert!(new <= fired);
        if fired == 0 {
            return;
        }
        self.rule_firings += fired;
        *self.firings_by_rule.entry(rule_idx).or_insert(0) += fired;
        self.facts_derived += new;
        self.duplicate_derivations += fired - new;
        if new > 0 {
            if let Some(n) = self.facts_by_pred.get_mut(pred) {
                *n += new;
            } else {
                self.facts_by_pred.insert(pred.clone(), new);
            }
        }
    }

    /// Accumulate another run's counters into these (the per-predicate and
    /// per-rule breakdowns are summed key-wise).  The incremental view
    /// layer uses this to keep lifetime maintenance totals per view, and
    /// the serving layer to aggregate across every view of a catalog.
    pub fn merge(&mut self, other: &EvalStats) {
        self.iterations += other.iterations;
        self.rule_firings += other.rule_firings;
        self.facts_derived += other.facts_derived;
        self.duplicate_derivations += other.duplicate_derivations;
        self.join_probes += other.join_probes;
        for (pred, n) in &other.facts_by_pred {
            *self.facts_by_pred.entry(pred.clone()).or_insert(0) += n;
        }
        for (rule, n) in &other.firings_by_rule {
            *self.firings_by_rule.entry(*rule).or_insert(0) += n;
        }
    }

    /// Total facts derived for predicates satisfying `filter`.
    pub fn facts_matching(&self, mut filter: impl FnMut(&PredName) -> bool) -> usize {
        self.facts_by_pred
            .iter()
            .filter(|(p, _)| filter(p))
            .map(|(_, n)| n)
            .sum()
    }

    /// Facts derived in auxiliary (magic / supplementary / counting)
    /// predicates.
    pub fn auxiliary_facts(&self) -> usize {
        self.facts_matching(|p| p.is_auxiliary())
    }

    /// Facts derived in answer (plain / adorned / indexed) predicates.
    pub fn answer_facts(&self) -> usize {
        self.facts_matching(|p| p.is_answer_predicate())
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "iterations: {}, firings: {}, new facts: {}, duplicates: {}, join probes: {}",
            self.iterations,
            self.rule_firings,
            self.facts_derived,
            self.duplicate_derivations,
            self.join_probes
        )?;
        for (pred, n) in &self.facts_by_pred {
            writeln!(f, "  {pred}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_firings_match_individual_recording() {
        let p = PredName::plain("anc");
        let mut bulk = EvalStats::default();
        bulk.record_firings(2, &p, 5, 3);
        bulk.record_firings(2, &p, 0, 0); // no-op, inserts no entries
        bulk.record_firings(3, &p, 4, 0); // duplicates only: no facts_by_pred entry
        let mut one = EvalStats::default();
        for i in 0..5 {
            one.record_firings(2, &p, 1, usize::from(i < 3));
        }
        for _ in 0..4 {
            one.record_firings(3, &p, 1, 0);
        }
        assert_eq!(bulk, one);
        assert_eq!(
            (
                bulk.rule_firings,
                bulk.facts_derived,
                bulk.duplicate_derivations
            ),
            (9, 3, 6)
        );
        assert_eq!(bulk.facts_by_pred, BTreeMap::from([(p, 3)]));
        assert_eq!(bulk.firings_by_rule, BTreeMap::from([(2, 5), (3, 4)]));
    }

    #[test]
    fn record_firings_updates_counters() {
        let mut s = EvalStats::default();
        let p = PredName::plain("anc");
        let m = PredName::magic("anc", "bf".parse().unwrap());
        s.record_firings(0, &p, 2, 1);
        s.record_firings(1, &m, 1, 1);
        assert_eq!(s.rule_firings, 3);
        assert_eq!(s.facts_derived, 2);
        assert_eq!(s.duplicate_derivations, 1);
        assert_eq!(s.facts_by_pred[&p], 1);
        assert_eq!(s.firings_by_rule[&0], 2);
        assert_eq!(s.auxiliary_facts(), 1);
        assert_eq!(s.answer_facts(), 1);
        assert!(s.to_string().contains("firings: 3"));
    }
}
