//! Resource limits for bottom-up evaluation.
//!
//! The paper's safety results (Section 10) identify programs for which the
//! counting rewrites do not terminate (cyclic data, cyclic argument graphs).
//! Limits turn those divergences into observable errors instead of hangs.

/// Resource limits applied during evaluation.  Every limit is a count, so
/// a run that stops at one stops at the same point on every host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Limits {
    /// Maximum number of fixpoint iterations.
    pub max_iterations: usize,
    /// Maximum total number of derived facts.
    pub max_facts: usize,
    /// Maximum nesting depth of any derived value (function-symbol growth).
    pub max_term_depth: usize,
}

impl Limits {
    /// Generous defaults suitable for the workloads in this repository.
    pub const DEFAULT: Limits = Limits {
        max_iterations: 1_000_000,
        max_facts: 50_000_000,
        max_term_depth: 100_000,
    };

    /// Tight limits for tests that expect divergence to be detected quickly.
    ///
    /// The iteration limit is deliberately below the ~60 derivation levels at
    /// which the counting rewrites' rule-sequence index saturates `i64`, so a
    /// divergent counting run is reported as an iteration-limit error rather
    /// than silently plateauing.
    pub fn strict() -> Limits {
        Limits {
            max_iterations: 56,
            max_facts: 200_000,
            max_term_depth: 512,
        }
    }

    /// Override the iteration limit.
    pub fn with_max_iterations(mut self, limit: usize) -> Limits {
        self.max_iterations = limit;
        self
    }

    /// Override the fact limit.
    pub fn with_max_facts(mut self, limit: usize) -> Limits {
        self.max_facts = limit;
        self
    }

    /// Override the term-depth limit.
    pub fn with_max_term_depth(mut self, limit: usize) -> Limits {
        self.max_term_depth = limit;
        self
    }

    /// Accepted and ignored: evaluation runs on the calling thread, so
    /// there is no thread count to set.  Returns the limits unchanged.
    pub fn with_threads(self, _threads: usize) -> Limits {
        self
    }
}

impl Default for Limits {
    fn default() -> Self {
        Limits::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let l = Limits::default()
            .with_max_iterations(10)
            .with_max_facts(20)
            .with_max_term_depth(30);
        assert_eq!(l.max_iterations, 10);
        assert_eq!(l.max_facts, 20);
        assert_eq!(l.max_term_depth, 30);
        assert_eq!(l.with_threads(4), l);
        assert!(Limits::strict().max_iterations < Limits::DEFAULT.max_iterations);
    }
}
