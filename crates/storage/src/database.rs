//! Databases: named collections of relations (the EDB, and the IDB produced
//! by evaluation).

use crate::relation::{Relation, Row};
use magic_datalog::arena::intern_row;
use magic_datalog::{Fact, PredName, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// A database: a finite set of finite relations, keyed by predicate name.
///
/// The same type stores the extensional database (base facts) and the
/// derived relations an evaluation produces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<PredName, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database {
            relations: BTreeMap::new(),
        }
    }

    /// Build a database from an iterator of facts.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Database {
        let mut db = Database::new();
        for f in facts {
            db.insert_fact(&f);
        }
        db
    }

    /// Insert a fact; returns `true` if it was new.  Borrows all the way
    /// down: the values are interned straight from the fact, and the name
    /// is cloned only if the relation has to be created.
    pub fn insert_fact(&mut self, fact: &Fact) -> bool {
        self.relation_mut(&fact.pred, fact.values.len())
            .insert_ids(&intern_row(&fact.values))
    }

    /// Insert a row under a predicate name; returns `true` if it was new.
    pub fn insert(&mut self, pred: PredName, row: Row) -> bool {
        let arity = row.len();
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity))
            .insert(row)
    }

    /// Insert a binary tuple of symbolic constants — the common case for the
    /// paper's workloads (`par`, `up`, `flat`, `down`).
    pub fn insert_pair(&mut self, pred: &str, a: &str, b: &str) -> bool {
        self.insert(PredName::plain(pred), vec![Value::sym(a), Value::sym(b)])
    }

    /// The relation for `pred`, if present.
    pub fn relation(&self, pred: &PredName) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// The relation for `pred`, creating an empty one of the given arity if
    /// absent.
    pub fn relation_mut(&mut self, pred: &PredName, arity: usize) -> &mut Relation {
        // The name is cloned only when the relation has to be created.
        if !self.relations.contains_key(pred) {
            self.relations.insert(pred.clone(), Relation::new(arity));
        }
        self.relations
            .get_mut(pred)
            .expect("present or just inserted")
    }

    /// Mutable access to the relations of several distinct predicates at
    /// once: element `i` is the relation of `preds[i]`, in the order given.
    /// One ordered walk over the stored relations between the least and the
    /// greatest name resolves them all, so a caller that reads and writes a
    /// fixed set of relations for a while (the fixpoint loop) names each
    /// once instead of once per access.  Creates nothing.
    ///
    /// # Errors
    ///
    /// [`AbsentRelation`] names the least predicate of `preds` the
    /// database has no relation for.
    ///
    /// # Panics
    ///
    /// Panics if a predicate appears twice in `preds`.
    pub fn relations_mut(
        &mut self,
        preds: &[PredName],
    ) -> Result<Vec<&mut Relation>, AbsentRelation> {
        let mut order: Vec<usize> = (0..preds.len()).collect();
        order.sort_unstable_by(|&a, &b| preds[a].cmp(&preds[b]));
        let mut found: Vec<Option<&mut Relation>> = preds.iter().map(|_| None).collect();
        let mut wanted = order.iter().copied().peekable();
        if let (Some(&least), Some(&greatest)) = (order.first(), order.last()) {
            let span = (
                Bound::Included(&preds[least]),
                Bound::Included(&preds[greatest]),
            );
            for (pred, relation) in self.relations.range_mut::<PredName, _>(span) {
                let Some(&next) = wanted.peek() else {
                    break;
                };
                match pred.cmp(&preds[next]) {
                    Ordering::Less => {}
                    Ordering::Equal => {
                        wanted.next();
                        if wanted.peek().is_some_and(|&again| preds[again] == *pred) {
                            panic!("relations_mut: predicate {pred} requested twice");
                        }
                        found[next] = Some(relation);
                    }
                    Ordering::Greater => return Err(AbsentRelation(preds[next].clone())),
                }
            }
        }
        if let Some(next) = wanted.next() {
            return Err(AbsentRelation(preds[next].clone()));
        }
        Ok(found
            .into_iter()
            .map(|relation| relation.expect("every requested relation was found"))
            .collect())
    }

    /// Mutable access to the relation for `pred`, if present (never
    /// creates).
    pub fn relation_mut_opt(&mut self, pred: &PredName) -> Option<&mut Relation> {
        self.relations.get_mut(pred)
    }

    /// Remove a row from the relation of `pred`; returns `true` if it was
    /// present.  Tombstone-based — see [`Relation::remove_id`] for the
    /// lifecycle.
    pub fn remove(&mut self, pred: &PredName, row: &[Value]) -> bool {
        self.relations
            .get_mut(pred)
            .is_some_and(|rel| rel.remove(row))
    }

    /// Remove a fact; returns `true` if it was present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        self.remove(&fact.pred, &fact.values)
    }

    /// Adopt a prebuilt relation under `pred`, replacing any existing one
    /// — the restore path of checkpointing, where whole relations are
    /// rebuilt from packed dumps (see
    /// [`Relation::from_packed_rows`]) and handed over wholesale instead
    /// of row by row.
    pub fn insert_relation(&mut self, pred: PredName, relation: Relation) {
        self.relations.insert(pred, relation);
    }

    /// Remove a whole relation, returning it if present.  Used to clean up
    /// scratch relations (e.g. the overdeletion shadow predicates of
    /// incremental maintenance) after a pass over the database.
    pub fn remove_relation(&mut self, pred: &PredName) -> Option<Relation> {
        self.relations.remove(pred)
    }

    /// True iff the database contains the fact.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.pred)
            .is_some_and(|r| r.contains(&fact.values))
    }

    /// Number of rows stored for `pred` (0 if absent).
    pub fn count(&self, pred: &PredName) -> usize {
        self.relations.get(pred).map_or(0, Relation::len)
    }

    /// Total number of rows across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterate over `(predicate, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&PredName, &Relation)> + '_ {
        self.relations.iter()
    }

    /// The predicates present in the database.
    pub fn predicates(&self) -> impl Iterator<Item = &PredName> + '_ {
        self.relations.keys()
    }

    /// Iterate over every fact in the database.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations
            .iter()
            .flat_map(|(pred, rel)| rel.iter().map(move |row| Fact::new(pred.clone(), row)))
    }

    /// Merge all relations of `other` into `self`; returns the number of new
    /// rows.
    pub fn merge(&mut self, other: &Database) -> usize {
        let mut added = 0;
        for (pred, rel) in other.iter() {
            for row in rel.iter() {
                if self.insert(pred.clone(), row) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Per-predicate row counts (useful for reporting fact-count tables).
    pub fn counts(&self) -> BTreeMap<PredName, usize> {
        self.relations
            .iter()
            .map(|(p, r)| (p.clone(), r.len()))
            .collect()
    }
}

/// The error of [`Database::relations_mut`]: a requested predicate has no
/// relation in the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsentRelation(pub PredName);

impl fmt::Display for AbsentRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the database has no relation for predicate {}", self.0)
    }
}

impl std::error::Error for AbsentRelation {}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pred, rel) in &self.relations {
            for row in rel.iter() {
                write!(f, "{pred}(")?;
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

impl FromIterator<Fact> for Database {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        Database::from_facts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        assert!(db.insert_pair("par", "a", "b"));
        assert!(!db.insert_pair("par", "a", "b"));
        assert!(db.insert_pair("par", "b", "c"));
        assert_eq!(db.count(&PredName::plain("par")), 2);
        assert_eq!(db.total_facts(), 2);
        assert!(db.contains(&Fact::plain("par", vec![Value::sym("a"), Value::sym("b")])));
        assert!(!db.contains(&Fact::plain("par", vec![Value::sym("z"), Value::sym("b")])));
    }

    #[test]
    fn from_facts_roundtrip() {
        let facts = vec![
            Fact::plain("p", vec![Value::int(1)]),
            Fact::plain("q", vec![Value::int(2), Value::int(3)]),
        ];
        let db = Database::from_facts(facts.clone());
        let collected: Vec<Fact> = db.facts().collect();
        assert_eq!(collected.len(), 2);
        for f in &facts {
            assert!(db.contains(f));
        }
    }

    #[test]
    fn merge_and_counts() {
        let mut a = Database::new();
        a.insert_pair("par", "a", "b");
        let mut b = Database::new();
        b.insert_pair("par", "a", "b");
        b.insert_pair("up", "a", "c");
        assert_eq!(a.merge(&b), 1);
        let counts = a.counts();
        assert_eq!(counts[&PredName::plain("par")], 1);
        assert_eq!(counts[&PredName::plain("up")], 1);
    }

    #[test]
    fn display_lists_facts() {
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        assert_eq!(db.to_string(), "par(a, b).\n");
    }

    #[test]
    fn relations_mut_keeps_the_requested_order_and_names_an_absent_predicate() {
        let mut db = Database::new();
        for (pred, arity) in [("a", 1), ("c", 2), ("e", 3), ("g", 1)] {
            db.relation_mut(&PredName::plain(pred), arity);
        }
        let names =
            |list: &[&str]| -> Vec<PredName> { list.iter().map(|p| PredName::plain(p)).collect() };
        // Out of name order, and skipping stored relations: element `i` is
        // the relation of `preds[i]` (told apart by arity).
        let preds = names(&["e", "a", "g", "c"]);
        let arities: Vec<usize> = db
            .relations_mut(&preds)
            .unwrap()
            .iter()
            .map(|r| r.arity())
            .collect();
        assert_eq!(arities, vec![3, 1, 1, 2]);
        // Writes through the handles land in the named relations.
        db.relations_mut(&names(&["c"])).unwrap()[0].insert(vec![Value::sym("x"), Value::sym("y")]);
        assert_eq!(db.count(&PredName::plain("c")), 1);
        assert!(db.relations_mut(&[]).unwrap().is_empty());
        // An absent predicate is named, wherever it falls in the walk:
        // before, between and after the stored names; the least one first.
        for (list, absent) in [
            (&["a", "0"][..], "0"),
            (&["c", "d", "e"][..], "d"),
            (&["z", "a"][..], "z"),
            (&["h", "b", "g"][..], "b"),
        ] {
            let err = db.relations_mut(&names(list)).unwrap_err();
            assert_eq!(err, AbsentRelation(PredName::plain(absent)), "{list:?}");
            assert!(err.to_string().ends_with(&err.0.to_string()), "{err}");
        }
        // Nothing was created on the way.
        assert_eq!(db.predicates().count(), 4);
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn relations_mut_refuses_a_predicate_twice() {
        let mut db = Database::new();
        db.relation_mut(&PredName::plain("a"), 1);
        let a = PredName::plain("a");
        let _ = db.relations_mut(&[a.clone(), a]);
    }

    #[test]
    fn relation_mut_creates() {
        let mut db = Database::new();
        db.relation_mut(&PredName::plain("empty"), 3);
        assert_eq!(db.count(&PredName::plain("empty")), 0);
        assert!(db.relation(&PredName::plain("empty")).is_some());
    }
}
