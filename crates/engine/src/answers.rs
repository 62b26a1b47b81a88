//! Extracting query answers from an evaluated database.

use magic_datalog::{Atom, Bindings, Query, Value, Variable};
use magic_storage::Database;
use std::collections::BTreeSet;

/// The positions of `atom` holding ground terms, with their values.
///
/// These are the bound constants of a query atom — the selection the
/// relation's hash indexes can answer directly.
fn ground_positions(atom: &Atom) -> Option<(Vec<usize>, Vec<Value>)> {
    let empty = Bindings::new();
    let mut positions = Vec::new();
    let mut key = Vec::new();
    for (p, term) in atom.terms.iter().enumerate() {
        if term.vars().is_empty() {
            // A ground term that does not evaluate (only possible for
            // malformed linear expressions) matches nothing.
            positions.push(p);
            key.push(term.eval(&empty)?);
        }
    }
    Some((positions, key))
}

/// Ensure the relation of `atom` carries an index on the atom's
/// bound-constant positions, so that [`match_atom`]'s `select_ids`-style
/// probe hits it.  The planner calls this once per executed plan before
/// projecting answers; it is a no-op for fully free atoms, and for fully
/// bound ones (a membership test, which the relation's dedup table
/// answers: `Relation::ensure_index` builds nothing for a whole-row key).
pub fn ensure_atom_index(db: &mut Database, atom: &Atom) {
    let Some((positions, _)) = ground_positions(atom) else {
        return;
    };
    if positions.is_empty() {
        return;
    }
    let relation = db.relation_mut(&atom.pred, atom.arity());
    if relation.arity() == atom.arity() {
        relation.ensure_index(&positions);
    }
}

/// All binding environments under which `atom` matches a stored fact.
///
/// When the atom carries bound constants, the candidate rows are selected
/// through the relation's hash index on those positions (the same
/// `ensure_index`/`lookup` pair `Relation::select_ids` is built from)
/// instead of scanning every row — or, when every position is bound,
/// through the dedup table (`Relation::find_id`); `scan_select` is the
/// fallback when no index has been ensured on the pattern yet.  Rows are
/// decoded from the packed storage only for the candidates that reach the
/// matcher — this is the API edge where `Value`s re-enter.
pub fn match_atom(db: &Database, atom: &Atom) -> Vec<Bindings> {
    let Some(relation) = db.relation(&atom.pred) else {
        return Vec::new();
    };
    if relation.arity() != atom.arity() {
        return Vec::new();
    }
    let Some((positions, key)) = ground_positions(atom) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut match_id = |id: usize| {
        let mut env = Bindings::new();
        if atom.match_row(&relation.row_values(id), &mut env) {
            out.push(env);
        }
    };
    if positions.is_empty() {
        for (id, _) in relation.iter_ids() {
            match_id(id);
        }
    } else {
        let key = magic_storage::arena::intern_row(&key);
        if relation.covers_row(&positions) {
            relation.find_id(&key).into_iter().for_each(&mut match_id);
        } else {
            match relation.lookup(&positions, &key) {
                Some(ids) => ids.iter().for_each(|&id| match_id(id as usize)),
                None => relation
                    .scan_select(&positions, &key)
                    .into_iter()
                    .for_each(&mut match_id),
            }
        }
    }
    out
}

/// The distinct value vectors taken by `projection` (a list of variables of
/// `atom`) over all matches of `atom` in `db`.
pub fn project_answers(
    db: &Database,
    atom: &Atom,
    projection: &[Variable],
) -> BTreeSet<Vec<Value>> {
    match_atom(db, atom)
        .into_iter()
        .filter_map(|env| {
            projection
                .iter()
                .map(|v| env.get(v).cloned())
                .collect::<Option<Vec<Value>>>()
        })
        .collect()
}

/// The answers to a query: the distinct vectors of values for the query's
/// free variables, in the order the variables appear in the query atom.
///
/// This is "the set of bindings to the vector of variables X that make the
/// query expression true" from Section 1.1.
pub fn query_answers(db: &Database, query: &Query) -> BTreeSet<Vec<Value>> {
    let projection = query.free_vars();
    project_answers(db, &query.atom, &projection)
}

/// True iff the database contains at least one match for the query.
pub fn holds(db: &Database, query: &Query) -> bool {
    !match_atom(db, &query.atom).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::{parse_query, PredName, Term};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_pair("anc", "john", "mary");
        db.insert_pair("anc", "john", "ann");
        db.insert_pair("anc", "mary", "ann");
        db
    }

    #[test]
    fn query_answers_filters_on_bound_args() {
        let q = parse_query("anc(john, Y)").unwrap();
        let answers = query_answers(&db(), &q);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&vec![Value::sym("mary")]));
        assert!(answers.contains(&vec![Value::sym("ann")]));
    }

    #[test]
    fn fully_free_query_returns_all_rows() {
        let q = parse_query("anc(X, Y)").unwrap();
        assert_eq!(query_answers(&db(), &q).len(), 3);
    }

    #[test]
    fn fully_bound_query_acts_as_membership_test() {
        let yes = parse_query("anc(john, ann)").unwrap();
        let no = parse_query("anc(ann, john)").unwrap();
        assert!(holds(&db(), &yes));
        assert!(!holds(&db(), &no));
        // A fully bound query has no free variables: one empty answer row.
        assert_eq!(query_answers(&db(), &yes).len(), 1);
        assert_eq!(query_answers(&db(), &no).len(), 0);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut d = db();
        d.insert_pair("anc", "x", "x");
        let atom = Atom::plain("anc", vec![Term::var("X"), Term::var("X")]);
        let matches = match_atom(&d, &atom);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn missing_relation_gives_no_answers() {
        let q = parse_query("unknown(X)").unwrap();
        assert!(query_answers(&db(), &q).is_empty());
        assert!(!holds(&db(), &q));
    }

    #[test]
    fn project_on_subset_of_variables() {
        let atom = Atom::plain("anc", vec![Term::var("X"), Term::var("Y")]);
        let proj = project_answers(&db(), &atom, &[Variable::new("X")]);
        assert_eq!(proj.len(), 2); // john, mary
        assert!(proj.contains(&vec![Value::sym("john")]));
        let _ = PredName::plain("anc");
    }
}
