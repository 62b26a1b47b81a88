//! `Relation::merge`: the bulk insert of one relation's rows into another.

use power_of_magic::lang::arena::intern_row;
use power_of_magic::lang::{PredName, Value};
use power_of_magic::Database;

fn pair(a: &str, b: &str) -> Vec<Value> {
    vec![Value::sym(a), Value::sym(b)]
}

#[test]
fn merge_dedups_preserves_ids_and_maintains_indexes() {
    let mut db = Database::new();
    let p = PredName::plain("p");
    for (a, b) in [("a", "b"), ("b", "c")] {
        db.insert(p.clone(), pair(a, b));
    }
    let mut other = Database::new();
    for (a, b) in [("b", "c"), ("c", "d"), ("a", "d")] {
        other.insert(p.clone(), pair(a, b));
    }

    let target = db.relation_mut_opt(&p).unwrap();
    // Index built *before* the merge: merge must maintain it, not
    // leave it stale.
    target.ensure_index(&[0]);
    let added = target.merge(other.relation(&p).unwrap());
    assert_eq!(added, 2, "one duplicate, two new");
    assert_eq!(target.len(), 4);

    // Pre-existing ids are untouched; new rows got the next ids in
    // the other relation's iteration order.
    assert_eq!(target.find_id(&intern_row(&pair("a", "b"))), Some(0));
    assert_eq!(target.id_of(&pair("b", "c")), Some(1));
    assert_eq!(target.id_of(&pair("c", "d")), Some(2));
    assert_eq!(target.id_of(&pair("a", "d")), Some(3));

    // The index answers reflect the merged rows, ascending by id.
    let a_key = intern_row(&[Value::sym("a")]);
    assert_eq!(target.lookup(&[0], &a_key), Some(&[0u32, 3][..]));

    // Dedup after merge: every merged row is a duplicate now.
    for (a, b) in [("b", "c"), ("c", "d"), ("a", "d")] {
        assert!(!target.insert(pair(a, b)));
    }
}

#[test]
fn merge_skips_tombstoned_source_rows() {
    let p = PredName::plain("p");
    let mut src_db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        src_db.insert(p.clone(), pair(a, b));
    }
    src_db.remove(&p, &pair("b", "c"));

    let mut dst_db = Database::new();
    dst_db.insert(p.clone(), pair("x", "y"));
    let dst = dst_db.relation_mut_opt(&p).unwrap();
    let added = dst.merge(src_db.relation(&p).unwrap());
    assert_eq!(added, 2, "the tombstoned source row must not travel");
    assert!(!dst.contains(&pair("b", "c")));
    assert_eq!(dst.len(), 3);
    assert_eq!(dst.tombstones(), 0);
}
