//! Test suite for the interned packed-row storage layer (PR 3).
//!
//! Three angles:
//!
//! * **Interner round-trips** — every shape of ground value (integers in
//!   and out of the inline range, symbols, nested compounds/lists) must
//!   survive `Value -> ValId -> Value`, and id equality must coincide with
//!   structural equality (hash-consing).
//! * **Randomized storage oracle** — a `Relation` under a random
//!   insert/remove/compact interleaving must behave exactly like a
//!   `HashSet<Vec<Value>>`, including index answers and iteration, with
//!   tombstones and compaction invisible to the set semantics; a second,
//!   tombstone-heavy churn drives the dedup table through growth, slot
//!   reuse and same-size rehashes.
//! * **Pinned probe counts** — the packed layout is a pure representation
//!   change: the gms-rewritten ancestor plan must do bit-identical join
//!   work (`join_probes`) to the `Vec<Value>` engine it replaced.  (The
//!   semi-naive pin lives in `tests/engine_equivalence.rs`.)

use power_of_magic::lang::{ValId, Value};
use power_of_magic::storage::arena::{decode_row, intern_row};
use power_of_magic::storage::Relation;
use power_of_magic::workloads::{chain, programs, SplitMix64};
use power_of_magic::{Planner, Strategy};
use std::collections::HashSet;

#[test]
fn interner_round_trips_every_value_shape() {
    let values = vec![
        Value::Int(0),
        Value::Int(-1),
        Value::Int(41),
        Value::Int((1 << 29) - 1), // largest inline int
        Value::Int(-(1 << 29)),    // smallest inline int
        Value::Int(1 << 29),       // first table int
        Value::Int(i64::MAX),      // saturated counting index
        Value::Int(i64::MIN),
        Value::sym("john"),
        Value::sym("a_longer_symbol_name"),
        Value::app("f".into(), vec![Value::sym("a"), Value::Int(3)]),
        Value::app(
            "g".into(),
            vec![Value::app("f".into(), vec![Value::Int(7)]), Value::sym("x")],
        ),
        Value::list(vec![Value::sym("a"), Value::sym("b"), Value::sym("c")]),
        Value::list(vec![Value::list(vec![Value::Int(1)]), Value::nil()]),
        Value::nil(),
    ];
    for v in &values {
        let id = ValId::intern(v);
        assert_eq!(&id.value(), v, "round trip of {v}");
        assert_eq!(ValId::intern(v), id, "re-interning {v} must hit the cons");
        assert_eq!(id.depth(), v.depth(), "cached depth of {v}");
    }
    // Pairwise: distinct values get distinct ids, equal values equal ids.
    for (i, a) in values.iter().enumerate() {
        for (j, b) in values.iter().enumerate() {
            assert_eq!(
                ValId::intern(a) == ValId::intern(b),
                i == j,
                "id equality must mirror structural equality ({a} vs {b})"
            );
        }
    }
    let row = values.clone();
    assert_eq!(decode_row(&intern_row(&row)), row);
}

/// One random value from a small universe (so collisions and re-insertions
/// actually happen).
fn random_row(rng: &mut SplitMix64) -> Vec<Value> {
    let a = Value::Int(rng.random_range(0..12) as i64);
    let b = match rng.random_range(0..3) {
        0 => Value::sym(["x", "y", "z", "w"][rng.random_range(0..4)]),
        1 => Value::Int(rng.random_range(0..8) as i64),
        _ => Value::list(vec![Value::Int(rng.random_range(0..4) as i64)]),
    };
    vec![a, b]
}

#[test]
fn randomized_insert_remove_compact_matches_hashset_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0x9AC3ED);
    for round in 0..30 {
        let mut rel = Relation::new(2);
        rel.ensure_index(&[0]);
        let mut oracle: HashSet<Vec<Value>> = HashSet::new();
        for step in 0..400 {
            match rng.random_range(0..100) {
                // Insert (common).
                0..=54 => {
                    let row = random_row(&mut rng);
                    let fresh = rel.insert(row.clone());
                    assert_eq!(fresh, oracle.insert(row), "round {round} step {step}");
                }
                // Remove a (possibly absent) row.
                55..=84 => {
                    let row = random_row(&mut rng);
                    let present = rel.remove(&row);
                    assert_eq!(present, oracle.remove(&row), "round {round} step {step}");
                }
                // Compact away the tombstones.
                85..=89 => {
                    rel.compact();
                    assert_eq!(rel.tombstones(), 0);
                    assert_eq!(rel.watermark(), rel.len());
                }
                // Point lookups and index answers.
                _ => {
                    let row = random_row(&mut rng);
                    assert_eq!(rel.contains(&row), oracle.contains(&row));
                    let key = intern_row(&row[..1]);
                    let indexed: HashSet<Vec<Value>> = rel
                        .lookup(&[0], &key)
                        .expect("index ensured up front")
                        .iter()
                        .map(|&id| rel.row_values(id as usize))
                        .collect();
                    let expected: HashSet<Vec<Value>> =
                        oracle.iter().filter(|r| r[0] == row[0]).cloned().collect();
                    assert_eq!(indexed, expected, "round {round} step {step}");
                    // The index fallback path must agree with the index.
                    let scanned: HashSet<Vec<Value>> = rel
                        .scan_select(&[0], &key)
                        .into_iter()
                        .map(|id| rel.row_values(id))
                        .collect();
                    assert_eq!(scanned, expected);
                }
            }
            assert_eq!(rel.len(), oracle.len(), "round {round} step {step}");
        }
        // Full-content check at the end of every round.
        let stored: HashSet<Vec<Value>> = rel.iter().collect();
        assert_eq!(stored, oracle, "round {round} final contents");
        // Ids listed by any index stay ascending (the delta-window
        // invariant) and live.
        for (id, _) in rel.iter_ids() {
            assert!(rel.is_live(id));
        }
    }
}

#[test]
fn tombstone_heavy_churn_matches_hashset_oracle() {
    // The small-universe oracle above keeps every dedup shard at a
    // handful of rows.  This one drives the open-addressed dedup table
    // through its whole life cycle: a wide universe (thousands of live
    // rows, so shards grow through several rehashes), then waves that
    // remove most of the relation and re-insert other rows without
    // compacting — tombstones pile up, inserts reuse their slots, and
    // same-size rehashes sweep them — with membership checked against a
    // `HashSet` at every step and in full after every wave.
    let mut rng = SplitMix64::seed_from_u64(0x00D3_D014);
    let row = |k: usize| vec![Value::Int((k % 61) as i64), Value::Int((k / 61) as i64)];
    const UNIVERSE: usize = 6000;
    let mut rel = Relation::new(2);
    rel.ensure_index(&[0]);
    let mut oracle: HashSet<usize> = HashSet::new();
    for wave in 0..8 {
        // Odd waves mostly remove, even waves mostly insert.
        let insert_share = if wave % 2 == 0 { 85 } else { 15 };
        for step in 0..4000 {
            let k = rng.random_range(0..UNIVERSE);
            if rng.random_range(0..100) < insert_share {
                assert_eq!(
                    rel.insert(row(k)),
                    oracle.insert(k),
                    "wave {wave} step {step}"
                );
            } else {
                assert_eq!(
                    rel.remove(&row(k)),
                    oracle.remove(&k),
                    "wave {wave} step {step}"
                );
            }
            let probe = rng.random_range(0..UNIVERSE);
            assert_eq!(rel.contains(&row(probe)), oracle.contains(&probe));
            assert_eq!(rel.len(), oracle.len(), "wave {wave} step {step}");
        }
        // Every row, present or absent, answers like the oracle; ids
        // found through the dedup table are live and hold the row.
        for k in 0..UNIVERSE {
            match rel.id_of(&row(k)) {
                Some(id) => {
                    assert!(
                        oracle.contains(&k) && rel.is_live(id),
                        "wave {wave} row {k}"
                    );
                    assert_eq!(rel.row_values(id), row(k));
                }
                None => assert!(!oracle.contains(&k), "wave {wave} row {k} lost"),
            }
        }
        let key = intern_row(&[Value::Int((wave * 7) as i64)]);
        let ids = rel.lookup(&[0], &key).expect("index ensured up front");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
        let scanned: Vec<u32> = rel
            .scan_select(&[0], &key)
            .into_iter()
            .map(|id| id as u32)
            .collect();
        assert_eq!(ids, scanned);
        if wave == 3 {
            // One compaction mid-way: the table is rebuilt from scratch
            // and the churn continues on renumbered ids.
            rel.compact();
            assert_eq!(rel.tombstones(), 0);
        }
    }
    // The waves really were tombstone-heavy.
    assert!(rel.tombstones() > rel.len());
}

#[test]
fn removal_keeps_watermark_monotone_and_ids_stable() {
    let mut rel = Relation::new(1);
    for i in 0..100i64 {
        rel.insert(vec![Value::Int(i)]);
    }
    let watermark = rel.watermark();
    for i in (0..100i64).step_by(2) {
        assert!(rel.remove(&[Value::Int(i)]));
    }
    // Removal moves neither the watermark nor surviving ids.
    assert_eq!(rel.watermark(), watermark);
    assert_eq!(rel.len(), 50);
    assert_eq!(rel.tombstones(), 50);
    for i in (1..100i64).step_by(2) {
        assert_eq!(rel.id_of(&[Value::Int(i)]), Some(i as usize));
    }
    // New inserts land past the watermark, so delta marks taken before the
    // removal still delimit exactly the new rows.
    rel.insert(vec![Value::Int(1000)]);
    assert_eq!(rel.id_of(&[Value::Int(1000)]), Some(watermark));
}

#[test]
fn gms_join_probes_are_pinned_on_ancestor_chain_64() {
    // The packed-row layout is a representation change only: the magic-set
    // plan must examine exactly the candidate tuples the `Vec<Value>`
    // engine examined (value recorded by the PR 2 engine).
    let program = programs::ancestor();
    let query = programs::ancestor_query("n0");
    let db = chain(64);
    let result = Planner::new(Strategy::MagicSets)
        .evaluate(&program, &query, &db)
        .unwrap();
    assert_eq!(result.answers.len(), 64);
    assert_eq!(result.stats.facts_derived, 2145);
    assert_eq!(
        result.stats.join_probes, 14817,
        "gms join probes moved on ancestor_chain(64): the packed layout \
         must not change join semantics"
    );
}
