//! Checkpoints: a whole base database, frozen to one atomic file.
//!
//! A checkpoint bounds recovery time — restart cost is *checkpoint
//! load + WAL-since-checkpoint replay*, independent of how many
//! updates the database absorbed over its lifetime.  The file carries
//! four sections, in dependency order:
//!
//! 1. the [`ArenaSnapshot`]: interner symbol strings and value-arena
//!    node entries, because raw [`ValId`] words are process-run-local
//!    (inline symbol ids and node-table indexes mean nothing to a
//!    fresh process until the snapshot is re-installed);
//! 2. every base relation as a packed flat dump — predicate name,
//!    arity, row count, and the raw id words of its live rows in id
//!    order (see `Relation::packed_live_rows`);
//! 3. the catalog's exported bindings: `(binding key, query text)`
//!    pairs.  Materialized views are deliberately *not* serialized —
//!    recovery re-materializes each binding through the ordinary
//!    planner/fixpoint path over the restored base, so a restored view
//!    is correct by construction rather than trusted from disk;
//! 4. a `u64` WAL sequence number: every WAL frame with `seq` at or
//!    below it is already folded into the relations here and must be
//!    skipped on replay.
//!
//! The whole body is CRC-framed and written temp-file-then-rename, so
//! a crash mid-checkpoint leaves the previous checkpoint untouched: at
//! every instant there is one complete, verifiable checkpoint on disk.

use crate::crc32::crc32;
use crate::error::DurableError;
use magic_datalog::{ArenaSnapshot, PredName, SnapNode, ValId};
use magic_storage::{Database, Relation};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// File magic + format version. Bump the trailing digits on any layout
/// change: a version-mismatched checkpoint must fail loudly, not
/// decode into garbage.
const MAGIC: &[u8; 8] = b"MGCKPT01";

/// One relation, packed flat (§2 of the file layout above).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationDump {
    /// The plain predicate's name, unquoted (the base database holds
    /// no derived relations).
    pub name: String,
    /// Column count.
    pub arity: u32,
    /// Live row count (explicit because zero-arity relations pack to
    /// zero id words regardless of how many rows they hold).
    pub n_rows: u64,
    /// `n_rows * arity` raw [`ValId::raw`] words, rows concatenated in
    /// id order.
    pub ids: Vec<u32>,
}

/// An in-memory checkpoint: everything needed to rebuild the serving
/// state of a store, minus the WAL tail.
#[derive(Debug)]
pub struct Checkpoint {
    /// WAL frames with `seq <=` this are included in the relations.
    pub seq: u64,
    /// The interner/arena image the relation dumps' id words refer to.
    pub snapshot: ArenaSnapshot,
    /// Every base relation, packed (predicate-name order).
    pub relations: Vec<RelationDump>,
    /// `(binding key, query text)` for each view to re-materialize.
    pub bindings: Vec<(String, String)>,
}

impl Checkpoint {
    /// Freeze `db` (and the view bindings) as of WAL sequence `seq`.
    ///
    /// The relations are dumped *before* the arena is captured: the
    /// arena only grows, and every id a relation holds was interned
    /// before the row was inserted, so capturing afterwards guarantees
    /// the snapshot covers every dumped word even while reader threads
    /// concurrently intern new values (e.g. parsing queries).
    pub fn capture(
        seq: u64,
        db: &Database,
        bindings: &[(String, String)],
    ) -> Result<Checkpoint, DurableError> {
        let mut relations = Vec::new();
        for (pred, rel) in db.iter() {
            let PredName::Plain(name) = pred else {
                return Err(DurableError::Corrupt(format!(
                    "checkpointing supports base databases only; found derived predicate {pred}"
                )));
            };
            relations.push(RelationDump {
                name: name.as_str().to_string(),
                arity: rel.arity() as u32,
                n_rows: rel.len() as u64,
                ids: rel.packed_live_rows().iter().map(|id| id.raw()).collect(),
            });
        }
        Ok(Checkpoint {
            seq,
            snapshot: ArenaSnapshot::capture(),
            relations,
            bindings: bindings.to_vec(),
        })
    }

    /// Rebuild the base database in the current process: install the
    /// arena snapshot, remap every dumped id word to a live id, and
    /// adopt the relations wholesale.
    pub fn restore_database(&self) -> Result<Database, DurableError> {
        let remap = self.snapshot.install().ok_or_else(|| {
            DurableError::Corrupt("arena snapshot has dangling references".into())
        })?;
        let mut db = Database::new();
        for dump in &self.relations {
            let ids: Vec<ValId> = dump
                .ids
                .iter()
                .map(|&raw| remap.remap_raw(raw))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    DurableError::Corrupt(format!(
                        "relation {} references ids outside the snapshot",
                        dump.name
                    ))
                })?;
            let rel = Relation::from_packed_rows(dump.arity as usize, dump.n_rows as usize, &ids);
            db.insert_relation(PredName::plain(&dump.name), rel);
        }
        Ok(db)
    }

    /// Serialize to the on-disk byte layout (header + CRC-framed body).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.seq);
        let syms = self.snapshot.symbols();
        put_u32(&mut body, syms.len() as u32);
        for s in syms {
            put_str(&mut body, s);
        }
        let nodes = self.snapshot.nodes();
        put_u32(&mut body, nodes.len() as u32);
        for node in nodes {
            match node {
                SnapNode::Int(v) => {
                    body.push(0);
                    put_u64(&mut body, *v as u64);
                }
                SnapNode::Sym(id) => {
                    body.push(1);
                    put_u32(&mut body, *id);
                }
                SnapNode::App { functor, children } => {
                    body.push(2);
                    put_u32(&mut body, *functor);
                    put_u32(&mut body, children.len() as u32);
                    for &c in children {
                        put_u32(&mut body, c);
                    }
                }
            }
        }
        put_u32(&mut body, self.relations.len() as u32);
        for dump in &self.relations {
            put_str(&mut body, &dump.name);
            put_u32(&mut body, dump.arity);
            put_u64(&mut body, dump.n_rows);
            put_u64(&mut body, dump.ids.len() as u64);
            for &id in &dump.ids {
                put_u32(&mut body, id);
            }
        }
        put_u32(&mut body, self.bindings.len() as u32);
        for (key, text) in &self.bindings {
            put_str(&mut body, key);
            put_str(&mut body, text);
        }

        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Decode the byte layout [`Checkpoint::encode`] writes, verifying
    /// magic, length, and checksum before touching the body.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DurableError> {
        let corrupt = |msg: &str| DurableError::Corrupt(format!("checkpoint: {msg}"));
        if bytes.len() < 16 {
            return Err(corrupt("shorter than its header"));
        }
        if &bytes[0..8] != MAGIC {
            return Err(corrupt("bad magic (not a checkpoint, or a future format)"));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = bytes
            .get(16..16 + body_len)
            .ok_or_else(|| corrupt("truncated body"))?;
        if crc32(body) != crc {
            return Err(corrupt("body checksum mismatch"));
        }

        let mut r = Reader { buf: body, pos: 0 };
        let seq = r.u64()?;
        let n_syms = r.u32()? as usize;
        let mut symbols = Vec::with_capacity(n_syms.min(1 << 20));
        for _ in 0..n_syms {
            symbols.push(r.string()?);
        }
        let n_nodes = r.u32()? as usize;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for _ in 0..n_nodes {
            nodes.push(match r.u8()? {
                0 => SnapNode::Int(r.u64()? as i64),
                1 => SnapNode::Sym(r.u32()?),
                2 => {
                    let functor = r.u32()?;
                    let n = r.u32()? as usize;
                    let mut children = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        children.push(r.u32()?);
                    }
                    SnapNode::App { functor, children }
                }
                tag => return Err(corrupt(&format!("unknown node tag {tag}"))),
            });
        }
        let n_rels = r.u32()? as usize;
        let mut relations = Vec::with_capacity(n_rels.min(1 << 20));
        for _ in 0..n_rels {
            let name = r.string()?;
            let arity = r.u32()?;
            let n_rows = r.u64()?;
            let n_ids = r.u64()? as usize;
            if n_ids as u64
                != n_rows
                    .checked_mul(arity as u64)
                    .ok_or_else(|| corrupt("row count overflow"))?
            {
                return Err(corrupt(&format!(
                    "relation {name}: id count does not match rows x arity"
                )));
            }
            let mut ids = Vec::with_capacity(n_ids.min(1 << 24));
            for _ in 0..n_ids {
                ids.push(r.u32()?);
            }
            relations.push(RelationDump {
                name,
                arity,
                n_rows,
                ids,
            });
        }
        let n_bindings = r.u32()? as usize;
        let mut bindings = Vec::with_capacity(n_bindings.min(1 << 20));
        for _ in 0..n_bindings {
            let key = r.string()?;
            let text = r.string()?;
            bindings.push((key, text));
        }
        if r.pos != body.len() {
            return Err(corrupt("trailing bytes after the last section"));
        }
        Ok(Checkpoint {
            seq,
            snapshot: ArenaSnapshot::from_parts(symbols, nodes),
            relations,
            bindings,
        })
    }

    /// Write atomically to `path`: encode, write a sibling temp file,
    /// fsync it, rename over `path`, and fsync the directory so the
    /// rename itself is durable.  A crash at any point leaves either
    /// the old checkpoint or the new one — never a torn mix.
    pub fn write_to(&self, path: &Path) -> Result<(), DurableError> {
        self.write_to_with(path, None)
    }

    /// [`Checkpoint::write_to`] with a fault-injection schedule: the
    /// rename step consults the plan, and an injected failure leaves
    /// the temp file behind exactly like a real rename failure would
    /// (the previous checkpoint at `path` is untouched either way).
    pub fn write_to_with(
        &self,
        path: &Path,
        faults: Option<&crate::faults::FaultPlan>,
    ) -> Result<(), DurableError> {
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        if let Some(plan) = faults {
            plan.on_checkpoint_rename()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Directory fsync makes the rename durable; some
            // filesystems refuse to open a directory for writing, so
            // failure to open is not fatal.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Load and verify the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, DurableError> {
        Checkpoint::decode(&fs::read(path)?)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over the checkpoint body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| DurableError::Corrupt("checkpoint: body ends mid-field".into()))?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DurableError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| DurableError::Corrupt(format!("checkpoint: non-UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::{Fact, Symbol, Value};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("magic-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("checkpoint.bin")
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.insert_pair("par", "john", "mary");
        db.insert_pair("par", "mary", "ann");
        db.insert_fact(&Fact::plain(
            "m",
            vec![
                Value::int(-3),
                Value::app(
                    Symbol::new("pair"),
                    vec![Value::sym("x"), Value::int(1 << 40)],
                ),
            ],
        ));
        db.insert_fact(&Fact::plain("unit", vec![]));
        db
    }

    #[test]
    fn encode_decode_round_trips() {
        let db = sample_db();
        let bindings = vec![("anc[bf](john)@gms".to_string(), "anc(john, Y)".to_string())];
        let ckpt = Checkpoint::capture(42, &db, &bindings).unwrap();
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.bindings, bindings);
        assert_eq!(decoded.relations, ckpt.relations);
        assert_eq!(decoded.snapshot.symbols(), ckpt.snapshot.symbols());
        assert_eq!(decoded.snapshot.nodes(), ckpt.snapshot.nodes());
    }

    #[test]
    fn restore_rebuilds_an_equal_database() {
        let db = sample_db();
        let ckpt = Checkpoint::capture(7, &db, &[]).unwrap();
        // Through bytes, as recovery would see it.
        let restored = Checkpoint::decode(&ckpt.encode())
            .unwrap()
            .restore_database()
            .unwrap();
        assert_eq!(restored, db);
    }

    #[test]
    fn write_load_round_trips_and_replaces_atomically() {
        let path = tmp("write");
        let db = sample_db();
        Checkpoint::capture(1, &db, &[])
            .unwrap()
            .write_to(&path)
            .unwrap();
        let first = Checkpoint::load(&path).unwrap();
        assert_eq!(first.seq, 1);

        let mut db2 = db.clone();
        db2.insert_pair("par", "ann", "zoe");
        Checkpoint::capture(9, &db2, &[])
            .unwrap()
            .write_to(&path)
            .unwrap();
        let second = Checkpoint::load(&path).unwrap();
        assert_eq!(second.seq, 9);
        assert_eq!(second.restore_database().unwrap(), db2);
        // No temp file left behind.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let db = sample_db();
        let bytes = Checkpoint::capture(3, &db, &[]).unwrap().encode();
        // Truncations never panic, and only the full buffer decodes.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A flipped body byte fails the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(Checkpoint::decode(&flipped).is_err());
        // Wrong magic fails before anything else.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(Checkpoint::decode(&wrong).is_err());
    }

    #[test]
    fn derived_predicates_are_rejected_at_capture() {
        let mut db = Database::new();
        db.insert(
            magic_datalog::PredName::magic("anc", magic_datalog::Adornment::all_bound(1)),
            vec![Value::sym("john")],
        );
        assert!(Checkpoint::capture(0, &db, &[]).is_err());
    }
}
