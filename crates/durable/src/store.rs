//! The durable store: one directory holding a checkpoint and a WAL,
//! plus the recovery procedure that turns them back into serving state.
//!
//! # Protocol
//!
//! The owning writer (one per store — the serve writer thread) drives
//! the store in a strict order:
//!
//! 1. apply an update batch to the in-memory base database;
//! 2. [`DurableStore::log_batch`] the *state-changing* updates — the
//!    batch is durable (to the configured fsync degree) from here, and
//!    only now may the writer publish and ack;
//! 3. when [`DurableStore::should_checkpoint`] says the WAL has grown
//!    past the configured cadence, [`DurableStore::checkpoint`] the
//!    whole database and empty the WAL.
//!
//! [`DurableStore::recover`] inverts the writes: load the newest valid
//! checkpoint (if any), re-materialize each exported view binding
//! through the ordinary planner/fixpoint path, replay the WAL frames
//! the checkpoint doesn't already cover, and truncate a torn final
//! frame if a crash left one.  The sequence numbers stitched through
//! both files make every interleaving of crash and recovery safe:
//!
//! * crash mid-append → torn frame, detected by CRC, truncated (it was
//!   never acked);
//! * crash mid-checkpoint → temp file discarded, old checkpoint +
//!   full WAL still present;
//! * crash *between* checkpoint rename and WAL reset → the WAL holds
//!   frames the checkpoint already covers; replay skips every frame
//!   with `seq <= checkpoint.seq`.

use crate::checkpoint::Checkpoint;
use crate::error::DurableError;
use crate::faults::FaultPlan;
use crate::wal::{FsyncPolicy, Wal};
use magic_datalog::{parse_query, Program};
use magic_incr::{Update, ViewCatalog};
use magic_storage::Database;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk file names inside a store directory.
const CHECKPOINT_FILE: &str = "checkpoint.bin";
const WAL_FILE: &str = "wal.log";

/// Marker recording how many writer shards a store directory was
/// created with (absent for the legacy single-shard layout).  A store
/// must be reopened at the shard count that wrote it: each shard's WAL
/// and checkpoint cover a hash partition of the predicates, and the
/// partition function is keyed by the count.
const SHARDS_META_FILE: &str = "shards.meta";

/// The WAL file name for `shard` of `shards` (legacy `wal.log` for a
/// single shard, `wal-<shard>.log` otherwise).
pub fn shard_wal_file(shard: usize, shards: usize) -> String {
    if shards <= 1 {
        WAL_FILE.to_string()
    } else {
        format!("wal-{shard}.log")
    }
}

/// The checkpoint file name for `shard` of `shards` (legacy
/// `checkpoint.bin` for a single shard, `checkpoint-<shard>.bin`
/// otherwise).
pub fn shard_checkpoint_file(shard: usize, shards: usize) -> String {
    if shards <= 1 {
        CHECKPOINT_FILE.to_string()
    } else {
        format!("checkpoint-{shard}.bin")
    }
}

/// Verify (writing it on first contact) that the store directory at
/// `dir` was created for exactly `shards` writer shards.  A mismatch —
/// reopening a sharded store at a different count, a legacy store at
/// `shards > 1`, or a sharded store at `shards == 1` — is refused:
/// the hash partition baked into the per-shard files would silently
/// misroute recovery otherwise.
pub fn verify_shard_layout(dir: &Path, shards: usize) -> Result<(), DurableError> {
    fs::create_dir_all(dir)?;
    let meta = dir.join(SHARDS_META_FILE);
    let recorded: Option<usize> = match fs::read_to_string(&meta) {
        Ok(text) => Some(text.trim().parse().map_err(|_| {
            DurableError::Corrupt(format!("unreadable shard count in {}", meta.display()))
        })?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    // A legacy (pre-shard) store carries no meta file but may carry a
    // single-shard WAL or checkpoint; treat that as a recorded 1.
    let legacy = dir.join(WAL_FILE).exists() || dir.join(CHECKPOINT_FILE).exists();
    let effective = recorded.or(if legacy { Some(1) } else { None });
    match effective {
        Some(found) if found != shards => Err(DurableError::Corrupt(format!(
            "store {} was created with writer_shards={found}; reopen it with the same \
             shard count (got {shards})",
            dir.display()
        ))),
        _ => {
            if shards > 1 && recorded.is_none() {
                fs::write(&meta, format!("{shards}\n"))?;
            }
            Ok(())
        }
    }
}

/// Where and how a [`DurableStore`] persists.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Directory holding the checkpoint and WAL (created if absent).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL frames (0 disables automatic
    /// checkpoints; the initial recovery checkpoint still happens).
    pub checkpoint_every: u64,
    /// Injected-failure schedule (see [`crate::faults`]).  `None`
    /// falls back to the `MAGIC_FAULTS` environment variable at
    /// [`DurableStore::open`]; an explicit plan wins over the env.
    pub faults: Option<Arc<FaultPlan>>,
}

impl DurableConfig {
    /// Durability at `dir` with the default cadence: fsync every 8
    /// frames, checkpoint every 256.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(8),
            checkpoint_every: 256,
            faults: None,
        }
    }

    /// Override the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> DurableConfig {
        self.fsync = fsync;
        self
    }

    /// Override the checkpoint cadence (frames between checkpoints).
    pub fn with_checkpoint_every(mut self, frames: u64) -> DurableConfig {
        self.checkpoint_every = frames;
        self
    }

    /// Install a fault-injection schedule.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> DurableConfig {
        self.faults = Some(faults);
        self
    }
}

/// What [`DurableStore::recover`] produced.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered base database (checkpoint + replayed WAL tail).
    pub db: Database,
    /// The catalog, warm: every recoverable binding re-materialized
    /// over the recovered base and maintained through the replay.
    pub catalog: ViewCatalog,
    /// WAL frames replayed on top of the checkpoint.
    pub replayed_frames: u64,
    /// True iff a torn (never-acked) final frame was found and cut.
    pub torn_tail_truncated: bool,
    /// True iff a checkpoint file existed and was loaded.
    pub restored_from_checkpoint: bool,
    /// Binding keys re-materialized from the checkpoint's exports.
    pub rebuilt_views: Vec<String>,
}

/// What [`DurableStore::recover_base`] produced: the restored base
/// partition plus the exported bindings, left for the caller to
/// re-materialize once every shard's partition is merged.
#[derive(Debug)]
pub struct RecoveredBase {
    /// The recovered base database (checkpoint + replayed WAL tail).
    pub db: Database,
    /// The checkpoint's exported `(key, query text)` bindings,
    /// *not* materialized.
    pub bindings: Vec<(String, String)>,
    /// WAL frames replayed on top of the checkpoint.
    pub replayed_frames: u64,
    /// True iff a torn (never-acked) final frame was found and cut.
    pub torn_tail_truncated: bool,
    /// True iff a checkpoint file existed and was loaded.
    pub restored_from_checkpoint: bool,
}

/// An open durable store (see the module docs for the protocol).
#[derive(Debug)]
pub struct DurableStore {
    checkpoint_path: PathBuf,
    wal: Wal,
    checkpoint_every: u64,
    /// Sequence number of the last batch logged or replayed.
    seq: u64,
    /// Sequence the on-disk checkpoint covers through.
    last_checkpoint_seq: u64,
    /// WAL frames appended since that checkpoint.
    frames_since_checkpoint: u64,
    /// Injected-failure schedule shared with the WAL.
    faults: Option<Arc<FaultPlan>>,
}

impl DurableStore {
    /// Open (creating if absent) the store directory and its WAL.
    ///
    /// Opening performs no recovery; call [`DurableStore::recover`]
    /// before logging so the sequence counter continues where the
    /// previous process stopped.
    pub fn open(config: &DurableConfig) -> Result<DurableStore, DurableError> {
        fs::create_dir_all(&config.dir)?;
        let faults = config.faults.clone().or_else(FaultPlan::from_env);
        let wal = Wal::open_with_faults(config.dir.join(WAL_FILE), config.fsync, faults.clone())?;
        Ok(DurableStore {
            checkpoint_path: config.dir.join(CHECKPOINT_FILE),
            wal,
            checkpoint_every: config.checkpoint_every,
            seq: 0,
            last_checkpoint_seq: 0,
            frames_since_checkpoint: 0,
            faults,
        })
    }

    /// Open shard `shard` of `shards` in the store directory: the same
    /// machinery as [`DurableStore::open`], but the WAL and checkpoint
    /// carry per-shard names (`wal-<shard>.log`,
    /// `checkpoint-<shard>.bin`) so N independent writer shards can
    /// stream into one directory without contending on a file.  The
    /// single-shard case maps to the legacy names, so `shards == 1` is
    /// exactly [`DurableStore::open`].  Callers should
    /// [`verify_shard_layout`] the directory once before opening any
    /// shard.
    pub fn open_shard(
        config: &DurableConfig,
        shard: usize,
        shards: usize,
    ) -> Result<DurableStore, DurableError> {
        assert!(shard < shards.max(1), "shard index out of range");
        fs::create_dir_all(&config.dir)?;
        let faults = config.faults.clone().or_else(FaultPlan::from_env);
        let wal = Wal::open_with_faults(
            config.dir.join(shard_wal_file(shard, shards)),
            config.fsync,
            faults.clone(),
        )?;
        Ok(DurableStore {
            checkpoint_path: config.dir.join(shard_checkpoint_file(shard, shards)),
            wal,
            checkpoint_every: config.checkpoint_every,
            seq: 0,
            last_checkpoint_seq: 0,
            frames_since_checkpoint: 0,
            faults,
        })
    }

    /// Rebuild serving state from disk.
    ///
    /// `seed` is the extensional database to start from when the store
    /// is brand new (no checkpoint on disk yet) — typically the
    /// server's configured initial EDB.  Once a checkpoint exists the
    /// seed is ignored: disk is the durable truth.  `catalog` carries
    /// the serving configuration (strategy, limits, eviction policy)
    /// and comes back warm.  On a fresh store, recovery ends by
    /// writing the initial checkpoint, so the seed itself becomes
    /// durable before the first batch is ever logged.
    pub fn recover(
        &mut self,
        program: &Program,
        catalog: ViewCatalog,
        seed: &Database,
    ) -> Result<Recovered, DurableError> {
        let checkpoint = if self.checkpoint_path.exists() {
            Some(Checkpoint::load(&self.checkpoint_path)?)
        } else {
            None
        };
        let restored_from_checkpoint = checkpoint.is_some();
        let (mut db, bindings, base_seq) = match &checkpoint {
            Some(ckpt) => (ckpt.restore_database()?, ckpt.bindings.clone(), ckpt.seq),
            None => (seed.clone(), Vec::new(), 0),
        };

        // Re-materialize the exported bindings over the checkpointed
        // base, *before* replay, so the WAL tail streams through view
        // maintenance exactly as it originally did.  A binding whose
        // query no longer plans (the caller changed the rules between
        // runs) is dropped, not fatal: views are caches, and the next
        // first-sight query rebuilds under the new rules.
        let mut catalog = catalog;
        let mut rebuilt_views = Vec::new();
        for (key, text) in &bindings {
            let Ok(query) = parse_query(text) else {
                continue;
            };
            if catalog.materialize(program, &query, &db).is_ok() {
                rebuilt_views.push(key.clone());
            }
        }

        let scan = self.wal.scan()?;
        if scan.torn {
            self.wal.truncate_to(scan.valid_len)?;
        }
        let mut replayed_frames = 0u64;
        let mut seq = base_seq;
        for frame in &scan.frames {
            if frame.seq <= base_seq {
                continue;
            }
            let changed: Vec<Update> = frame
                .updates
                .iter()
                .filter(|u| match u {
                    Update::Insert(f) => db.insert_fact(f),
                    Update::Retract(f) => db.remove_fact(f),
                })
                .cloned()
                .collect();
            if !changed.is_empty() {
                catalog.apply_all(&changed);
            }
            replayed_frames += 1;
            seq = frame.seq;
        }

        self.seq = seq;
        self.last_checkpoint_seq = base_seq;
        self.frames_since_checkpoint = replayed_frames;

        if !restored_from_checkpoint {
            self.checkpoint(&db, &catalog.export_bindings())?;
        }

        Ok(Recovered {
            db,
            catalog,
            replayed_frames,
            torn_tail_truncated: scan.torn,
            restored_from_checkpoint,
            rebuilt_views,
        })
    }

    /// [`DurableStore::recover`] without the view layer: restore the
    /// base database (checkpoint load + WAL-tail replay + torn-tail
    /// truncation + fresh-store seed checkpoint) and hand back the
    /// checkpoint's exported bindings *unmaterialized*.
    ///
    /// This is the per-shard half of sharded recovery: each shard's
    /// files cover only its hash partition of the base predicates, so
    /// no single shard can re-materialize a view (views read the whole
    /// database).  The serving layer recovers every shard's base this
    /// way, merges the disjoint partitions, and only then
    /// re-materializes the union of exported bindings over the merged
    /// base — which reaches the same fixpoint as the single-store
    /// path's replay-through-maintenance, because a view's state is a
    /// function of the base state alone.
    pub fn recover_base(&mut self, seed: &Database) -> Result<RecoveredBase, DurableError> {
        let checkpoint = if self.checkpoint_path.exists() {
            Some(Checkpoint::load(&self.checkpoint_path)?)
        } else {
            None
        };
        let restored_from_checkpoint = checkpoint.is_some();
        let (mut db, bindings, base_seq) = match &checkpoint {
            Some(ckpt) => (ckpt.restore_database()?, ckpt.bindings.clone(), ckpt.seq),
            None => (seed.clone(), Vec::new(), 0),
        };
        let scan = self.wal.scan()?;
        if scan.torn {
            self.wal.truncate_to(scan.valid_len)?;
        }
        let mut replayed_frames = 0u64;
        let mut seq = base_seq;
        for frame in &scan.frames {
            if frame.seq <= base_seq {
                continue;
            }
            for update in &frame.updates {
                match update {
                    Update::Insert(f) => db.insert_fact(f),
                    Update::Retract(f) => db.remove_fact(f),
                };
            }
            replayed_frames += 1;
            seq = frame.seq;
        }
        self.seq = seq;
        self.last_checkpoint_seq = base_seq;
        self.frames_since_checkpoint = replayed_frames;
        if !restored_from_checkpoint {
            self.checkpoint(&db, &bindings)?;
        }
        Ok(RecoveredBase {
            db,
            bindings,
            replayed_frames,
            torn_tail_truncated: scan.torn,
            restored_from_checkpoint,
        })
    }

    /// Log one applied batch; returns its sequence number.  The batch
    /// is recoverable once this returns — ack the client after, never
    /// before.
    ///
    /// On failure the frame is scrubbed (best effort) back off the
    /// log.  Without the scrub, an append whose *fsync* failed could
    /// leave a fully-written, CRC-valid frame behind: the client was
    /// told the write failed, the owner rolled it back in memory, and
    /// yet recovery would replay it — a ghost write.  `Err` from here
    /// therefore means the batch is gone from the log to the best of
    /// the store's ability, and [`DurableStore::probe`] re-verifies
    /// the tail before the path is declared healthy again.
    pub fn log_batch(&mut self, updates: &[Update]) -> Result<u64, DurableError> {
        self.seq += 1;
        let start = self.wal.bytes();
        if let Err(e) = self.wal.append(self.seq, updates) {
            let _ = self.wal.truncate_to(start);
            return Err(e.into());
        }
        self.frames_since_checkpoint += 1;
        Ok(self.seq)
    }

    /// True when the WAL has grown past the configured cadence and the
    /// caller should [`DurableStore::checkpoint`].
    pub fn should_checkpoint(&self) -> bool {
        self.checkpoint_every > 0 && self.frames_since_checkpoint >= self.checkpoint_every
    }

    /// Checkpoint `db` (which must reflect every batch logged so far)
    /// and the catalog's exported `bindings`, then empty the WAL.
    pub fn checkpoint(
        &mut self,
        db: &Database,
        bindings: &[(String, String)],
    ) -> Result<(), DurableError> {
        Checkpoint::capture(self.seq, db, bindings)?
            .write_to_with(&self.checkpoint_path, self.faults.as_deref())?;
        // Only after the rename committed is it safe to drop the WAL;
        // a crash in between leaves covered frames behind, which
        // replay skips by sequence number.
        self.wal.reset()?;
        self.last_checkpoint_seq = self.seq;
        self.frames_since_checkpoint = 0;
        Ok(())
    }

    /// Force WAL bytes to stable storage now (used on clean shutdown
    /// under [`FsyncPolicy::Never`]/[`FsyncPolicy::EveryN`]).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()?;
        Ok(())
    }

    /// Prove the WAL path works end to end — the degraded-mode health
    /// probe.  Heals any partial frame a failed append left (the owner
    /// stopped appending the moment that failure surfaced, so the tear
    /// is the last thing in the file and nothing valid sits beyond it),
    /// then appends an *empty* frame at the next sequence number and
    /// forces it to stable storage.  `Ok` means append + fsync both
    /// round-tripped; replaying the probe frame on recovery is a no-op
    /// by construction.
    pub fn probe(&mut self) -> Result<(), DurableError> {
        self.wal.heal()?;
        self.seq += 1;
        self.wal.append(self.seq, &[])?;
        self.wal.sync()?;
        self.frames_since_checkpoint += 1;
        Ok(())
    }

    /// Current WAL size in bytes (the replay debt of a crash now).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Sequence number of the last logged (or replayed) batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sequence the newest on-disk checkpoint covers through.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_checkpoint_seq
    }

    /// The store's checkpoint path (for tests and tooling).
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_core::planner::Strategy;
    use magic_datalog::{parse_program, Fact, Value};
    use std::fs::OpenOptions;
    use std::io::Write;

    const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("magic-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn pair(p: &str, a: &str, b: &str) -> Fact {
        Fact::plain(p, vec![Value::sym(a), Value::sym(b)])
    }

    fn seed() -> Database {
        let mut db = Database::new();
        db.insert_pair("par", "john", "mary");
        db.insert_pair("par", "mary", "ann");
        db
    }

    fn catalog() -> ViewCatalog {
        ViewCatalog::new(Strategy::MagicSets)
    }

    /// Apply a batch to `db` the way the serve writer does (keeping
    /// only state-changing updates) and log it.
    fn apply_and_log(store: &mut DurableStore, db: &mut Database, batch: &[Update]) {
        let changed: Vec<Update> = batch
            .iter()
            .filter(|u| match u {
                Update::Insert(f) => db.insert_fact(f),
                Update::Retract(f) => db.remove_fact(f),
            })
            .cloned()
            .collect();
        store.log_batch(&changed).unwrap();
    }

    #[test]
    fn fresh_store_recovers_the_seed_and_checkpoints_it() {
        let dir = tmp("fresh");
        let program = parse_program(RULES).unwrap();
        let mut store = DurableStore::open(&DurableConfig::new(&dir)).unwrap();
        let rec = store.recover(&program, catalog(), &seed()).unwrap();
        assert_eq!(rec.db, seed());
        assert!(!rec.restored_from_checkpoint);
        assert_eq!(rec.replayed_frames, 0);
        // The seed is now durable: a second recovery ignores a
        // *different* seed and restores the checkpointed one.
        drop(store);
        let mut store = DurableStore::open(&DurableConfig::new(&dir)).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert!(rec.restored_from_checkpoint);
        assert_eq!(rec.db, seed());
    }

    #[test]
    fn wal_replay_reaches_the_oracle_state() {
        let dir = tmp("replay");
        let program = parse_program(RULES).unwrap();
        let mut store = DurableStore::open(
            &DurableConfig::new(&dir).with_checkpoint_every(0), // no auto checkpoints
        )
        .unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;
        let batches = vec![
            vec![Update::Insert(pair("par", "ann", "zoe"))],
            vec![
                Update::Retract(pair("par", "john", "mary")),
                Update::Insert(pair("par", "zoe", "kim")),
            ],
            vec![Update::Insert(pair("par", "ann", "zoe"))], // no-op batch
        ];
        for batch in &batches {
            apply_and_log(&mut store, &mut db, batch);
        }
        drop(store);

        // Oracle: the seed with every batch applied from scratch.
        let mut oracle = seed();
        for batch in batches.iter().flatten() {
            match batch {
                Update::Insert(f) => oracle.insert_fact(f),
                Update::Retract(f) => oracle.remove_fact(f),
            };
        }
        let mut store = DurableStore::open(&DurableConfig::new(&dir)).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert_eq!(rec.db, oracle);
        assert_eq!(rec.db, db);
        assert_eq!(rec.replayed_frames, 3);
        assert_eq!(store.seq(), 3);
        // Logging continues from the recovered sequence.
        assert_eq!(store.log_batch(&[]).unwrap(), 4);
    }

    #[test]
    fn checkpoint_bounds_replay_and_stale_wal_frames_are_skipped() {
        let dir = tmp("ckpt");
        let program = parse_program(RULES).unwrap();
        let config = DurableConfig::new(&dir).with_checkpoint_every(2);
        let mut store = DurableStore::open(&config).unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;

        apply_and_log(
            &mut store,
            &mut db,
            &[Update::Insert(pair("par", "a", "b"))],
        );
        assert!(!store.should_checkpoint());
        apply_and_log(
            &mut store,
            &mut db,
            &[Update::Insert(pair("par", "b", "c"))],
        );
        assert!(store.should_checkpoint());

        // Simulate a crash *between* checkpoint rename and WAL reset:
        // save the covered WAL bytes and restore them afterwards.
        let wal_path = dir.join(WAL_FILE);
        let covered = fs::read(&wal_path).unwrap();
        store.checkpoint(&db, &[]).unwrap();
        assert_eq!(store.wal_bytes(), 0);
        assert_eq!(store.last_checkpoint_seq(), 2);
        apply_and_log(
            &mut store,
            &mut db,
            &[Update::Insert(pair("par", "c", "d"))],
        );
        let tail = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, [covered, tail].concat()).unwrap();
        drop(store);

        let mut store = DurableStore::open(&config).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        // Frames 1–2 are covered by the checkpoint and must be
        // skipped; only frame 3 replays.  Replaying them anyway would
        // still converge here, so assert the *count*, which proves the
        // sequence filter works.
        assert_eq!(rec.replayed_frames, 1);
        assert_eq!(rec.db, db);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmp("torn");
        let program = parse_program(RULES).unwrap();
        let config = DurableConfig::new(&dir).with_checkpoint_every(0);
        let mut store = DurableStore::open(&config).unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;
        apply_and_log(
            &mut store,
            &mut db,
            &[Update::Insert(pair("par", "a", "b"))],
        );
        drop(store);

        // A crash mid-append: garbage bytes that parse as a frame
        // header but fail the checksum.
        let wal_path = dir.join(WAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0x2A, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, b'I', b' '])
            .unwrap();
        drop(f);

        let mut store = DurableStore::open(&config).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert!(rec.torn_tail_truncated);
        assert_eq!(rec.replayed_frames, 1);
        assert_eq!(rec.db, db);
        // The heal is persistent: a third open scans clean.
        drop(store);
        let mut store = DurableStore::open(&config).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert!(!rec.torn_tail_truncated);
        assert_eq!(rec.db, db);
    }

    #[test]
    fn injected_faults_fail_the_durable_path_and_probe_recovers_it() {
        let dir = tmp("probe");
        let program = parse_program(RULES).unwrap();
        // Fsync on every append so the injected fsync failure surfaces
        // through `log_batch` itself: fsyncs #1 (the first batch's) and
        // #2 (the first probe's) fail, then the path is healthy again.
        let plan = Arc::new(FaultPlan::parse("wal-fsync-fail=1x2").unwrap());
        let config = DurableConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_checkpoint_every(0)
            .with_faults(Arc::clone(&plan));
        let mut store = DurableStore::open(&config).unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;

        let batch = vec![Update::Insert(pair("par", "a", "b"))];
        db.insert_fact(batch[0].fact());
        let err = store.log_batch(&batch).unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        // First probe hits the 3rd fsync (still scheduled to fail) …
        assert!(store.probe().is_err());
        // … the next one round-trips: the durable path is healthy.
        store.probe().unwrap();
        // Logging works again, and recovery sees exactly the batches
        // that were logged after the fault window (plus the no-op
        // probe frames).
        db.insert_fact(&pair("par", "b", "c"));
        store
            .log_batch(&[Update::Insert(pair("par", "b", "c"))])
            .unwrap();
        drop(store);

        let mut store = DurableStore::open(&DurableConfig::new(&dir)).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        let mut expected = seed();
        expected.insert_fact(&pair("par", "b", "c"));
        assert_eq!(rec.db, expected);
    }

    #[test]
    fn checkpoint_rename_fault_leaves_the_previous_checkpoint_intact() {
        let dir = tmp("ckpt-fault");
        let program = parse_program(RULES).unwrap();
        let plan = Arc::new(FaultPlan::parse("ckpt-rename-fail=2").unwrap());
        let config = DurableConfig::new(&dir)
            .with_checkpoint_every(0)
            .with_faults(plan);
        let mut store = DurableStore::open(&config).unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;
        apply_and_log(
            &mut store,
            &mut db,
            &[Update::Insert(pair("par", "a", "b"))],
        );
        // The 2nd rename (the 1st was the initial seed checkpoint) is
        // injected to fail; the WAL must keep its frames so durability
        // still holds through the old checkpoint + replay.
        let err = store.checkpoint(&db, &[]).unwrap_err();
        assert!(err.to_string().contains("injected checkpoint rename"));
        assert!(
            store.wal_bytes() > 0,
            "a failed checkpoint must not reset the WAL"
        );
        // Retrying succeeds (the schedule only hit occurrence 2).
        store.checkpoint(&db, &[]).unwrap();
        assert_eq!(store.wal_bytes(), 0);
        drop(store);
        let mut store = DurableStore::open(&DurableConfig::new(&dir)).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert_eq!(rec.db, db);
    }

    #[test]
    fn sharded_stores_recover_disjoint_partitions_that_merge_to_the_oracle() {
        let dir = tmp("sharded");
        let program = parse_program(RULES).unwrap();
        verify_shard_layout(&dir, 2).unwrap();
        let config = DurableConfig::new(&dir).with_checkpoint_every(0);
        // Shard 0 owns `par`, shard 1 owns `fol` (a hash partition in
        // production; fixed here so the test is self-describing).
        let mut s0 = DurableStore::open_shard(&config, 0, 2).unwrap();
        let mut s1 = DurableStore::open_shard(&config, 1, 2).unwrap();
        let mut db0 = s0.recover_base(&seed()).unwrap().db;
        let mut db1 = s1.recover_base(&Database::new()).unwrap().db;
        apply_and_log(&mut s0, &mut db0, &[Update::Insert(pair("par", "a", "b"))]);
        apply_and_log(&mut s1, &mut db1, &[Update::Insert(pair("fol", "x", "y"))]);
        apply_and_log(&mut s1, &mut db1, &[Update::Retract(pair("fol", "x", "y"))]);
        drop((s0, s1));

        // Each shard's files are separate on disk...
        assert!(dir.join("wal-0.log").exists());
        assert!(dir.join("wal-1.log").exists());
        assert!(dir.join("checkpoint-0.bin").exists());
        // ...and per-shard recovery + merge reaches the oracle.
        let mut s0 = DurableStore::open_shard(&config, 0, 2).unwrap();
        let mut s1 = DurableStore::open_shard(&config, 1, 2).unwrap();
        let r0 = s0.recover_base(&Database::new()).unwrap();
        let r1 = s1.recover_base(&Database::new()).unwrap();
        let mut merged = r0.db;
        merged.merge(&r1.db);
        let mut oracle = seed();
        oracle.insert_fact(&pair("par", "a", "b"));
        assert_eq!(merged, oracle);
        assert_eq!(r0.replayed_frames, 1);
        assert_eq!(r1.replayed_frames, 2);
        // The program still plans over the merged base (smoke that the
        // partition carried nothing program-specific).
        let mut catalog = catalog();
        catalog
            .materialize(&program, &parse_query("anc(john, Y)").unwrap(), &merged)
            .unwrap();

        // Reopening at a different shard count is refused.
        let err = verify_shard_layout(&dir, 4).unwrap_err();
        assert!(err.to_string().contains("writer_shards=2"), "{err}");
        let err = verify_shard_layout(&dir, 1).unwrap_err();
        assert!(err.to_string().contains("writer_shards=2"), "{err}");
        // And a legacy store refuses a sharded reopen.
        let legacy = tmp("sharded-legacy");
        let mut store = DurableStore::open(&DurableConfig::new(&legacy)).unwrap();
        store.recover(&program, catalog, &seed()).unwrap();
        drop(store);
        let err = verify_shard_layout(&legacy, 4).unwrap_err();
        assert!(err.to_string().contains("writer_shards=1"), "{err}");
        verify_shard_layout(&legacy, 1).unwrap();
    }

    #[test]
    fn exported_bindings_come_back_warm_and_maintained() {
        let dir = tmp("views");
        let program = parse_program(RULES).unwrap();
        let config = DurableConfig::new(&dir).with_checkpoint_every(0);
        let mut store = DurableStore::open(&config).unwrap();
        let rec = store.recover(&program, catalog(), &seed()).unwrap();
        let mut db = rec.db;
        let mut cat = rec.catalog;

        // Materialize a view, checkpoint with its binding exported,
        // then stream one more (logged-only) batch.
        let query = parse_query("anc(john, Y)").unwrap();
        let key = cat.materialize(&program, &query, &db).unwrap();
        store.checkpoint(&db, &cat.export_bindings()).unwrap();
        let batch = vec![Update::Insert(pair("par", "ann", "zoe"))];
        apply_and_log(&mut store, &mut db, &batch);
        cat.apply_all(&batch);
        let live_answers = cat.answers(&key).unwrap();
        drop(store);

        let mut store = DurableStore::open(&config).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert_eq!(rec.rebuilt_views, vec![key.clone()]);
        assert!(rec.catalog.contains(&key));
        // The replayed tail streamed through maintenance: the
        // recovered view answers exactly like the live one did,
        // including the post-checkpoint insert (zoe is john's
        // descendant only via the logged batch).
        assert_eq!(rec.catalog.answers(&key).unwrap(), live_answers);
        assert_eq!(rec.db, db);
    }

    #[test]
    fn constants_that_need_quotes_survive_the_wal_and_the_checkpoint() {
        // Written bare, `par(ann, New York)` is a WAL line the next
        // recovery refuses as corrupt, and `X` reads back as a variable.
        let dir = tmp("quoted");
        let program = parse_program(RULES).unwrap();
        let config = DurableConfig::new(&dir).with_checkpoint_every(0);
        let mut store = DurableStore::open(&config).unwrap();
        let mut db = store.recover(&program, catalog(), &seed()).unwrap().db;
        let batch = vec![
            Update::Insert(pair("par", "ann", "New York")),
            Update::Insert(pair("par", "X", "")),
            Update::Insert(pair("Odd Name", "a", "b")),
        ];
        apply_and_log(&mut store, &mut db, &batch);
        drop(store);

        let mut store = DurableStore::open(&config).unwrap();
        let rec = store
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert_eq!(rec.replayed_frames, 1);
        assert_eq!(rec.db, db);
        // The same state through a checkpoint.
        store.checkpoint(&rec.db, &[]).unwrap();
        drop(store);
        let rec = DurableStore::open(&config)
            .unwrap()
            .recover(&program, catalog(), &Database::new())
            .unwrap();
        assert!(rec.restored_from_checkpoint);
        assert_eq!(rec.db, db);
    }
}
