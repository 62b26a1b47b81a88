//! Benchmark-owned seeded input generators.  The product only ever sees
//! what these produce; the same seed yields the same stream, and any
//! prefix of a longer stream equals the shorter stream.
//!
//! Only the *draws* depend on the seed.  Which chain node a popularity rank
//! maps to, and which edges get cut, are fixed, so every seed offers work
//! of the same cost distribution and runs with different seeds compare.
//!
//! What an update costs is set by where on the chain it lands: a view
//! `anc(n_k, Y)` under magic sets holds `anc(X, Y)` for every `X` below its
//! root, so a leaf hung on `n_i` adds (or delete-and-rederives) `i - k + 1`
//! rows in every view rooted at or above it.  Leaves therefore go on a
//! narrow [`Band`] of nodes, which keeps leaf ops alike, and cuts go at the
//! chain's tail, where a cut moves thousands of rows rather than hundreds
//! of thousands.

use magic_datalog::{Fact, Value};
use std::collections::HashSet;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipfian ranks `0..n` at exponent 1: `P(r) ∝ 1 / (r + 1)`; rank 0 is the
/// hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Exponential inter-arrival gaps of a Poisson process, as cumulative due
/// times in seconds from the start of the stream.
pub struct PoissonDue {
    rng: Rng,
    rate_per_s: f64,
    now_s: f64,
}

impl PoissonDue {
    pub fn new(rate_per_s: f64, seed: u64) -> PoissonDue {
        PoissonDue {
            rng: Rng::new(seed),
            rate_per_s,
            now_s: 0.0,
        }
    }
}

impl Iterator for PoissonDue {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.now_s += -(1.0 - self.rng.unit()).ln() / self.rate_per_s;
        Some(self.now_s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// `par(n_i, x_j)`: hangs a leaf off chain node `n_i`.
    LeafInsert,
    LeafRetract,
    /// Chain edge `n_i → n_{i+1}`: everything below the cut leaves every
    /// view rooted above it (delete-and-rederive), and comes back.
    CutRetract,
    CutInsert,
    /// `par(z_a, z_b)` in a universe no view reaches.
    SideInsert,
    SideRetract,
}

impl OpClass {
    pub fn is_insert(self) -> bool {
        matches!(
            self,
            OpClass::LeafInsert | OpClass::CutInsert | OpClass::SideInsert
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            OpClass::LeafInsert => "leaf_insert",
            OpClass::LeafRetract => "leaf_retract",
            OpClass::CutRetract => "cut_retract",
            OpClass::CutInsert => "cut_insert",
            OpClass::SideInsert => "side_insert",
            OpClass::SideRetract => "side_retract",
        }
    }
}

/// One base-fact update `par(from, to)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub class: OpClass,
    pub from: String,
    pub to: String,
}

impl Op {
    pub fn fact(&self) -> Fact {
        Fact::plain("par", vec![Value::sym(&self.from), Value::sym(&self.to)])
    }

    /// Source syntax, as the wire protocol takes it.
    pub fn text(&self) -> String {
        format!("par({}, {})", self.from, self.to)
    }
}

/// Facts currently present, so that every generated op is a real state
/// change: inserts draw absent facts, retracts draw present ones.
struct LiveSet {
    order: Vec<(usize, usize)>,
    present: HashSet<(usize, usize)>,
    cap: usize,
}

impl LiveSet {
    fn new(cap: usize) -> LiveSet {
        LiveSet {
            order: Vec::new(),
            present: HashSet::new(),
            cap,
        }
    }

    /// Insert a drawn absent pair, or retract a uniformly drawn present
    /// one; `(inserted, pair)`.
    fn step(
        &mut self,
        rng: &mut Rng,
        mut draw: impl FnMut(&mut Rng) -> (usize, usize),
    ) -> (bool, (usize, usize)) {
        let want_insert =
            self.order.is_empty() || (self.order.len() < self.cap && rng.below(2) == 0);
        if want_insert {
            for _ in 0..8 {
                let pair = draw(rng);
                if self.present.insert(pair) {
                    self.order.push(pair);
                    return (true, pair);
                }
            }
        }
        let at = rng.below(self.order.len());
        let pair = self.order.swap_remove(at);
        self.present.remove(&pair);
        (false, pair)
    }
}

/// The chain nodes `lo .. lo + width` that leaves hang on; node popularity
/// is zipfian over the band.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    pub lo: usize,
    pub width: usize,
}

impl Band {
    /// Leaf slots per node: with the live cap at half of all slots, an
    /// insert finds an absent leaf within a draw or two.
    const SLOTS: usize = 64;

    fn zipf(self) -> Zipf {
        Zipf::new(self.width)
    }

    fn live_cap(self) -> usize {
        self.width * Self::SLOTS / 2
    }

    /// Popularity rank → node: a fixed stride, so neighbouring ranks are
    /// not neighbouring nodes.
    fn node(self, rank: usize) -> usize {
        debug_assert!(
            !self.width.is_multiple_of(5),
            "the stride must not divide the band"
        );
        self.lo + (rank * 5 + 3) % self.width
    }
}

fn leaf_op(live: &mut LiveSet, rng: &mut Rng, zipf: &Zipf, band: Band) -> Op {
    let (inserted, (i, j)) = live.step(rng, |rng| {
        (band.node(zipf.sample(rng)), rng.below(Band::SLOTS))
    });
    Op {
        class: if inserted {
            OpClass::LeafInsert
        } else {
            OpClass::LeafRetract
        },
        from: format!("n{i}"),
        to: format!("x{i}_{j}"),
    }
}

/// The `maintain` script: blocks of [`MaintainScript::block_len`] ops,
/// each holding every cut position once (retracted, then re-inserted ten
/// ops later) in seed-shuffled order between zipfian leaf ops.  Equal
/// blocks make per-block throughput comparable within and across runs.
pub struct MaintainScript {
    rng: Rng,
    zipf: Zipf,
    band: Band,
    cuts: Vec<usize>,
    live: LiveSet,
    slot: usize,
    order: Vec<usize>,
}

impl MaintainScript {
    /// Every tenth op is a cut op, alternating retract and re-insert.
    const STRIDE: usize = 10;

    pub fn new(band: Band, cuts: &[usize], seed: u64) -> MaintainScript {
        MaintainScript {
            rng: Rng::new(seed),
            zipf: band.zipf(),
            band,
            cuts: cuts.to_vec(),
            live: LiveSet::new(band.live_cap()),
            slot: 0,
            order: Vec::new(),
        }
    }

    /// Ops per block: each cut position twice, at one op in ten.
    pub fn block_len(&self) -> usize {
        self.cuts.len() * 2 * Self::STRIDE
    }
}

impl Iterator for MaintainScript {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let at = self.slot % self.block_len();
        if at == 0 {
            self.order = self.cuts.clone();
            self.rng.shuffle(&mut self.order);
        }
        self.slot += 1;
        if at % Self::STRIDE != Self::STRIDE / 2 {
            return Some(leaf_op(
                &mut self.live,
                &mut self.rng,
                &self.zipf,
                self.band,
            ));
        }
        let nth = at / Self::STRIDE;
        let edge = self.order[nth / 2];
        Some(Op {
            class: if nth.is_multiple_of(2) {
                OpClass::CutRetract
            } else {
                OpClass::CutInsert
            },
            from: format!("n{edge}"),
            to: format!("n{}", edge + 1),
        })
    }
}

/// The `serve_mixed` update stream: three leaf ops in four, one op in four
/// on the side universe `z0 .. z<side-1>`.
pub struct MixedScript {
    rng: Rng,
    zipf: Zipf,
    band: Band,
    side_zipf: Zipf,
    side_nodes: usize,
    leaves: LiveSet,
    side: LiveSet,
}

impl MixedScript {
    pub fn new(band: Band, side_nodes: usize, seed: u64) -> MixedScript {
        MixedScript {
            rng: Rng::new(seed),
            zipf: band.zipf(),
            band,
            side_zipf: Zipf::new(side_nodes),
            side_nodes,
            leaves: LiveSet::new(band.live_cap()),
            side: LiveSet::new(side_nodes * 2),
        }
    }
}

impl Iterator for MixedScript {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.rng.below(4) != 0 {
            return Some(leaf_op(
                &mut self.leaves,
                &mut self.rng,
                &self.zipf,
                self.band,
            ));
        }
        let zipf = &self.side_zipf;
        let nodes = self.side_nodes;
        let (inserted, (a, b)) = self.side.step(&mut self.rng, |rng| {
            let a = zipf.sample(rng);
            (a, (a + 1 + rng.below(nodes - 1)) % nodes)
        });
        Some(Op {
            class: if inserted {
                OpClass::SideInsert
            } else {
                OpClass::SideRetract
            },
            from: format!("z{a}"),
            to: format!("z{b}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const CUTS: [usize; 4] = [60, 61, 62, 63];

    /// FNV-1a over the ops' text and class: the fingerprint the determinism
    /// test pins.
    fn stream_hash(ops: impl Iterator<Item = Op>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for op in ops {
            for b in op.class.name().bytes().chain(op.text().bytes()) {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    const BAND: Band = Band { lo: 4, width: 8 };

    #[test]
    fn one_seed_one_stream() {
        let maintain = |seed| stream_hash(MaintainScript::new(BAND, &CUTS, seed).take(2_000));
        let mixed = |seed| stream_hash(MixedScript::new(BAND, 64, seed).take(2_000));
        assert_eq!(maintain(1), maintain(1));
        assert_eq!(mixed(1), mixed(1));
        assert_ne!(maintain(1), maintain(2));
        assert_ne!(mixed(1), mixed(2));
        // Pinned: a change to a generator changes every later number.
        assert_eq!(maintain(1), 0x3f67_6249_6777_4cf0, "{:#x}", maintain(1));
        assert_eq!(mixed(1), 0x218a_efa8_48d0_2713, "{:#x}", mixed(1));
        let keys = |seed| {
            let zipf = Zipf::new(64);
            let mut rng = Rng::new(seed);
            (0..1_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(7), keys(7));
        let due = |seed| PoissonDue::new(200.0, seed).take(1_000).collect::<Vec<_>>();
        assert_eq!(due(7), due(7));
        assert!((due(7)[999] - 5.0).abs() < 0.5, "200/s for 1000 arrivals");
    }

    #[test]
    fn prefixes_are_stable() {
        let long: Vec<Op> = MixedScript::new(BAND, 64, 3).take(500).collect();
        let short: Vec<Op> = MixedScript::new(BAND, 64, 3).take(100).collect();
        assert_eq!(long[..100], short[..]);
    }

    #[test]
    fn every_op_changes_state() {
        for ops in [
            MaintainScript::new(BAND, &CUTS, 5)
                .take(3_000)
                .collect::<Vec<_>>(),
            MixedScript::new(BAND, 64, 5)
                .take(3_000)
                .collect::<Vec<_>>(),
        ] {
            let mut present: BTreeSet<String> =
                (0..64).map(|i| format!("par(n{i}, n{})", i + 1)).collect();
            for op in ops {
                let changed = if op.class.is_insert() {
                    present.insert(op.text())
                } else {
                    present.remove(&op.text())
                };
                assert!(changed, "{op:?} was a no-op");
            }
        }
    }

    #[test]
    fn maintain_blocks_hold_every_cut_once() {
        let script = MaintainScript::new(BAND, &CUTS, 9);
        let block = script.block_len();
        let ops: Vec<Op> = script.take(block * 3).collect();
        for chunk in ops.chunks(block) {
            let retracted: BTreeSet<&str> = chunk
                .iter()
                .filter(|op| op.class == OpClass::CutRetract)
                .map(|op| op.from.as_str())
                .collect();
            assert_eq!(retracted.len(), CUTS.len());
            let cut_ops = chunk
                .iter()
                .filter(|op| matches!(op.class, OpClass::CutRetract | OpClass::CutInsert))
                .count();
            assert_eq!(cut_ops, CUTS.len() * 2);
        }
    }
}
