//! Seeded inputs, the in-process reference answer, and answer checks.
//!
//! Every workload joins the paper's GNIS-like Schools (outer Q) against
//! Populated Places (inner P) at scale 0.125. `gnis_like` itself is
//! fixed, so the seed picks whether x and y are swapped, plus a
//! permutation of ids and of file order. Both keep every coordinate's
//! bits (a mirror such as `DOMAIN - x` would not, and would change how
//! long the CSV and wire numbers print): the amount of work is nearly
//! the same for every seed, while the bytes the program reads and the
//! ids it returns are not.

use ringjoin_core::{sort_by_diameter, Engine, Executor, IndexKind, RcjAlgorithm, RcjPair};
use ringjoin_datagen::{gnis_like, GnisDataset};
use ringjoin_geom::{pt, Item};
use std::io;
use std::path::Path;

pub const SCALE: f64 = 0.125;
pub const TOP_K: usize = 10;

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn scaled(ds: GnisDataset) -> usize {
    ((ds.full_cardinality() as f64 * SCALE).round() as usize).max(10)
}

fn seeded(ds: GnisDataset, swap: bool, rng: &mut Rng) -> Vec<Item> {
    let mut items = gnis_like(ds, scaled(ds));
    let mut ids: Vec<u64> = items.iter().map(|it| it.id).collect();
    rng.shuffle(&mut ids);
    for (it, id) in items.iter_mut().zip(ids) {
        let (x, y) = (it.point.x, it.point.y);
        *it = Item::new(id, if swap { pt(y, x) } else { pt(x, y) });
    }
    rng.shuffle(&mut items);
    items
}

/// `(p, q)`: inner Populated Places and outer Schools for `seed`.
pub fn inputs(seed: u64) -> (Vec<Item>, Vec<Item>) {
    let mut rng = Rng::new(seed);
    let swap = rng.next_u64() % 2 == 1;
    let p = seeded(GnisDataset::PopulatedPlaces, swap, &mut rng);
    let q = seeded(GnisDataset::Schools, swap, &mut rng);
    (p, q)
}

/// Writes both inputs in the CLI's binary format.
pub fn write_inputs(dir: &Path, p: &[Item], q: &[Item]) -> io::Result<()> {
    ringjoin_datagen::io::save_bin(dir.join("pp.bin"), p)?;
    ringjoin_datagen::io::save_bin(dir.join("sc.bin"), q)
}

/// Removes the inputs `write_inputs` wrote, if they are there.
pub fn remove_inputs(dir: &Path) {
    let _ = std::fs::remove_file(dir.join("pp.bin"));
    let _ = std::fs::remove_file(dir.join("sc.bin"));
}

/// Order-sensitive digest of a pair-key sequence (FNV-1a over ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub pairs: usize,
}

pub fn digest(keys: impl IntoIterator<Item = (u64, u64)>) -> Digest {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut pairs = 0;
    for (p, q) in keys {
        for b in p.to_le_bytes().into_iter().chain(q.to_le_bytes()) {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        pairs += 1;
    }
    Digest { hash, pairs }
}

pub fn pair_digest(pairs: &[RcjPair]) -> Digest {
    digest(pairs.iter().map(RcjPair::key))
}

/// The answers every operation is checked against.
pub struct Reference {
    pub join: Digest,
    /// The `TOP_K` most compact pairs, ascending ring diameter.
    pub topk: Vec<(u64, u64)>,
    /// Index pages of both trees, as the CLI builds them.
    pub tree_pages: u64,
}

/// An engine holding `p` and `q` under the names every workload uses.
pub fn engine(p: Vec<Item>, q: Vec<Item>) -> Engine {
    let mut engine = Engine::new();
    engine.set_default_executor(Executor::Sequential);
    engine.load("p", p).index(IndexKind::Rtree);
    engine.load("q", q).index(IndexKind::Rtree);
    engine
}

/// The full OBJ join of `q` against `p` in the engine's current state.
pub fn collect_join(engine: &Engine) -> Vec<RcjPair> {
    engine
        .query()
        .join("q", "p")
        .algorithm(RcjAlgorithm::Obj)
        .executor(Executor::Sequential)
        .plan()
        .expect("both datasets are loaded")
        .collect()
        .pairs
}

pub fn topk_keys(engine: &Engine) -> Vec<(u64, u64)> {
    engine
        .query()
        .join("q", "p")
        .top_k(TOP_K)
        .plan()
        .expect("both datasets are loaded")
        .collect()
        .pairs
        .iter()
        .map(RcjPair::key)
        .collect()
}

pub fn reference(p: &[Item], q: &[Item]) -> Reference {
    let engine = engine(p.to_vec(), q.to_vec());
    let mut pairs = collect_join(&engine);
    let join = pair_digest(&pairs);
    sort_by_diameter(&mut pairs);
    let tree_pages = ["p", "q"]
        .iter()
        .map(|n| engine.dataset(n).expect("loaded").summary().pages)
        .sum();
    Reference {
        join,
        topk: pairs.iter().take(TOP_K).map(RcjPair::key).collect(),
        tree_pages,
    }
}

/// `(p_id, q_id)` of every row of a CLI pair CSV, in file order.
pub fn csv_keys(path: &Path) -> io::Result<Vec<(u64, u64)>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    if lines.next() != Some("p_id,q_id,center_x,center_y,radius") {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad CSV header"));
    }
    lines
        .map(|line| {
            let mut cols = line.split(',');
            let mut id = || -> Option<u64> { cols.next()?.parse().ok() };
            match (id(), id()) {
                (Some(p), Some(q)) => Ok((p, q)),
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad CSV row {line:?}"),
                )),
            }
        })
        .collect()
}
