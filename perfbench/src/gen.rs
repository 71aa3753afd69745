//! Input generation. Runs in its own process (`perfbench gen`) so that its
//! memory never counts toward the measured process's peak; the measured
//! process only reads the files written here.
//!
//! Everything is deterministic in the seed and independent of the crates
//! under test: the generator has its own RNG, Zipf sampler and planted
//! low-rank rating model, so a change to the program cannot change the
//! benchmark's inputs.

use crate::spec::{Spec, Workload, TEST_SHARE};
use std::io;
use std::path::Path;

/// One rating `(user, item, value)`.
pub type Triple = (u32, u32, f32);

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x853c_49e6_748f_ea9b)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Zipf weight of popularity rank `r` (0-based) at exponent `s`.
fn zipf_weight(r: usize, s: f64) -> f64 {
    (1.0 + r as f64).powf(-s)
}

/// Samples ids from a Zipf popularity law over a random id permutation.
struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += zipf_weight(r, s);
                acc
            })
            .collect();
        Zipf {
            cdf,
            ids: rng.permutation(n),
        }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let total = self.cdf[self.cdf.len() - 1];
        let x = rng.unit() * total;
        let r = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.ids.len() - 1);
        self.ids[r]
    }
}

/// Rank of the planted rating model.
const PLANTED_RANK: usize = 8;

/// Zipf-skewed ratings from a planted rank-8 model with noise, split into
/// `(train, test)` with `TEST_SHARE` of the ratings held out.
///
/// User activity follows a Zipf law over a random user order (mean
/// `spec.ratings / spec.users` per user, at least one); each user's items
/// are Zipf-popular draws, deduplicated. Ratings are
/// `clamp(p*·q* + N(0, 0.1²), 1, 5)` with planted factors whose products
/// center on 3.
pub fn ratings(spec: &Spec, seed: u64) -> (Vec<Triple>, Vec<Triple>) {
    let mut rng = Rng::new(seed);
    let (users, items) = (spec.users as usize, spec.items as usize);
    let amp = (3.0 / PLANTED_RANK as f64).sqrt();
    let q_true: Vec<f64> = (0..items * PLANTED_RANK)
        .map(|_| amp * (0.5 + rng.unit()))
        .collect();
    let item_law = Zipf::new(items, spec.item_skew, &mut rng);
    let user_rank = rng.permutation(users);
    let total_w: f64 = (0..users).map(|r| zipf_weight(r, spec.user_skew)).sum();
    let cap = (items / 2).max(1);

    let mut train = Vec::with_capacity(spec.ratings);
    let mut test = Vec::with_capacity((spec.ratings as f64 * TEST_SHARE * 1.5) as usize);
    let mut p_u = [0f64; PLANTED_RANK];
    let mut picks: Vec<u32> = Vec::new();
    for (u, &rank) in user_rank.iter().enumerate() {
        let want = spec.ratings as f64 * zipf_weight(rank as usize, spec.user_skew) / total_w;
        let n = (want.floor() as usize + usize::from(rng.unit() < want.fract())).clamp(1, cap);
        for v in p_u.iter_mut() {
            *v = amp * (0.5 + rng.unit());
        }
        picks.clear();
        picks.extend((0..n).map(|_| item_law.sample(&mut rng)));
        picks.sort_unstable();
        picks.dedup();
        for &i in &picks {
            let q_i = &q_true[i as usize * PLANTED_RANK..(i as usize + 1) * PLANTED_RANK];
            let dot: f64 = p_u.iter().zip(q_i).map(|(a, b)| a * b).sum();
            let r = (dot + 0.1 * rng.normal()).clamp(1.0, 5.0) as f32;
            let t = (u as u32, i, r);
            if rng.unit() < TEST_SHARE {
                test.push(t);
            } else {
                train.push(t);
            }
        }
    }
    (train, test)
}

/// Factors of the served model: user rows `N(0, 1/k)`, item rows the same
/// scaled by a zipf(0.8) popularity factor over a random item order — MF
/// item norms track popularity, and that skew is what norm pruning uses.
pub fn serve_factors(spec: &Spec, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng::new(seed ^ 0x5e7e_f4c7);
    let k = spec.k;
    let sd = 1.0 / (k as f64).sqrt();
    let p = (0..spec.users as usize * k)
        .map(|_| (rng.normal() * sd) as f32)
        .collect();
    let rank = rng.permutation(spec.items as usize);
    let mut q = Vec::with_capacity(spec.items as usize * k);
    for &r in &rank {
        let scale = sd * zipf_weight(r as usize, 0.8);
        q.extend((0..k).map(|_| (rng.normal() * scale) as f32));
    }
    (p, q)
}

const TRIPLES_MAGIC: &[u8; 4] = b"PBT1";
const FACTORS_MAGIC: &[u8; 4] = b"PBF1";

/// Writes ratings as `magic, rows u32, cols u32, count u64, (u32, u32,
/// f32)*`, little-endian.
pub fn write_triples(path: &Path, rows: u32, cols: u32, t: &[Triple]) -> io::Result<()> {
    let mut out = Vec::with_capacity(20 + t.len() * 12);
    out.extend_from_slice(TRIPLES_MAGIC);
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&cols.to_le_bytes());
    out.extend_from_slice(&(t.len() as u64).to_le_bytes());
    for &(u, i, r) in t {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&r.to_le_bytes());
    }
    std::fs::write(path, out)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from(u32_at(b, at)) | u64::from(u32_at(b, at + 4)) << 32
}

/// Reads a file written by [`write_triples`]: `(rows, cols, ratings)`.
pub fn read_triples(path: &Path) -> io::Result<(u32, u32, Vec<Triple>)> {
    let b = std::fs::read(path)?;
    if b.len() < 20 || &b[..4] != TRIPLES_MAGIC {
        return Err(bad("not a ratings file"));
    }
    let (rows, cols) = (u32_at(&b, 4), u32_at(&b, 8));
    let n = usize::try_from(u64_at(&b, 12)).map_err(|_| bad("count overflow"))?;
    if (b.len() - 20) / 12 != n || (b.len() - 20) % 12 != 0 {
        return Err(bad("ratings file length disagrees with its count"));
    }
    let t = b[20..]
        .chunks_exact(12)
        .map(|c| {
            let r = f32::from_bits(u32_at(c, 8));
            (u32_at(c, 0), u32_at(c, 4), r)
        })
        .collect();
    Ok((rows, cols, t))
}

/// Writes a row-major factor matrix as `magic, rows u64, k u64, f32*`.
pub fn write_factors(path: &Path, rows: usize, k: usize, data: &[f32]) -> io::Result<()> {
    let mut out = Vec::with_capacity(20 + data.len() * 4);
    out.extend_from_slice(FACTORS_MAGIC);
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(k as u64).to_le_bytes());
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, out)
}

/// Reads a file written by [`write_factors`]: `(rows, k, data)`.
pub fn read_factors(path: &Path) -> io::Result<(usize, usize, Vec<f32>)> {
    let b = std::fs::read(path)?;
    if b.len() < 20 || &b[..4] != FACTORS_MAGIC {
        return Err(bad("not a factor file"));
    }
    let rows = usize::try_from(u64_at(&b, 4)).map_err(|_| bad("rows overflow"))?;
    let k = usize::try_from(u64_at(&b, 12)).map_err(|_| bad("k overflow"))?;
    let want = rows.checked_mul(k).ok_or_else(|| bad("size overflow"))?;
    if (b.len() - 20) % 4 != 0 || (b.len() - 20) / 4 != want {
        return Err(bad("factor file length disagrees with its shape"));
    }
    let data = b[20..]
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32_at(c, 0)))
        .collect();
    Ok((rows, k, data))
}

/// Generates every input of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let spec = workload.spec();
    let (train, test) = ratings(&spec, seed);
    write_triples(&dir.join("train.bin"), spec.users, spec.items, &train)?;
    write_triples(&dir.join("test.bin"), spec.users, spec.items, &test)?;
    if workload == Workload::ServeTopk {
        let (p, q) = serve_factors(&spec, seed);
        write_factors(&dir.join("p.bin"), spec.users as usize, spec.k, &p)?;
        write_factors(&dir.join("q.bin"), spec.items as usize, spec.k, &q)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            users: 300,
            items: 80,
            ratings: 3_000,
            k: 4,
            ..Workload::TrainCompute.spec()
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = ratings(&tiny(), 7);
        assert_eq!(a, ratings(&tiny(), 7));
        assert_ne!(a, ratings(&tiny(), 8));
        assert_eq!(serve_factors(&tiny(), 7), serve_factors(&tiny(), 7));
    }

    #[test]
    fn ratings_are_distinct_in_range_and_near_target() {
        let spec = tiny();
        let (train, test) = ratings(&spec, 3);
        let mut all: Vec<(u32, u32)> = train.iter().chain(&test).map(|t| (t.0, t.1)).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate cells");
        assert!(n > spec.ratings / 2 && n <= spec.ratings * 2, "{n} ratings");
        assert!(train
            .iter()
            .all(|&(u, i, r)| u < spec.users && i < spec.items && (1.0..=5.0).contains(&r)));
        assert!(!test.is_empty() && test.len() < n / 5);
    }

    #[test]
    fn files_roundtrip_and_reject_truncation() {
        let dir = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (train, _) = ratings(&tiny(), 1);
        let path = dir.join("t.bin");
        write_triples(&path, 300, 80, &train).unwrap();
        assert_eq!(read_triples(&path).unwrap(), (300, 80, train));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_triples(&path).is_err());
        let fpath = dir.join("f.bin");
        write_factors(&fpath, 3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(
            read_factors(&fpath).unwrap(),
            (3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
