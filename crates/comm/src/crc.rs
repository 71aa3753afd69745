//! CRC-32/IEEE (the zlib / Ethernet checksum), the workspace's only CRC.
//!
//! The HCF1 wire frames ([`crate::frame`]) and the checkpoint-v2 footer
//! (`hcc_mf::checkpoint`) both use it, and both checksum tens of MiB per
//! call on the networked workloads, so it is built for throughput:
//!
//! * **PCLMULQDQ fold-by-4** on x86-64 CPUs that have carry-less multiply,
//!   chosen at run time by `is_x86_feature_detected!` (the standard
//!   library caches the probe). Four 128-bit lanes fold 64 bytes per step
//!   with independent multiplies, then collapse to one lane, and a Barrett
//!   reduction turns the last 64 bits into the 32-bit remainder.
//! * The classic byte-at-a-time table everywhere else: on other CPUs, for
//!   inputs under 64 bytes, and for the sub-16-byte tail of the folded path.
//!
//! Every path computes the same function (init `0xFFFF_FFFF`, reflected
//! polynomial `0xEDB8_8320`, final complement); the differential tests
//! below hold them bit-identical to an independent byte-at-a-time oracle.

/// Reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLE[b]`: the register contribution of byte `b`.
static TABLE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
};

/// Incremental CRC-32/IEEE: feed pieces with [`Crc32::update`] and read the
/// checksum of their concatenation with [`Crc32::finalize`], without ever
/// joining the pieces in memory.
///
/// ```
/// use hcc_comm::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finalize(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The running register (the checksum before the final complement).
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The state of an empty input.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Appends `data` to the checksummed stream.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// The CRC-32/IEEE of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// CRC-32/IEEE over `data` (init `0xFFFF_FFFF`, final complement; check
/// value `crc32(b"123456789") == 0xCBF4_3926`), on the fastest path this
/// CPU supports.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Advances the register `state` over `data` on the fastest available path.
fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports PCLMULQDQ (checked just above), the only
        // feature `clmul::update` enables beyond the x86-64 SSE2 baseline.
        return unsafe { clmul::update(state, data) };
    }
    update_bytewise(state, data)
}

/// Byte-at-a-time table step.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Carry-less-multiply CRC folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in
/// the bit-reflected form the IEEE polynomial needs.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Fold multipliers, each x^n mod P(x) bit-reflected and shifted left
    // one: K1/K2 (n = 4·128 ± 32) fold a lane 512 bits forward, K3/K4
    // (n = 128 ± 32) fold it 128 bits forward, K5 (n = 64) takes the last
    // 96 bits to 64.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) with its x^32 term, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    /// Barrett constant ⌊x^64 / P(x)⌋, reflected.
    const MU: i64 = 0x1_F701_1641;

    /// Loads one 16-byte block.
    ///
    /// # Safety
    /// Requires PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, exactly one unaligned
        // 128-bit load; `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Loads one 64-byte block as four lanes.
    ///
    /// # Safety
    /// Requires PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load4(quad: &[u8; 64]) -> [__m128i; 4] {
        let p = quad.as_ptr();
        // SAFETY: `quad` is 64 readable bytes; the four unaligned 16-byte
        // loads at offsets 0, 16, 32 and 48 stay inside it.
        unsafe {
            [
                _mm_loadu_si128(p.cast()),
                _mm_loadu_si128(p.add(16).cast()),
                _mm_loadu_si128(p.add(32).cast()),
                _mm_loadu_si128(p.add(48).cast()),
            ]
        }
    }

    /// Folds lane `a` forward over `b`: `b ⊕ a.lo·k.lo ⊕ a.hi·k.hi`.
    ///
    /// A macro rather than a fn: before Rust 1.87 (the workspace's minimum
    /// is 1.85) these intrinsics need an `unsafe` block, and from 1.87 on
    /// a block holding only them is flagged as unneeded. Expanded inside
    /// [`update`]'s block, which also holds unsafe loads, they build
    /// cleanly on both.
    macro_rules! fold {
        ($a:expr, $b:expr, $k:expr) => {{
            let (a, k) = ($a, $k);
            _mm_xor_si128(
                $b,
                _mm_xor_si128(
                    _mm_clmulepi64_si128(a, k, 0x00),
                    _mm_clmulepi64_si128(a, k, 0x11),
                ),
            )
        }};
    }

    /// Advances the CRC register `state` over `data`. Input shorter than
    /// four blocks goes to the byte table instead.
    ///
    /// # Safety
    /// Requires PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(state: u32, data: &[u8]) -> u32 {
        let Some((first, mut rest)) = data.split_first_chunk::<64>() else {
            return super::update_bytewise(state, data);
        };
        // SAFETY: this fn's caller guarantees PCLMULQDQ, the only feature
        // `load`, `load4` and the `fold!` intrinsics require; the loads'
        // own contracts hold by their argument types.
        unsafe {
            let mut x = load4(first);
            // The register enters as the low 32 bits of the first block.
            x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

            let k1k2 = _mm_set_epi64x(K2, K1);
            while let Some((quad, tail)) = rest.split_first_chunk::<64>() {
                for (lane, block) in x.iter_mut().zip(load4(quad)) {
                    *lane = fold!(*lane, block, k1k2);
                }
                rest = tail;
            }

            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut x = fold!(fold!(fold!(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
            while let Some((block, tail)) = rest.split_first_chunk::<16>() {
                x = fold!(x, load(block), k3k4);
                rest = tail;
            }

            // 128 → 96 → 64 bits.
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
            x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(x, 4),
            );
            // Barrett reduction 64 → 32 bits; the reflected result lands in
            // bits 32..64.
            let pu = _mm_set_epi64x(MU, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
            let reduced = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;

            super::update_bytewise(reduced, rest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Test-only oracle: byte-at-a-time over its own table, built here
    /// bit by bit so it shares nothing with [`TABLE`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| (0..8).fold(i, |c, _| if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 }))
            .collect();
        !data.iter().fold(!0u32, |c, &b| {
            table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    /// The carry-less path called directly, or `None` on hosts without it.
    fn crc32_clmul(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ support was checked just above.
            return Some(!unsafe { clmul::update(!0, data) });
        }
        let _ = data;
        None
    }

    /// The byte-table path called directly, so it is covered at every
    /// length on hosts where the dispatcher always folds.
    fn crc32_table(data: &[u8]) -> u32 {
        !update_bytewise(!0, data)
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn check_value_on_every_path() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_table(b""), 0);
    }

    #[test]
    fn all_paths_agree_at_every_length_and_alignment() {
        let buf = seeded_bytes(1024 + 16, 0xC3C3);
        for offset in 0..16 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "dispatched, len {len} offset {offset}");
                assert_eq!(
                    crc32_table(data),
                    want,
                    "byte table, len {len} offset {offset}"
                );
                // The carry-less path proper needs 64 bytes; below that it
                // must still agree through its own fallback.
                if let Some(got) = crc32_clmul(data) {
                    assert_eq!(got, want, "pclmulqdq, len {len} offset {offset}");
                }
            }
        }
    }

    #[test]
    fn all_paths_agree_on_32_mib() {
        let data = seeded_bytes(32 << 20, 0x5EED_0032);
        let want = crc32_bytewise(&data);
        assert_eq!(crc32(&data), want);
        assert_eq!(crc32_table(&data), want);
        if let Some(got) = crc32_clmul(&data) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data = seeded_bytes(300, 0x0300);
        let want = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), want, "split at {split}");
        }
        // Many small pieces mixing both paths' thresholds.
        let mut crc = Crc32::default();
        for piece in data.chunks(7) {
            crc.update(piece);
        }
        assert_eq!(crc.finalize(), want);
        assert_eq!(Crc32::new().finalize(), 0);
    }
}
