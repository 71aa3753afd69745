//! Factor-matrix checkpointing.
//!
//! Two on-disk formats, both little-endian:
//!
//! **v1** (legacy, read-only compat):
//!
//! ```text
//! magic "HCCMF1\n"  |  u64 m  u64 n  u64 k  |  P (m·k f32 LE)  |  Q (n·k f32 LE)
//! ```
//!
//! **v2** (crash-safe, written by [`save_model`] / [`save_checkpoint`]):
//!
//! ```text
//! magic "HCCMF2\n"
//! u64 m   u64 n   u64 k   u64 epoch   u64 seed
//! f32 lr_scale
//! u8  flags            (bit 0: matrix was transposed before training)
//! P (m·k f32 LE)
//! Q (n·k f32 LE)
//! u32 crc32            (CRC-32/IEEE over every preceding byte)
//! ```
//!
//! v2 files are written to `<path>.tmp`, fsynced, then atomically renamed
//! over `path`, so a crash mid-write can never leave a loadable-but-torn
//! file at `path`. Loading validates the exact file length implied by the
//! header *before* allocating (an absurd-dimension header is rejected
//! instead of attempting a huge allocation) and then the CRC footer, which
//! catches truncation and every single-bit flip.

use crate::error::HccError;
use hcc_comm::{f32_le_bytes, Crc32};
use hcc_sgd::FactorMatrix;
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 7] = b"HCCMF1\n";
const MAGIC_V2: &[u8; 7] = b"HCCMF2\n";

/// Header flag bit: the input matrix was transposed (m < n) before training.
const FLAG_TRANSPOSED: u8 = 1;

/// v2 bytes between magic and P: 5×u64 + f32 lr_scale + u8 flags.
const V2_META_LEN: usize = 5 * 8 + 4 + 1;

/// Training-loop state stored alongside the factors in a v2 checkpoint so a
/// killed run can resume mid-training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingMeta {
    /// Next epoch to run (epochs `0..epoch` are already reflected in P/Q).
    pub epoch: usize,
    /// RNG seed the run was started with (resume validates it matches).
    pub seed: u64,
    /// Cumulative learning-rate backoff applied by the divergence guard.
    pub lr_scale: f32,
    /// Whether the input matrix was transposed before training.
    pub transposed: bool,
}

impl Default for TrainingMeta {
    fn default() -> Self {
        TrainingMeta {
            epoch: 0,
            seed: 0,
            lr_scale: 1.0,
            transposed: false,
        }
    }
}

/// A fully-loaded v2 checkpoint: factors plus resumable training state.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    pub p: FactorMatrix,
    pub q: FactorMatrix,
    pub meta: TrainingMeta,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial). The implementation lives in
// `hcc_comm::crc` — the checkpoint footer and the network frame trailer
// are byte-for-byte the same checksum — and is re-exported here so
// existing `checkpoint::crc32` callers keep working.
// ---------------------------------------------------------------------------

pub use hcc_comm::crc32;

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Writes a `(P, Q)` model to `path` in the crash-safe v2 format with
/// default (fresh-run) training metadata.
pub fn save_model<P: AsRef<Path>>(
    path: P,
    p: &FactorMatrix,
    q: &FactorMatrix,
) -> Result<(), HccError> {
    save_checkpoint(path, p, q, &TrainingMeta::default())
}

/// Writes a `(P, Q)` model plus resumable training state to `path`.
///
/// The file is streamed to `<path>.tmp` through a buffered writer that
/// updates the CRC footer as it goes, fsynced, and atomically renamed into
/// place.
pub fn save_checkpoint<P: AsRef<Path>>(
    path: P,
    p: &FactorMatrix,
    q: &FactorMatrix,
    meta: &TrainingMeta,
) -> Result<(), HccError> {
    if p.k() != q.k() {
        return Err(HccError::BadInput(
            "P and Q must share latent dimension".into(),
        ));
    }
    let path = path.as_ref();
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    let mut out = CrcWriter {
        inner: BufWriter::new(std::fs::File::create(&tmp)?),
        crc: Crc32::new(),
    };
    out.write_all(MAGIC_V2)?;
    for v in [
        p.rows() as u64,
        q.rows() as u64,
        p.k() as u64,
        meta.epoch as u64,
        meta.seed,
    ] {
        out.write_all(&v.to_le_bytes())?;
    }
    out.write_all(&meta.lr_scale.to_le_bytes())?;
    out.write_all(&[if meta.transposed { FLAG_TRANSPOSED } else { 0 }])?;
    out.write_all(&f32_le_bytes(p.as_slice()))?;
    out.write_all(&f32_le_bytes(q.as_slice()))?;
    let CrcWriter { mut inner, crc } = out;
    inner.write_all(&crc.finalize().to_le_bytes())?;
    let file = inner.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// A writer that checksums every byte it passes on.
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Reads a `(P, Q)` model from `path`; accepts both v1 and v2 files.
///
/// Always returns factors in the *original* input orientation (P over
/// users, Q over items): a mid-training checkpoint of a wide matrix
/// stores them in the trainer's internal transposed orientation with the
/// `transposed` flag set, and this un-swaps them. Resume-path callers
/// that need the internal orientation use [`load_checkpoint`] directly.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<(FactorMatrix, FactorMatrix), HccError> {
    let state = load_checkpoint(path)?;
    if state.meta.transposed {
        Ok((state.q, state.p))
    } else {
        Ok((state.p, state.q))
    }
}

/// Reads a checkpoint with its training metadata. v1 files load with
/// [`TrainingMeta::default`] (they carry no resume state).
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<ResumeState, HccError> {
    let bytes = std::fs::read(path.as_ref())?;
    if bytes.len() >= MAGIC_V2.len() && &bytes[..7] == MAGIC_V2 {
        load_v2(&bytes)
    } else if bytes.len() >= MAGIC_V1.len() && &bytes[..7] == MAGIC_V1 {
        load_v1(&bytes)
    } else {
        Err(HccError::CorruptCheckpoint(
            "unrecognized magic (not an HCCMF checkpoint)".into(),
        ))
    }
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(buf)
}

/// Rejects headers whose dimensions can't correspond to a real file: the
/// payload length they imply must match the actual byte count exactly, so
/// a bit-flipped dimension can never trigger a huge allocation.
fn checked_dims(
    m: u64,
    n: u64,
    k: u64,
    payload_len: usize,
) -> Result<(usize, usize, usize), HccError> {
    let (m, n, k) = (m as usize, n as usize, k as usize);
    let expected = (|| {
        if k == 0 {
            return None;
        }
        let pk = m.checked_mul(k)?;
        let qk = n.checked_mul(k)?;
        pk.checked_add(qk)?.checked_mul(4)
    })();
    match expected {
        Some(len) if len == payload_len => Ok((m, n, k)),
        _ => Err(HccError::CorruptCheckpoint(format!(
            "header dims ({m}×{n}×{k}) inconsistent with payload of {payload_len} bytes"
        ))),
    }
}

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn load_v2(bytes: &[u8]) -> Result<ResumeState, HccError> {
    let header_len = MAGIC_V2.len() + V2_META_LEN;
    if bytes.len() < header_len + 4 {
        return Err(HccError::CorruptCheckpoint("truncated v2 header".into()));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return Err(HccError::CorruptCheckpoint(format!(
            "crc mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )));
    }
    let mut off = MAGIC_V2.len();
    let m = read_u64(body, off);
    let n = read_u64(body, off + 8);
    let k = read_u64(body, off + 16);
    let epoch = read_u64(body, off + 24);
    let seed = read_u64(body, off + 32);
    off += 40;
    let lr_scale = f32::from_le_bytes([body[off], body[off + 1], body[off + 2], body[off + 3]]);
    let flags = body[off + 4];
    let payload = &body[header_len..];
    let (m, n, k) = checked_dims(m, n, k, payload.len())?;
    if !(lr_scale.is_finite() && lr_scale > 0.0) {
        return Err(HccError::CorruptCheckpoint(format!(
            "invalid lr_scale {lr_scale}"
        )));
    }
    let (p_bytes, q_bytes) = payload.split_at(m * k * 4);
    Ok(ResumeState {
        p: FactorMatrix::from_vec(m, k, decode_f32s(p_bytes)),
        q: FactorMatrix::from_vec(n, k, decode_f32s(q_bytes)),
        meta: TrainingMeta {
            epoch: epoch as usize,
            seed,
            lr_scale,
            transposed: flags & FLAG_TRANSPOSED != 0,
        },
    })
}

fn load_v1(bytes: &[u8]) -> Result<ResumeState, HccError> {
    let header_len = MAGIC_V1.len() + 3 * 8;
    if bytes.len() < header_len {
        return Err(HccError::CorruptCheckpoint("truncated v1 header".into()));
    }
    let m = read_u64(bytes, MAGIC_V1.len());
    let n = read_u64(bytes, MAGIC_V1.len() + 8);
    let k = read_u64(bytes, MAGIC_V1.len() + 16);
    let payload = &bytes[header_len..];
    let (m, n, k) = checked_dims(m, n, k, payload.len())?;
    let (p_bytes, q_bytes) = payload.split_at(m * k * 4);
    Ok(ResumeState {
        p: FactorMatrix::from_vec(m, k, decode_f32s(p_bytes)),
        q: FactorMatrix::from_vec(n, k, decode_f32s(q_bytes)),
        meta: TrainingMeta::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hcc_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Builds a v1-format file by hand (the writer only emits v2 now).
    fn write_v1(path: &std::path::Path, p: &FactorMatrix, q: &FactorMatrix) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        for v in [p.rows() as u64, q.rows() as u64, p.k() as u64] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for &v in p.as_slice().iter().chain(q.as_slice()) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn roundtrip() {
        let p = FactorMatrix::random(13, 4, 1);
        let q = FactorMatrix::random(7, 4, 2);
        let path = tmp("roundtrip.hccmf");
        save_model(&path, &p, &q).unwrap();
        let (p2, q2) = load_model(&path).unwrap();
        assert_eq!(p, p2);
        assert_eq!(q, q2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_with_meta() {
        let p = FactorMatrix::random(6, 3, 5);
        let q = FactorMatrix::random(9, 3, 6);
        let meta = TrainingMeta {
            epoch: 7,
            seed: 42,
            lr_scale: 0.25,
            transposed: true,
        };
        let path = tmp("meta.hccmf");
        save_checkpoint(&path, &p, &q, &meta).unwrap();
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p);
        assert_eq!(state.q, q);
        assert_eq!(state.meta, meta);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_model_unswaps_transposed_checkpoints() {
        // A wide input (items > users) trains transposed, so its periodic
        // checkpoints store (P_int=items, Q_int=users) with the flag set.
        // `load_model` must hand back the original (users, items)
        // orientation; `load_checkpoint` keeps the internal one for resume.
        let p_int = FactorMatrix::random(9, 3, 15); // items, internally "P"
        let q_int = FactorMatrix::random(6, 3, 16); // users, internally "Q"
        let meta = TrainingMeta {
            epoch: 3,
            seed: 1,
            lr_scale: 1.0,
            transposed: true,
        };
        let path = tmp("transposed.hccmf");
        save_checkpoint(&path, &p_int, &q_int, &meta).unwrap();
        let (p, q) = load_model(&path).unwrap();
        assert_eq!(p, q_int, "P must be the user factors");
        assert_eq!(q, p_int, "Q must be the item factors");
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p_int);
        assert_eq!(state.q, q_int);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reads_legacy_v1_files() {
        let p = FactorMatrix::random(5, 2, 7);
        let q = FactorMatrix::random(4, 2, 8);
        let path = tmp("legacy_v1.hccmf");
        write_v1(&path, &p, &q);
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p);
        assert_eq!(state.q, q);
        assert_eq!(state.meta, TrainingMeta::default());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_mismatched_k() {
        let p = FactorMatrix::zeros(2, 3);
        let q = FactorMatrix::zeros(2, 4);
        assert!(save_model(tmp("bad_k.hccmf"), &p, &q).is_err());
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage.hccmf");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(matches!(
            load_model(&path),
            Err(HccError::CorruptCheckpoint(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let p = FactorMatrix::random(5, 2, 3);
        let q = FactorMatrix::random(4, 2, 4);
        let path = tmp("trunc.hccmf");
        save_model(&path, &p, &q).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(HccError::CorruptCheckpoint(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_single_bit_flip_anywhere() {
        let p = FactorMatrix::random(3, 2, 9);
        let q = FactorMatrix::random(2, 2, 10);
        let path = tmp("bitflip.hccmf");
        save_model(&path, &p, &q).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte_idx in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[byte_idx] ^= 1 << (byte_idx % 8);
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                load_model(&path).is_err(),
                "bit flip at byte {byte_idx} went undetected"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_absurd_dims_without_allocating() {
        let p = FactorMatrix::random(3, 2, 11);
        let q = FactorMatrix::random(2, 2, 12);
        let path = tmp("absurd.hccmf");
        write_v1(&path, &p, &q);
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim m = 2^60 rows in a v1 file (no CRC to catch it): the length
        // check must reject it before any allocation happens.
        bytes[MAGIC_V1.len()..MAGIC_V1.len() + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(HccError::CorruptCheckpoint(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let p = FactorMatrix::random(4, 2, 13);
        let q = FactorMatrix::random(4, 2, 14);
        let path = tmp("atomic.hccmf");
        save_model(&path, &p, &q).unwrap();
        assert!(path.exists());
        assert!(!tmp("atomic.hccmf.tmp").exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            load_model(tmp("does_not_exist.hccmf")),
            Err(HccError::Io(_))
        ));
    }

    /// The v2 layout assembled in memory, field by field, independently
    /// of the streaming writer.
    fn reference_v2(p: &FactorMatrix, q: &FactorMatrix, meta: &TrainingMeta) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        for v in [
            p.rows() as u64,
            q.rows() as u64,
            p.k() as u64,
            meta.epoch as u64,
            meta.seed,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&meta.lr_scale.to_le_bytes());
        bytes.push(if meta.transposed { FLAG_TRANSPOSED } else { 0 });
        for &v in p.as_slice().iter().chain(q.as_slice()) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn saved_bytes_match_reference_v2_layout() {
        // The largest model is several times the writer's 8 KiB buffer,
        // so the streamed CRC crosses buffer flushes.
        for (m, n, k) in [(1, 1, 1), (13, 7, 4), (3000, 2, 3)] {
            let p = FactorMatrix::random(m, k, 21);
            let q = FactorMatrix::random(n, k, 22);
            let meta = TrainingMeta {
                epoch: 9,
                seed: 0xABCD,
                lr_scale: 0.75,
                transposed: m % 2 == 1,
            };
            let path = tmp("golden.hccmf");
            save_checkpoint(&path, &p, &q, &meta).unwrap();
            let saved = std::fs::read(&path).unwrap();
            assert!(saved == reference_v2(&p, &q, &meta), "{m}x{n}x{k}");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn loads_checkpoint_written_by_the_in_memory_writer() {
        // Bytes of a v2 file written by the earlier writer, which built
        // the whole file in memory and checksummed it in one call.
        const OLD_V2: [u8; 96] = [
            0x48, 0x43, 0x43, 0x4d, 0x46, 0x32, 0x0a, 0x02, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, //
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x00, 0xed, 0x5e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x3f, 0x01, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0, //
            0x00, 0x00, 0x00, 0x3e, 0xa6, 0x9b, 0x44, 0x3b, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0xf0, 0x40, 0x00, 0x00, 0x80, 0x00, //
            0x00, 0x24, 0x74, 0x49, 0x00, 0x00, 0x29, 0xc2, 0xcf, 0xd9, 0xcf, 0xf7, //
        ];
        let p = FactorMatrix::from_vec(2, 2, vec![1.0, -2.5, 0.125, 3.0e-3]);
        let q = FactorMatrix::from_vec(3, 2, vec![0.0, -0.0, 7.5, f32::MIN_POSITIVE, 1e6, -42.25]);
        let meta = TrainingMeta {
            epoch: 3,
            seed: 0x5EED,
            lr_scale: 0.5,
            transposed: true,
        };
        let path = tmp("old_v2.hccmf");
        std::fs::write(&path, OLD_V2).unwrap();
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p);
        assert_eq!(state.q, q);
        assert_eq!(state.meta, meta);
        // …and today's writer reproduces those bytes exactly.
        save_checkpoint(&path, &p, &q, &meta).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), OLD_V2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
