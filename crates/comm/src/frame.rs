//! Length-prefixed wire frames for the socket transport.
//!
//! Every RPC between a worker and the server crosses the socket as one
//! frame:
//!
//! ```text
//! ┌───────┬──────┬──────┬────────┬───────┬───────┬─────────┬─────────┬───────┐
//! │ magic │ kind │ prec │ worker │ epoch │ chunk │ len     │ payload │ crc32 │
//! │ 4 B   │ 1 B  │ 1 B  │ u16 LE │ u32LE │ u32LE │ u32 LE  │ len B   │ u32LE │
//! │ "HCF1"│      │      │        │       │       │ (bytes) │         │       │
//! └───────┴──────┴──────┴────────┴───────┴───────┴─────────┴─────────┴───────┘
//! ```
//!
//! The header is [`HEADER_LEN`] bytes; the CRC-32/IEEE trailer
//! ([`crate::crc`]) covers everything after the magic (kind through
//! payload), so a flipped bit anywhere in the metadata or data is caught
//! before the payload is applied. Payloads are f32 at the API and
//! optionally IEEE binary16 on the wire, reusing the [`Precision`] codec
//! the shared-memory transports already speak. The length prefix is capped
//! at [`MAX_PAYLOAD_BYTES`] so a corrupt prefix can never coerce the
//! receiver into a giant allocation.
//!
//! There is one codec, with a copy-free form for each direction:
//!
//! * [`FrameRef::encode`] serializes a payload borrowed from the caller
//!   into one exactly-sized wire buffer.
//! * [`FrameView::parse`] validates a frame where it lies — exact length,
//!   then the CRC over the whole body — and [`FrameView::decode_payload`]
//!   then writes the payload straight into the caller's slice. A frame
//!   that fails validation never touches the destination.
//!
//! [`Frame`] is the owned form; [`Frame::encode`] and [`Frame::decode`]
//! are thin wrappers over the two above.

use crate::crc::{crc32, Crc32};
use crate::transport::Precision;
use hcc_sgd::fp16;
use std::borrow::Cow;

/// Frame magic: "HCC frame, version 1".
pub const MAGIC: [u8; 4] = *b"HCF1";

/// Fixed header length in bytes (magic through the length prefix).
pub const HEADER_LEN: usize = 20;

/// CRC trailer length in bytes.
pub const TRAILER_LEN: usize = 4;

/// Hard cap on the payload length prefix (64 MiB). A corrupted or hostile
/// length prefix beyond this is rejected as [`FrameError::Oversized`]
/// instead of driving an allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 26;

/// Elements per step of the fp32 encoder: 32 KiB of wire bytes, small
/// enough to still be in L1 when the CRC reads them back.
const FP32_STEP: usize = 8192;

/// Elements per step of the binary16 wire codec: the conversion goes
/// through a stack buffer of this many halves instead of a heap copy of
/// the whole payload.
const FP16_STEP: usize = 1024;

/// Which RPC a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// Worker → server: "send me the published data" (empty payload);
    /// server → worker: the published data.
    Pull,
    /// Worker → server: this worker's updated data.
    Push,
    /// Server → worker: push acknowledgment / control. The `chunk` field
    /// carries the status code (see [`crate::socket`]).
    Sync,
    /// Worker → server shard: a *delta-encoded* push — only the rows this
    /// worker touched since the last publish, in the
    /// [`crate::delta`] layout, addressed to one shard of a sharded
    /// parameter server. Shares `Push`'s (worker, epoch, chunk)
    /// idempotency key so retransmitted deltas dedup identically.
    DeltaPush,
}

impl RpcKind {
    /// Wire byte for this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            RpcKind::Pull => 1,
            RpcKind::Push => 2,
            RpcKind::Sync => 3,
            RpcKind::DeltaPush => 4,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Result<RpcKind, FrameError> {
        match b {
            1 => Ok(RpcKind::Pull),
            2 => Ok(RpcKind::Push),
            3 => Ok(RpcKind::Sync),
            4 => Ok(RpcKind::DeltaPush),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

fn precision_to_u8(p: Precision) -> u8 {
    match p {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
    }
}

fn precision_from_u8(b: u8) -> Result<Precision, FrameError> {
    match b {
        0 => Ok(Precision::Fp32),
        1 => Ok(Precision::Fp16),
        other => Err(FrameError::BadPrecision(other)),
    }
}

/// Everything that can go wrong parsing a frame. IO errors are not here —
/// the socket layer maps those to `CommError` itself; this taxonomy covers
/// malformed bytes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown RPC kind byte.
    BadKind(u8),
    /// Unknown precision byte.
    BadPrecision(u8),
    /// The buffer ends before the declared frame does.
    Truncated {
        /// Bytes the declared frame requires.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The buffer continues past the end of the declared frame.
    TrailingBytes {
        /// Bytes the declared frame occupies.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_BYTES`] (or is not a whole
    /// number of wire elements).
    Oversized {
        /// Declared payload length in bytes.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The CRC trailer does not match the frame body.
    BadCrc {
        /// CRC carried in the trailer.
        expected: u32,
        /// CRC computed over the received body.
        got: u32,
    },
    /// A valid frame's payload has a different element count than the
    /// slice it was to be decoded into.
    LengthMismatch {
        /// Elements the frame carries.
        payload: usize,
        /// Elements the destination holds.
        dst: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(b) => write!(f, "unknown RPC kind byte {b}"),
            FrameError::BadPrecision(b) => write!(f, "unknown precision byte {b}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            FrameError::TrailingBytes { expected, got } => {
                write!(f, "frame is {expected} bytes but the buffer holds {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds cap {max}")
            }
            FrameError::BadCrc { expected, got } => {
                write!(
                    f,
                    "CRC mismatch: trailer {expected:#010x}, computed {got:#010x}"
                )
            }
            FrameError::LengthMismatch { payload, dst } => {
                write!(
                    f,
                    "payload of {payload} elements does not fit a {dst}-element destination"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded RPC frame. Payload is f32 at this API regardless of the
/// wire precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// RPC kind.
    pub kind: RpcKind,
    /// Wire precision of the payload.
    pub precision: Precision,
    /// Originating (or addressed) worker.
    pub worker: u16,
    /// Training epoch the RPC belongs to — the idempotency key's coarse
    /// half.
    pub epoch: u32,
    /// Chunk index within the epoch (0 for whole-buffer RPCs); doubles as
    /// the status code on [`RpcKind::Sync`] frames.
    pub chunk: u32,
    /// Decoded payload.
    pub payload: Vec<f32>,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: RpcKind, worker: u16, epoch: u32, chunk: u32) -> Frame {
        Frame {
            kind,
            precision: Precision::Fp32,
            worker,
            epoch,
            chunk,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame, encoding the payload at `self.precision` and
    /// appending the CRC trailer (see [`FrameRef::encode`]).
    pub fn encode(&self) -> Vec<u8> {
        FrameRef {
            kind: self.kind,
            precision: self.precision,
            worker: self.worker,
            epoch: self.epoch,
            chunk: self.chunk,
            payload: &self.payload,
        }
        .encode()
    }

    /// Parses a complete frame from `buf`, which must hold exactly one
    /// frame (header + payload + trailer): a short buffer is
    /// [`FrameError::Truncated`], a long one [`FrameError::TrailingBytes`].
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        FrameView::parse(buf).map(|view| view.to_frame())
    }

    /// Validates a raw header and returns the number of bytes that follow
    /// it (payload + trailer) — what a streaming reader must read next.
    /// Catches bad magic and oversized/misaligned length prefixes before
    /// any allocation.
    pub fn body_len(header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
        parse_header(header).map(|(_, payload_bytes)| payload_bytes + TRAILER_LEN)
    }
}

/// Checks the magic, precision and length prefix of a header; returns the
/// precision and the payload length in bytes.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(Precision, usize), FrameError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let precision = precision_from_u8(header[5])?;
    let payload_bytes = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    let bpe = precision.bytes_per_element() as u32;
    if payload_bytes > MAX_PAYLOAD_BYTES || payload_bytes % bpe != 0 {
        return Err(FrameError::Oversized {
            len: payload_bytes,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    Ok((precision, payload_bytes as usize))
}

/// A frame to encode, with its payload borrowed from the caller — the
/// server's published region, a worker's push buffer — so encoding needs
/// no owned copy of it.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// RPC kind.
    pub kind: RpcKind,
    /// Wire precision of the payload.
    pub precision: Precision,
    /// Originating (or addressed) worker.
    pub worker: u16,
    /// Idempotency key's coarse half (see [`Frame::epoch`]).
    pub epoch: u32,
    /// Chunk index or status code (see [`Frame::chunk`]).
    pub chunk: u32,
    /// Payload, encoded at `precision`.
    pub payload: &'a [f32],
}

impl FrameRef<'_> {
    /// Serializes the frame into one allocation of exactly the wire size:
    /// header, the payload at `self.precision` (bulk little-endian copies
    /// at fp32), and the CRC trailer.
    pub fn encode(&self) -> Vec<u8> {
        let payload_bytes = self.payload.len() * self.precision.bytes_per_element() as usize;
        let mut out = Vec::with_capacity(HEADER_LEN + payload_bytes + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.as_u8());
        out.push(precision_to_u8(self.precision));
        out.extend_from_slice(&self.worker.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        out.extend_from_slice(&(payload_bytes as u32).to_le_bytes());
        // The payload is checksummed a step at a time, right after it is
        // written and still in cache, rather than in a second pass.
        let mut crc = Crc32::new();
        crc.update(&out[MAGIC.len()..]);
        match self.precision {
            Precision::Fp32 => {
                for src in self.payload.chunks(FP32_STEP) {
                    let at = out.len();
                    out.extend_from_slice(&f32_le_bytes(src));
                    crc.update(&out[at..]);
                }
            }
            Precision::Fp16 => {
                let mut half = [0u16; FP16_STEP];
                for src in self.payload.chunks(FP16_STEP) {
                    let half = &mut half[..src.len()];
                    fp16::encode_slice(src, half);
                    let at = out.len();
                    out.resize(at + 2 * half.len(), 0);
                    for (d, h) in out[at..].chunks_exact_mut(2).zip(half.iter()) {
                        d.copy_from_slice(&h.to_le_bytes());
                    }
                    crc.update(&out[at..]);
                }
            }
        }
        out.extend_from_slice(&crc.finalize().to_le_bytes());
        out
    }
}

/// `src` as little-endian f32 bytes: a borrowed view on little-endian
/// targets, where the in-memory floats already are that encoding, and an
/// owned conversion elsewhere. The frame payload and the checkpoint
/// factors are both written through it.
#[cfg(target_endian = "little")]
pub fn f32_le_bytes(src: &[f32]) -> Cow<'_, [u8]> {
    // SAFETY: f32 is four bytes with no padding and u8 has alignment 1, so
    // the byte view covers exactly `src`'s memory for `src`'s lifetime.
    let bytes = unsafe {
        std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), std::mem::size_of_val(src))
    };
    Cow::Borrowed(bytes)
}

/// `src` as little-endian f32 bytes (see the little-endian variant).
#[cfg(not(target_endian = "little"))]
pub fn f32_le_bytes(src: &[f32]) -> Cow<'_, [u8]> {
    Cow::Owned(src.iter().flat_map(|v| v.to_le_bytes()).collect())
}

/// A frame validated in its wire buffer `B` (a borrowed slice or an owned
/// `Vec<u8>`): the header is parsed and the length and CRC are checked,
/// while the payload stays in wire encoding until
/// [`FrameView::decode_payload`] writes it where it is needed.
#[derive(Debug)]
pub struct FrameView<B> {
    /// RPC kind.
    pub kind: RpcKind,
    /// Wire precision of the payload.
    pub precision: Precision,
    /// Originating (or addressed) worker.
    pub worker: u16,
    /// Idempotency key's coarse half (see [`Frame::epoch`]).
    pub epoch: u32,
    /// Chunk index or status code (see [`Frame::chunk`]).
    pub chunk: u32,
    buf: B,
}

impl<B: AsRef<[u8]>> FrameView<B> {
    /// Validates `buf` as exactly one frame: header fields, then the exact
    /// length (short is [`FrameError::Truncated`], long is
    /// [`FrameError::TrailingBytes`]), then the CRC over the whole body.
    /// Nothing is decoded until all of that holds.
    pub fn parse(buf: B) -> Result<FrameView<B>, FrameError> {
        let bytes = buf.as_ref();
        let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        };
        let (precision, payload_bytes) = parse_header(header)?;
        let kind = RpcKind::from_u8(header[4])?;
        let trailer_at = HEADER_LEN + payload_bytes;
        let total = trailer_at + TRAILER_LEN;
        if bytes.len() < total {
            return Err(FrameError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(FrameError::TrailingBytes {
                expected: total,
                got: bytes.len(),
            });
        }
        let expected = u32::from_le_bytes([
            bytes[trailer_at],
            bytes[trailer_at + 1],
            bytes[trailer_at + 2],
            bytes[trailer_at + 3],
        ]);
        let got = crc32(&bytes[MAGIC.len()..trailer_at]);
        if expected != got {
            return Err(FrameError::BadCrc { expected, got });
        }
        Ok(FrameView {
            kind,
            precision,
            worker: u16::from_le_bytes([header[6], header[7]]),
            epoch: u32::from_le_bytes([header[8], header[9], header[10], header[11]]),
            chunk: u32::from_le_bytes([header[12], header[13], header[14], header[15]]),
            buf,
        })
    }

    /// The payload in wire encoding.
    fn wire(&self) -> &[u8] {
        let bytes = self.buf.as_ref();
        &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN]
    }

    /// Payload length in elements.
    pub fn payload_len(&self) -> usize {
        self.wire().len() / self.precision.bytes_per_element() as usize
    }

    /// Decodes the payload into `dst`, which must hold exactly
    /// [`FrameView::payload_len`] elements; otherwise
    /// [`FrameError::LengthMismatch`] and `dst` is left untouched.
    pub fn decode_payload(&self, dst: &mut [f32]) -> Result<(), FrameError> {
        let payload = self.payload_len();
        if dst.len() != payload {
            return Err(FrameError::LengthMismatch {
                payload,
                dst: dst.len(),
            });
        }
        self.write_payload(dst);
        Ok(())
    }

    /// The owned [`Frame`] this view describes.
    fn to_frame(&self) -> Frame {
        let mut payload = vec![0f32; self.payload_len()];
        self.write_payload(&mut payload);
        Frame {
            kind: self.kind,
            precision: self.precision,
            worker: self.worker,
            epoch: self.epoch,
            chunk: self.chunk,
            payload,
        }
    }

    /// Decodes the payload into `dst` (callers ensure the lengths agree).
    fn write_payload(&self, dst: &mut [f32]) {
        let wire = self.wire();
        match self.precision {
            Precision::Fp32 => {
                for (d, c) in dst.iter_mut().zip(wire.chunks_exact(4)) {
                    *d = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            Precision::Fp16 => {
                let mut half = [0u16; FP16_STEP];
                for (dst, src) in dst.chunks_mut(FP16_STEP).zip(wire.chunks(2 * FP16_STEP)) {
                    let half = &mut half[..dst.len()];
                    for (h, c) in half.iter_mut().zip(src.chunks_exact(2)) {
                        *h = u16::from_le_bytes([c[0], c[1]]);
                    }
                    fp16::decode_slice(half, dst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(precision: Precision) -> Frame {
        Frame {
            kind: RpcKind::Push,
            precision,
            worker: 3,
            epoch: 17,
            chunk: 2,
            payload: vec![0.5, -1.25, 3.0, 0.0],
        }
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        let f = sample(Precision::Fp32);
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn fp16_roundtrip_quantizes() {
        let f = sample(Precision::Fp16);
        let decoded = Frame::decode(&f.encode()).unwrap();
        // These values are exactly representable in binary16.
        assert_eq!(decoded.payload, f.payload);
        assert_eq!(decoded.kind, RpcKind::Push);
    }

    #[test]
    fn control_frames_are_empty() {
        let f = Frame::control(RpcKind::Sync, 1, 9, 0);
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_kind_and_precision_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[4] = 0xEE;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(0xEE)));
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[5] = 9;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadPrecision(9)));
    }

    #[test]
    fn delta_push_roundtrips_and_first_unused_kind_byte_rejected() {
        let f = Frame {
            kind: RpcKind::DeltaPush,
            ..sample(Precision::Fp32)
        };
        let bytes = f.encode();
        assert_eq!(bytes[4], 4, "DeltaPush wire byte");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        // Byte 5 is the first unassigned kind: it must stay rejected so a
        // future kind cannot silently alias an old deployment's frames.
        let mut bytes = bytes;
        bytes[4] = 5;
        // Re-sign the body so only the kind byte is at fault, not the CRC.
        let crc_at = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[4..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(5)));
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = sample(Precision::Fp32).encode();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            Frame::decode(cut),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            Frame::decode(&bytes[..7]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        let len = bytes.len();
        bytes.push(0);
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::TrailingBytes {
                expected: len,
                got: len + 1
            })
        );
    }

    #[test]
    fn view_decodes_in_place_or_not_at_all() {
        let f = sample(Precision::Fp16);
        let bytes = f.encode();
        let view = FrameView::parse(&bytes[..]).unwrap();
        assert_eq!(view.kind, RpcKind::Push);
        assert_eq!((view.worker, view.epoch, view.chunk), (3, 17, 2));
        assert_eq!(view.payload_len(), 4);
        let mut dst = [f32::NAN; 4];
        view.decode_payload(&mut dst).unwrap();
        assert_eq!(dst.to_vec(), f.payload);

        // A destination of the wrong length is a typed error, not a
        // partial copy.
        let mut short = [7.0f32; 3];
        assert_eq!(
            view.decode_payload(&mut short),
            Err(FrameError::LengthMismatch { payload: 4, dst: 3 })
        );
        assert_eq!(short, [7.0; 3]);

        // An owned buffer works the same way.
        let owned = FrameView::parse(bytes.clone()).unwrap();
        assert_eq!(owned.to_frame(), Frame::decode(&bytes).unwrap());
    }

    #[test]
    fn frame_ref_encodes_like_frame() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            // Long enough to cross the fp16 codec's step; every value is
            // exact in binary16.
            let payload: Vec<f32> = (0..2 * FP16_STEP + 3)
                .map(|j| (j % 256) as f32 * 0.25)
                .collect();
            let owned = Frame {
                payload: payload.clone(),
                ..sample(precision)
            };
            let borrowed = FrameRef {
                kind: owned.kind,
                precision,
                worker: owned.worker,
                epoch: owned.epoch,
                chunk: owned.chunk,
                payload: &payload,
            };
            let bytes = borrowed.encode();
            assert_eq!(bytes, owned.encode());
            assert_eq!(bytes.len(), bytes.capacity(), "one exactly-sized buffer");
            assert_eq!(Frame::decode(&bytes).unwrap(), owned);
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 4).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
        // Misaligned prefix (not a whole number of elements) is also
        // oversized-class: the declared length can't be trusted.
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn body_len_validates_header() {
        let bytes = sample(Precision::Fp32).encode();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        assert_eq!(Frame::body_len(&header).unwrap(), 16 + TRAILER_LEN);
        header[2] = 0;
        assert!(matches!(
            Frame::body_len(&header),
            Err(FrameError::BadMagic(_))
        ));
    }

    // Satellite: 256-case codec property — round-trip at both precisions,
    // plus rejection of truncation, bit flips, and oversized prefixes, on
    // arbitrary frames. The vendored proptest shim has a fixed default
    // case count, so the cases are driven explicitly through its Strategy
    // API with one deterministic seed per case.
    #[test]
    fn codec_roundtrip_and_rejection_256_cases() {
        use proptest::{collection, Strategy};
        use rand::SeedableRng;

        for case in 0u64..256 {
            let mut rng = proptest::TestRng::seed_from_u64(
                0xF8A3_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let kind_b = (1u8..5).generate(&mut rng);
            let fp16_wire = (0u8..2).generate(&mut rng) == 1;
            let worker = (0u16..u16::MAX).generate(&mut rng);
            let epoch = (0u32..u32::MAX).generate(&mut rng);
            let chunk = (0u32..u32::MAX).generate(&mut rng);
            let payload = collection::vec(-1000.0f32..1000.0, 0..64).generate(&mut rng);
            let flip_at = (0usize..1 << 16).generate(&mut rng);
            let cut = (0usize..1 << 16).generate(&mut rng);

            let precision = if fp16_wire {
                Precision::Fp16
            } else {
                Precision::Fp32
            };
            let frame = Frame {
                kind: RpcKind::from_u8(kind_b).unwrap(),
                precision,
                worker,
                epoch,
                chunk,
                payload: payload.clone(),
            };
            let bytes = frame.encode();

            // Round-trip: exact at fp32, within binary16 tolerance at fp16.
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded.kind, frame.kind);
            assert_eq!(decoded.worker, worker);
            assert_eq!(decoded.epoch, epoch);
            assert_eq!(decoded.chunk, chunk);
            assert_eq!(decoded.payload.len(), payload.len());
            for (a, b) in payload.iter().zip(&decoded.payload) {
                match precision {
                    Precision::Fp32 => assert_eq!(a, b),
                    Precision::Fp16 => assert!(
                        (a - b).abs() <= a.abs() / 1024.0 + 1e-6,
                        "case {case}: {a} vs {b}"
                    ),
                }
            }

            // Truncation: any strict prefix is rejected.
            let cut = cut % bytes.len();
            assert!(Frame::decode(&bytes[..cut]).is_err(), "case {case}");

            // Bit flip after the magic: CRC (or a field validator) rejects.
            let mut corrupt = bytes.clone();
            let at = 4 + flip_at % (corrupt.len() - 4);
            corrupt[at] ^= 0x01;
            assert!(Frame::decode(&corrupt).is_err(), "case {case} flip {at}");

            // Trailing garbage after a valid frame is rejected.
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(
                matches!(
                    Frame::decode(&trailing),
                    Err(FrameError::TrailingBytes { .. })
                ),
                "case {case}"
            );

            // Oversized prefix: rejected without reading the payload.
            let mut oversized = bytes.clone();
            oversized[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
            assert!(
                matches!(Frame::decode(&oversized), Err(FrameError::Oversized { .. })),
                "case {case}"
            );
        }
    }
}
