//! Socket wire-path throughput: the CRC-32 every HCF1 frame and checkpoint
//! carries (on the run-time dispatched path), and a whole frame encode +
//! decode of a train-wire-sized Q region (150k items ×
//! k = 32) at both wire precisions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hcc_comm::{crc32, Frame, FrameRef, FrameView, Precision, RpcKind};
use std::hint::black_box;

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for bytes in [1usize << 10, 1 << 16, 1 << 24] {
        let data: Vec<u8> = (0..bytes).map(|j| (j * 131 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(BenchmarkId::new("dispatched", bytes), &data, |b, d| {
            b.iter(|| crc32(black_box(d)))
        });
    }
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    const ITEMS: usize = 150_000;
    const K: usize = 32;
    let region: Vec<f32> = (0..ITEMS * K)
        .map(|j| (j % 977) as f32 * 0.013 - 2.0)
        .collect();
    let mut group = c.benchmark_group("frame");
    group.throughput(Throughput::Bytes((ITEMS * K * 4) as u64));
    for precision in [Precision::Fp32, Precision::Fp16] {
        let name = match precision {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
        };
        let frame = FrameRef {
            kind: RpcKind::Push,
            precision,
            worker: 0,
            epoch: 1,
            chunk: 0,
            payload: &region,
        };
        // The owned round trip the `Frame` API offers…
        let owned = Frame {
            kind: frame.kind,
            precision,
            worker: 0,
            epoch: 1,
            chunk: 0,
            payload: region.clone(),
        };
        group.bench_function(BenchmarkId::new("encode_decode_owned", name), |b| {
            b.iter(|| Frame::decode(black_box(&owned.encode())))
        });
        // …and the copy-free one the socket transport runs.
        let mut dst = vec![0f32; region.len()];
        group.bench_function(BenchmarkId::new("encode_decode_into", name), |b| {
            b.iter(|| {
                let bytes = black_box(&frame).encode();
                FrameView::parse(&bytes[..]).and_then(|view| view.decode_payload(&mut dst))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crc32, bench_frame
}
criterion_main!(benches);
