//! Micro-bench: serialization and compression (§III-E).
//!
//! Profile encode/decode (bulk and per-slice), the LZ compressor on
//! profile-like and incompressible data, and the frame envelope.
//!
//! `build` writes each slice's features in one contiguous loop, so its
//! profiles sit in memory in write order. The `shaped` cases build theirs
//! the way serving does, through `ProfileData::add` at random times and
//! then compaction, which is the layout a flush walks.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ips_codec::{compress, decode_frame, decompress, encode_frame};
use ips_core::model::ProfileData;
use ips_core::persist::schema::{decode_profile, encode_profile};
use ips_types::{
    ActionTypeId, AggregateFunction, CompactionConfig, CountVector, DurationMs, FeatureId, SlotId,
    TimeDimensionConfig, Timestamp,
};

#[path = "../../ips-core/tests/common/shaped.rs"]
mod shaped;

fn build(slices: u64, feats: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for s in 0..slices {
        for f in 0..feats {
            p.add(
                Timestamp::from_millis(1_000 + s * 10_000),
                SlotId::new((f % 4) as u32),
                ActionTypeId::new((f % 2) as u32),
                FeatureId::new(f * 31 + s),
                &CountVector::from_slice(&[f as i64, 2, -7]),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

fn bench_profile_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_codec");
    // The paper's production average: ~62 slices.
    for (slices, feats) in [(8u64, 8u64), (62, 12), (256, 32)] {
        let p = build(slices, feats);
        let encoded = encode_profile(&p);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{slices}x{feats}")),
            &p,
            |b, p| b.iter(|| black_box(encode_profile(black_box(p)))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode", format!("{slices}x{feats}")),
            &encoded,
            |b, bytes| b.iter(|| black_box(decode_profile(black_box(bytes)).unwrap())),
        );
    }
    // Benchmark-shaped profiles: a median one and a hot one.
    let config = CompactionConfig {
        time_dimension: TimeDimensionConfig::production_default(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(34);
    for writes in [40u32, 3_000] {
        let p = shaped::benchmark_shaped_profile(&mut rng, &config, writes..writes + 1);
        let encoded = encode_profile(&p);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode_shaped", format!("{writes}w")),
            &p,
            |b, p| b.iter(|| black_box(encode_profile(black_box(p)))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_shaped", format!("{writes}w")),
            &encoded,
            |b, bytes| b.iter(|| black_box(decode_profile(black_box(bytes)).unwrap())),
        );
    }
    group.finish();
}

fn bench_compressor(c: &mut Criterion) {
    let mut group = c.benchmark_group("compressor");
    // Profile-like bytes: the serialized wire body before framing.
    let p = build(62, 12);
    let profile_like = {
        // Strip the frame to get raw wire bytes via decode.
        let framed = encode_profile(&p);
        decode_frame(&framed).unwrap()
    };
    let incompressible: Vec<u8> = (0..profile_like.len() as u64)
        .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
        .collect();

    for (name, data) in [("profile_like", &profile_like), ("random", &incompressible)] {
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress", name), data, |b, d| {
            b.iter(|| black_box(compress(black_box(d))))
        });
        let compressed = compress(data);
        group.bench_with_input(
            BenchmarkId::new("decompress", name),
            &(compressed, data.len()),
            |b, (comp, len)| b.iter(|| black_box(decompress(black_box(comp), *len).unwrap())),
        );
    }
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let payload = {
        let p = build(62, 12);
        let framed = encode_profile(&p);
        decode_frame(&framed).unwrap()
    };
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode_frame", |b| {
        b.iter(|| black_box(encode_frame(black_box(&payload))))
    });
    let framed = encode_frame(&payload);
    group.bench_function("decode_frame", |b| {
        b.iter(|| black_box(decode_frame(black_box(&framed)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_profile_codec, bench_compressor, bench_frame);
criterion_main!(benches);
