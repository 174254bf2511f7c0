//! Criterion benches for the codec substrate: intra/inter encode, decode,
//! motion estimation and the 4:2:0 chroma upsampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gss_codec::{estimate_motion, upsample2_bilinear, Decoder, Encoder, EncoderConfig};
use gss_frame::{Frame, Plane};
use gss_render::{GameId, GameWorkload};
use std::hint::black_box;

fn game_frame(t: usize, w: usize, h: usize) -> Frame {
    GameWorkload::new(GameId::G5).render_frame(t, w, h).frame
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_encode");
    group.sample_size(10);
    for (w, h) in [(320usize, 180usize), (640, 360)] {
        let f0 = game_frame(0, w, h);
        let f1 = game_frame(2, w, h);
        group.bench_with_input(
            BenchmarkId::new("intra", format!("{w}x{h}")),
            &f0,
            |b, f| {
                b.iter(|| {
                    let mut enc = Encoder::new(EncoderConfig::default());
                    black_box(enc.encode(f).unwrap())
                })
            },
        );
        group.bench_function(BenchmarkId::new("inter", format!("{w}x{h}")), |b| {
            b.iter(|| {
                let mut enc = Encoder::new(EncoderConfig::default());
                enc.encode(&f0).unwrap();
                black_box(enc.encode(&f1).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_decode");
    group.sample_size(10);
    // 640x360 is the comparison experiment's coded size
    for (w, h) in [(320usize, 180usize), (640, 360)] {
        let f0 = game_frame(0, w, h);
        let f1 = game_frame(2, w, h);
        let mut enc = Encoder::new(EncoderConfig::default());
        let p0 = enc.encode(&f0).unwrap();
        let p1 = enc.encode(&f1).unwrap();
        group.bench_function(BenchmarkId::new("intra", format!("{w}x{h}")), |b| {
            b.iter(|| {
                let mut dec = Decoder::new();
                black_box(dec.decode(&p0).unwrap())
            })
        });
        group.bench_function(BenchmarkId::new("gop2", format!("{w}x{h}")), |b| {
            b.iter(|| {
                let mut dec = Decoder::new();
                dec.decode(&p0).unwrap();
                black_box(dec.decode(&p1).unwrap())
            })
        });
        // the inter packet alone: each call predicts from the previous
        // call's output, which costs the same as predicting from the
        // keyframe (same payload, same motion field)
        let mut dec = Decoder::new();
        dec.decode(&p0).unwrap();
        group.bench_function(BenchmarkId::new("inter", format!("{w}x{h}")), |b| {
            b.iter(|| black_box(dec.decode(&p1).unwrap()))
        });
    }
    group.finish();
}

fn bench_chroma_upsample(c: &mut Criterion) {
    let mut group = c.benchmark_group("chroma_upsample");
    group.sample_size(10);
    // half-size chroma planes of the 640x360 and 320x180 coded frames
    for (w, h) in [(160usize, 90usize), (320, 180)] {
        let cb = game_frame(0, w, h).cb().clone();
        group.bench_with_input(
            BenchmarkId::new("bilinear_2x", format!("{w}x{h}")),
            &cb,
            |b, p| b.iter(|| black_box(upsample2_bilinear(p))),
        );
    }
    group.finish();
}

fn bench_motion(c: &mut Criterion) {
    let mut group = c.benchmark_group("motion_estimation");
    group.sample_size(10);
    for (w, h) in [(320usize, 180usize), (640, 360)] {
        let a: Plane<f32> = game_frame(0, w, h).y().clone();
        let b_: Plane<f32> = game_frame(2, w, h).y().clone();
        group.bench_function(BenchmarkId::new("three_step", format!("{w}x{h}")), |b| {
            b.iter(|| black_box(estimate_motion(&b_, &a, 7)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_chroma_upsample,
    bench_motion
);
criterion_main!(benches);
