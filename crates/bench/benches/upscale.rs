//! Criterion benches for the two client pipelines' per-frame data paths
//! (Fig. 10a's subject, here as actual Rust wall-clock rather than the
//! calibrated platform model).

use criterion::{criterion_group, criterion_main, Criterion};
use gamestreamsr::decoder_ext::SrIntegratedDecoder;
use gamestreamsr::{GameStreamClient, GameStreamServer, NemoClient, ServerConfig};
use gss_render::{GameId, GameWorkload};
use gss_sr::{resize_plane, InterpKernel, NeuralSr, NeuralSrConfig, Upscaler};
use std::hint::black_box;

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_pipelines");
    group.sample_size(10);

    // pre-encode a 2-frame stream once
    let mk_packets = || {
        let mut server = GameStreamServer::new(ServerConfig::new(
            gss_render::GameId::G3,
            (320, 180),
            (75, 75),
        ));
        let p0 = server.next_frame().unwrap();
        let p1 = server.next_frame().unwrap();
        (p0, p1)
    };
    let (p0, p1) = mk_packets();

    group.bench_function("ours_ref_frame_320x180", |b| {
        b.iter(|| {
            let mut client = GameStreamClient::new(2);
            black_box(client.process(&p0.encoded, p0.roi).unwrap())
        })
    });
    group.bench_function("ours_gop2_320x180", |b| {
        b.iter(|| {
            let mut client = GameStreamClient::new(2);
            client.process(&p0.encoded, p0.roi).unwrap();
            black_box(client.process(&p1.encoded, p1.roi).unwrap())
        })
    });
    group.bench_function("nemo_gop2_320x180", |b| {
        b.iter(|| {
            let mut nemo = NemoClient::new(2);
            nemo.process(&p0.encoded).unwrap();
            black_box(nemo.process(&p1.encoded).unwrap())
        })
    });
    group.bench_function("sr_integrated_decoder_gop2_320x180", |b| {
        b.iter(|| {
            let mut ext = SrIntegratedDecoder::new(2);
            ext.process(&p0.encoded, p0.roi).unwrap();
            black_box(ext.process(&p1.encoded, p1.roi).unwrap())
        })
    });
    group.finish();
}

/// The comparison's full-frame upscales at its 640x360 → 1280x720 size:
/// bicubic (the neural proxy's initializer) and NEMO's reference-frame SR.
fn bench_full_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_frame_640x360");
    group.sample_size(10);
    let lr = GameWorkload::new(GameId::G3)
        .render_frame(0, 640, 360)
        .frame;
    group.bench_function("bicubic_resize_plane_y", |b| {
        b.iter(|| black_box(resize_plane(lr.y(), 1280, 720, InterpKernel::Bicubic)))
    });
    group.bench_function("neural_sr_frame", |b| {
        let sr = NeuralSr::new(NeuralSrConfig::default());
        b.iter(|| black_box(sr.upscale(&lr)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipelines, bench_full_frame);
criterion_main!(benches);
