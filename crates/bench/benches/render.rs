//! Criterion benches for the software rasterizer across the ten game
//! workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gss_render::{GameId, GameWorkload};
use std::hint::black_box;

fn bench_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("render");
    group.sample_size(10);
    // resolution scaling on one representative game, from the fleet's
    // 256x144 server canvas up to the comparison's native 1280x720
    let g3 = GameWorkload::new(GameId::G3);
    for (w, h) in [(256usize, 144usize), (320, 180), (640, 360), (1280, 720)] {
        group.bench_with_input(
            BenchmarkId::new("g3", format!("{w}x{h}")),
            &(w, h),
            |b, &(w, h)| b.iter(|| black_box(g3.render_frame(0, w, h))),
        );
    }
    // all games at the quality canvas
    for id in GameId::ALL {
        let workload = GameWorkload::new(id);
        group.bench_with_input(
            BenchmarkId::new("game_320x180", id.label()),
            &workload,
            |b, w| b.iter(|| black_box(w.render_frame(0, 320, 180))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_render);
criterion_main!(benches);
