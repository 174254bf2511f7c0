//! Golden digests of the rasterizer's output.
//!
//! Each digest is an FNV-1a hash over the bit patterns of the Y, Cb, Cr
//! and depth planes plus the [`RenderStats`] counters. The values were
//! recorded from the straightforward per-pixel rasterizer (one shading
//! pass per covered pixel, whole bounding-box walk, separate color
//! conversion), so any change to the pixel kernels that is not
//! bit-identical fails here.

use gss_render::{GameId, GameWorkload, RenderOutput, RenderStats};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(h: u64, out: &RenderOutput) -> u64 {
    let planes = [
        out.frame.y(),
        out.frame.cb(),
        out.frame.cr(),
        out.depth.plane(),
    ];
    let mut h = h;
    for plane in planes {
        for &v in plane.iter() {
            h = fnv(h, v.to_bits() as u64);
        }
    }
    let RenderStats {
        triangles_submitted,
        triangles_culled,
        triangles_rasterized,
        pixels_shaded,
    } = out.stats;
    for n in [
        triangles_submitted,
        triangles_culled,
        triangles_rasterized,
        pixels_shaded,
    ] {
        h = fnv(h, n as u64);
    }
    h
}

/// Frames hashed per game: a keyframe-position frame and one later in
/// the camera path.
const FRAMES: [usize; 2] = [0, 7];

fn game_digest(id: GameId, width: usize, height: usize) -> u64 {
    let workload = GameWorkload::new(id);
    FRAMES.iter().fold(FNV_OFFSET, |h, &t| {
        digest(h, &workload.render_frame(t, width, height))
    })
}

fn check(width: usize, height: usize, expected: &[u64; 10]) {
    let got: Vec<u64> = GameId::ALL
        .iter()
        .map(|&id| game_digest(id, width, height))
        .collect();
    assert_eq!(got, expected.to_vec(), "{width}x{height} digests changed");
}

#[test]
fn fleet_size_256x144_is_bit_identical() {
    check(
        256,
        144,
        &[
            0xca0a9d0f5e98752d,
            0x896a9b024f2f749d,
            0x46cc3224c26167a0,
            0x145af02ee4c1ec70,
            0xf8333520d1fb17ce,
            0x4a6c1c25a06f3d35,
            0x93c10778c2cf8ee3,
            0x843cbb552778e311,
            0xb014c0fb12771d5f,
            0xcce0d34d29e36652,
        ],
    );
}

#[test]
fn nemo_setup_192x108_is_bit_identical() {
    check(
        192,
        108,
        &[
            0x1df0e31640591cf1,
            0xcfa2bf0516cef92b,
            0xc423e236b83ba826,
            0x765c7b0a55e1a85f,
            0x5b00724d617c59e8,
            0x51c5293fea8acbfa,
            0xedd6e4886d3cf37e,
            0x4b971f8bb44d363e,
            0x8f97731f194e9aa2,
            0x5033e942b1d46c03,
        ],
    );
}

#[test]
fn quality_canvas_320x180_is_bit_identical() {
    let out = GameWorkload::new(GameId::G3).render_frame(3, 320, 180);
    assert_eq!(digest(FNV_OFFSET, &out), 0x9bc3bb2154a63eb4);
}
