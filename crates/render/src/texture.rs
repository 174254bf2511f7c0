//! Procedural textures with mipmap-style level-of-detail.
//!
//! Real engines mipmap their textures: the farther a surface, the lower the
//! sampled mip level and the less high-frequency detail survives (§III-B of
//! the paper). The textures here reproduce that by construction — each
//! variant progressively blends toward its flat mean color as `lod` grows —
//! so depth genuinely predicts rendered detail in our frames, which is the
//! premise of depth-guided RoI detection.

/// An RGB color with `f32` channels in `0.0..=255.0`.
pub type Color = [f32; 3];

/// Linear blend of two colors.
pub fn mix(a: Color, b: Color, t: f32) -> Color {
    let t = t.clamp(0.0, 1.0);
    [
        a[0] + (b[0] - a[0]) * t,
        a[1] + (b[1] - a[1]) * t,
        a[2] + (b[2] - a[2]) * t,
    ]
}

/// Scales a color by a brightness factor, saturating at 255.
pub fn shade(c: Color, k: f32) -> Color {
    [
        (c[0] * k).clamp(0.0, 255.0),
        (c[1] * k).clamp(0.0, 255.0),
        (c[2] * k).clamp(0.0, 255.0),
    ]
}

/// `x.floor()`, bit for bit, without the libm call the baseline x86-64
/// target makes for it (value noise floors twice per octave per pixel).
/// Below 2^23 in magnitude a float may have a fraction: truncating through
/// `i32` and stepping down when that rounded up gives the floor, and
/// `copysign` keeps `floor(-0.0) = -0.0`. Larger magnitudes, infinities
/// and NaN are their own floor.
#[inline(always)]
pub(crate) fn floor(x: f32) -> f32 {
    if x.abs() < 8_388_608.0 {
        let t = x as i32 as f32;
        (if t > x { t - 1.0 } else { t }).copysign(x)
    } else {
        x
    }
}

/// Deterministic lattice hash → `[0, 1)`.
fn hash2(x: i64, y: i64, seed: u64) -> f32 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((y as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// One lattice cell's four corner hashes, remembered by [`LatticeMemo`].
#[derive(Debug, Clone, Copy)]
struct LatticeCell {
    x: i64,
    y: i64,
    seed: u64,
    corners: [f32; 4],
}

/// Octave slots kept by a [`LatticeMemo`]; the game textures use at most
/// six (`octaves` 5 plus the fractional one), and deeper octaves share
/// slots, which only costs hits.
const MEMO_SLOTS: usize = 8;

/// The last lattice cell each noise octave hashed. Neighbouring pixels of a
/// scanline mostly fall in the same cell of the low-frequency octaves, so a
/// row-long memo skips most [`hash2`] calls. A hit returns exactly the
/// hashes a miss would compute, so sampling is unchanged by its state.
#[derive(Debug, Default)]
pub(crate) struct LatticeMemo([Option<LatticeCell>; MEMO_SLOTS]);

/// Smoothly interpolated value noise at one frequency; `memo` is the
/// octave's [`LatticeMemo`] slot.
fn value_noise(u: f32, v: f32, seed: u64, memo: &mut Option<LatticeCell>) -> f32 {
    let x0 = floor(u);
    let y0 = floor(v);
    let fx = u - x0;
    let fy = v - y0;
    let sx = fx * fx * (3.0 - 2.0 * fx);
    let sy = fy * fy * (3.0 - 2.0 * fy);
    let (xi, yi) = (x0 as i64, y0 as i64);
    let [n00, n10, n01, n11] = match *memo {
        Some(c) if c.x == xi && c.y == yi && c.seed == seed => c.corners,
        _ => {
            let corners = [
                hash2(xi, yi, seed),
                hash2(xi + 1, yi, seed),
                hash2(xi, yi + 1, seed),
                hash2(xi + 1, yi + 1, seed),
            ];
            *memo = Some(LatticeCell {
                x: xi,
                y: yi,
                seed,
                corners,
            });
            corners
        }
    };
    let a = n00 + (n10 - n00) * sx;
    let b = n01 + (n11 - n01) * sx;
    a + (b - a) * sy
}

/// A mip-aware procedural texture.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ProceduralTexture {
    /// A flat color (LOD-invariant).
    Solid(Color),
    /// A two-color checkerboard with `scale` squares per UV unit.
    Checker {
        /// First square color.
        a: Color,
        /// Second square color.
        b: Color,
        /// Squares per UV unit.
        scale: f32,
    },
    /// Fractal value noise modulating a base color.
    Noise {
        /// Base (mean) color.
        base: Color,
        /// Peak brightness modulation around the base (0..1).
        amplitude: f32,
        /// fBm octaves at LOD 0; higher = more fine detail.
        octaves: u32,
        /// Base spatial frequency in UV units.
        frequency: f32,
        /// Lattice seed.
        seed: u64,
    },
    /// Brick/panel pattern: mortar grid over a noisy fill.
    Bricks {
        /// Brick color.
        brick: Color,
        /// Mortar color.
        mortar: Color,
        /// Bricks per UV unit horizontally.
        scale: f32,
        /// Lattice seed for per-brick tinting.
        seed: u64,
    },
}

impl ProceduralTexture {
    /// The texture's mean color — the value it converges to as `lod → ∞`,
    /// like the 1x1 mip tail of a real mip chain.
    pub fn mean_color(&self) -> Color {
        match *self {
            ProceduralTexture::Solid(c) => c,
            ProceduralTexture::Checker { a, b, .. } => mix(a, b, 0.5),
            ProceduralTexture::Noise { base, .. } => base,
            ProceduralTexture::Bricks { brick, mortar, .. } => mix(brick, mortar, 0.18),
        }
    }

    /// Samples the texture at `(u, v)` and mip level `lod` (≥ 0; fractional
    /// levels blend continuously). Level 0 is full detail; each additional
    /// level halves the surviving detail, mirroring a real mip chain.
    pub fn sample(&self, u: f32, v: f32, lod: f32) -> Color {
        TextureSampler::new(self).sample(u, v, lod, &mut LatticeMemo::default())
    }

    /// Detail energy at a LOD: mean absolute deviation from the mean color,
    /// estimated over a fixed sample lattice. Used by tests to verify the
    /// mipmap premise (detail decreases with LOD).
    pub fn detail_energy(&self, lod: f32) -> f32 {
        let mean = self.mean_color();
        let mut acc = 0.0f32;
        let n = 32;
        for i in 0..n {
            for j in 0..n {
                let u = i as f32 / n as f32 * 4.0;
                let v = j as f32 / n as f32 * 4.0;
                let c = self.sample(u, v, lod);
                acc += (c[0] - mean[0]).abs() + (c[1] - mean[1]).abs() + (c[2] - mean[2]).abs();
            }
        }
        acc / (n * n * 3) as f32
    }
}

/// A texture with its per-texture constants hoisted out of the per-pixel
/// path: the mean color and the fBm normalization of `Noise`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextureSampler<'a> {
    texture: &'a ProceduralTexture,
    mean: Color,
    /// Amplitude sum over the full octave budget (`Noise` only).
    norm: f32,
}

impl<'a> TextureSampler<'a> {
    pub(crate) fn new(texture: &'a ProceduralTexture) -> Self {
        let mut norm = 0.0f32;
        if let ProceduralTexture::Noise { octaves, .. } = *texture {
            // normalization uses the FULL octave budget so that dropping
            // octaves strictly removes energy (as prefiltering does)
            let mut amp = 1.0f32;
            for _ in 0..octaves.max(1) {
                norm += amp;
                amp *= 0.55;
            }
        }
        TextureSampler {
            texture,
            mean: texture.mean_color(),
            norm,
        }
    }

    /// [`ProceduralTexture::sample`] through a caller-held lattice memo.
    pub(crate) fn sample(&self, u: f32, v: f32, lod: f32, memo: &mut LatticeMemo) -> Color {
        let lod = lod.max(0.0);
        // detail attenuation: like averaging a 2^lod x 2^lod texel footprint
        let detail = || 0.5f32.powf(lod);
        match *self.texture {
            ProceduralTexture::Solid(c) => c,
            ProceduralTexture::Checker { a, b, scale } => {
                let cell = (floor(u * scale) as i64 + floor(v * scale) as i64).rem_euclid(2);
                let sharp = if cell == 0 { a } else { b };
                mix(self.mean, sharp, detail())
            }
            ProceduralTexture::Noise {
                base,
                amplitude,
                octaves,
                frequency,
                seed,
            } => {
                // drop one octave per mip level, exactly like prefiltering
                let eff_octaves = (octaves as f32 - lod).max(0.0);
                let full = floor(eff_octaves) as u32;
                let frac = eff_octaves - full as f32;
                let mut amp = 1.0f32;
                let mut freq = frequency;
                let mut total = 0.0f32;
                for o in 0..=full.min(octaves) {
                    let w = if o == full { frac } else { 1.0 } * amp;
                    if w > 0.0 {
                        let slot = &mut memo.0[o as usize % MEMO_SLOTS];
                        total += w
                            * (value_noise(u * freq, v * freq, seed.wrapping_add(o as u64), slot)
                                - 0.5);
                    }
                    amp *= 0.55;
                    freq *= 2.1;
                }
                let n = total / self.norm;
                shade(base, 1.0 + 2.0 * amplitude * n)
            }
            ProceduralTexture::Bricks {
                brick,
                mortar,
                scale,
                seed,
            } => {
                let row = floor(v * scale * 0.5);
                let offset = if (row as i64).rem_euclid(2) == 0 {
                    0.0
                } else {
                    0.5
                };
                let bu = u * scale + offset;
                let bv = v * scale * 0.5;
                let fu = bu - floor(bu);
                let fv = bv - floor(bv);
                let mortar_w = 0.06;
                let is_mortar = fu < mortar_w || fv < mortar_w * 2.0;
                let tint = 0.85 + 0.3 * hash2(floor(bu) as i64, floor(bv) as i64, seed);
                let sharp = if is_mortar {
                    mortar
                } else {
                    shade(brick, tint)
                };
                mix(self.mean, sharp, detail())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textures() -> Vec<ProceduralTexture> {
        vec![
            ProceduralTexture::Checker {
                a: [220.0, 210.0, 190.0],
                b: [40.0, 45.0, 60.0],
                scale: 4.0,
            },
            ProceduralTexture::Noise {
                base: [110.0, 140.0, 80.0],
                amplitude: 0.5,
                octaves: 5,
                frequency: 3.0,
                seed: 7,
            },
            ProceduralTexture::Bricks {
                brick: [150.0, 80.0, 60.0],
                mortar: [200.0, 200.0, 195.0],
                scale: 6.0,
                seed: 3,
            },
        ]
    }

    #[test]
    fn inline_floor_matches_libm_bitwise() {
        let mut probes = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            0.999_999_94,
            -0.999_999_94,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_609.0,
            1e10,
            -1e10,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        // a sweep across magnitudes, with neighbours of each value
        let mut x = 1e-6f32;
        while x < 1e9 {
            for v in [x, -x, x.next_up(), x.next_down(), -x.next_up()] {
                probes.push(v);
            }
            x *= 1.37;
        }
        for v in probes {
            assert_eq!(floor(v).to_bits(), v.floor().to_bits(), "floor({v:e})");
        }
        assert!(floor(f32::NAN).is_nan());
    }

    #[test]
    fn sampling_is_deterministic() {
        for t in textures() {
            assert_eq!(t.sample(0.37, 0.91, 0.5), t.sample(0.37, 0.91, 0.5));
        }
    }

    #[test]
    fn detail_decreases_with_lod() {
        for t in textures() {
            let d0 = t.detail_energy(0.0);
            let d2 = t.detail_energy(2.0);
            let d5 = t.detail_energy(5.0);
            assert!(d0 > d2, "{t:?}: {d0} vs {d2}");
            assert!(d2 > d5, "{t:?}: {d2} vs {d5}");
        }
    }

    #[test]
    fn high_lod_converges_to_mean() {
        for t in textures() {
            let mean = t.mean_color();
            let c = t.sample(1.234, 5.678, 12.0);
            for k in 0..3 {
                assert!(
                    (c[k] - mean[k]).abs() < 12.0,
                    "{t:?} channel {k}: {} vs {}",
                    c[k],
                    mean[k]
                );
            }
        }
    }

    #[test]
    fn solid_ignores_lod() {
        let t = ProceduralTexture::Solid([9.0, 8.0, 7.0]);
        assert_eq!(t.sample(0.1, 0.2, 0.0), t.sample(0.9, 0.1, 9.0));
        assert_eq!(t.detail_energy(0.0), 0.0);
    }

    #[test]
    fn colors_stay_in_range() {
        for t in textures() {
            for i in 0..50 {
                let c = t.sample(i as f32 * 0.13, i as f32 * 0.29, (i % 6) as f32 * 0.7);
                for ch in c {
                    assert!((0.0..=255.0).contains(&ch), "{t:?}: {ch}");
                }
            }
        }
    }

    #[test]
    fn noise_is_continuous() {
        let t = ProceduralTexture::Noise {
            base: [128.0, 128.0, 128.0],
            amplitude: 0.5,
            octaves: 3,
            frequency: 2.0,
            seed: 1,
        };
        // small UV steps produce small color steps
        let mut prev = t.sample(0.0, 0.3, 0.0);
        for i in 1..200 {
            let c = t.sample(i as f32 * 0.002, 0.3, 0.0);
            assert!(
                (c[0] - prev[0]).abs() < 24.0,
                "jump at {i}: {} → {}",
                prev[0],
                c[0]
            );
            prev = c;
        }
    }
}
