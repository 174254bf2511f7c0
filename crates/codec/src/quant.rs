//! Quantization of DCT coefficient blocks.

use crate::dct::Block8;

/// The JPEG Annex-K luminance quantization table — a perceptually-derived
/// base matrix scaled by the encoder's quality setting.
const BASE_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// A quantization matrix derived from a quality factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantMatrix {
    steps: [u16; 64],
}

impl QuantMatrix {
    /// Builds the matrix for `quality` in `1..=100` (JPEG-style scaling:
    /// 50 is the base table, higher is finer).
    ///
    /// # Panics
    ///
    /// Panics when `quality` is outside `1..=100`.
    pub fn from_quality(quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be 1..=100");
        let scale = if quality < 50 {
            5000 / quality as u32
        } else {
            200 - 2 * quality as u32
        };
        let mut steps = [0u16; 64];
        for (s, &b) in steps.iter_mut().zip(BASE_LUMA.iter()) {
            *s = (((b as u32 * scale) + 50) / 100).clamp(1, 4096) as u16;
        }
        QuantMatrix { steps }
    }

    /// A flat matrix with a single step size (used for residual coding,
    /// whose statistics are not JPEG-like).
    ///
    /// # Panics
    ///
    /// Panics when `step` is zero.
    pub fn flat(step: u16) -> Self {
        assert!(step > 0, "step must be nonzero");
        QuantMatrix { steps: [step; 64] }
    }

    /// Step size at coefficient index `i`.
    pub fn step(&self, i: usize) -> u16 {
        self.steps[i]
    }
}

/// Quantizes a coefficient block to integer levels.
pub fn quantize(coeffs: &Block8, q: &QuantMatrix) -> [i16; 64] {
    let mut out = [0i16; 64];
    for i in 0..64 {
        out[i] = round_to_i16(coeffs[i] / q.steps[i] as f32);
    }
    out
}

/// `x.round().clamp(-32768.0, 32767.0) as i16` without the libm `roundf`
/// call the baseline x86-64 target makes for it. Clamping first gives the
/// same level (rounding is monotone and keeps both bounds), and on the
/// clamped range `x − trunc(x)` is exact, so rounding half away from zero
/// is one compare per sign. NaN maps to 0 either way.
#[inline(always)]
fn round_to_i16(x: f32) -> i16 {
    let c = x.clamp(-32768.0, 32767.0);
    let t = c as i32;
    let frac = c - t as f32;
    let r = if frac >= 0.5 {
        t + 1
    } else if frac <= -0.5 {
        t - 1
    } else {
        t
    };
    r as i16
}

/// Reconstructs coefficients from quantized levels.
pub fn dequantize(levels: &[i16; 64], q: &QuantMatrix) -> Block8 {
    let mut out = [0.0f32; 64];
    for i in 0..64 {
        out[i] = levels[i] as f32 * q.steps[i] as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quantizer loop before [`round_to_i16`], kept verbatim.
    fn quantize_reference(coeffs: &Block8, q: &QuantMatrix) -> [i16; 64] {
        let mut out = [0i16; 64];
        for i in 0..64 {
            out[i] = (coeffs[i] / q.steps[i] as f32)
                .round()
                .clamp(-32768.0, 32767.0) as i16;
        }
        out
    }

    /// Quantizes `values`, 64 at a time, with both loops.
    fn assert_quantizers_agree(values: &[f32], q: &QuantMatrix) {
        for chunk in values.chunks(64) {
            let mut block = [0.0f32; 64];
            block[..chunk.len()].copy_from_slice(chunk);
            assert_eq!(
                quantize(&block, q),
                quantize_reference(&block, q),
                "{chunk:?}"
            );
        }
    }

    #[test]
    fn rounding_matches_libm_round_bitwise() {
        // a unit step divides exactly, so these are the rounded values
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            0.49999997,
            -0.49999997,
            32766.5,
            32767.0,
            32767.5,
            -32767.5,
            -32768.0,
            -32768.5,
            1e9,
            -1e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
        ];
        // every f32 up to past the clamp on a fine bit stride, both signs,
        // plus every value with a fraction of exactly one half
        for bits in (0..=40_000.0f32.to_bits()).step_by(61) {
            values.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        values.extend((-33_000..33_000).map(|k| k as f32 + 0.5));
        assert_quantizers_agree(&values, &QuantMatrix::flat(1));
    }

    #[test]
    fn quantize_matches_the_libm_loop() {
        let values: Vec<f32> = (0..400 * 64usize)
            .map(|i| {
                let b = i / 64;
                (i as f32 * 0.7713).sin() * 10f32.powi((b % 7) as i32 - 1) + 0.5 * (b % 3) as f32
            })
            .collect();
        for q in [
            QuantMatrix::from_quality(1),
            QuantMatrix::from_quality(50),
            QuantMatrix::from_quality(100),
            QuantMatrix::flat(7),
        ] {
            assert_quantizers_agree(&values, &q);
        }
    }

    #[test]
    fn quality_orders_step_sizes() {
        let lo = QuantMatrix::from_quality(20);
        let mid = QuantMatrix::from_quality(50);
        let hi = QuantMatrix::from_quality(90);
        for i in 0..64 {
            assert!(lo.step(i) >= mid.step(i));
            assert!(mid.step(i) >= hi.step(i));
        }
    }

    #[test]
    fn quality_50_is_base_table() {
        let q = QuantMatrix::from_quality(50);
        for (i, &base) in BASE_LUMA.iter().enumerate() {
            assert_eq!(q.step(i), base);
        }
    }

    #[test]
    fn quantize_dequantize_error_is_bounded_by_half_step() {
        let q = QuantMatrix::from_quality(50);
        let mut coeffs = [0.0f32; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 * 7.3) - 200.0;
        }
        let levels = quantize(&coeffs, &q);
        let back = dequantize(&levels, &q);
        for i in 0..64 {
            assert!(
                (coeffs[i] - back[i]).abs() <= q.step(i) as f32 * 0.5 + 1e-3,
                "coeff {i}"
            );
        }
    }

    #[test]
    fn zero_block_stays_zero() {
        let q = QuantMatrix::from_quality(75);
        let levels = quantize(&[0.0; 64], &q);
        assert!(levels.iter().all(|&l| l == 0));
    }

    #[test]
    fn flat_matrix_is_uniform() {
        let q = QuantMatrix::flat(8);
        assert!((0..64).all(|i| q.step(i) == 8));
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn quality_zero_rejected() {
        let _ = QuantMatrix::from_quality(0);
    }

    #[test]
    fn higher_frequencies_quantized_more_coarsely() {
        let q = QuantMatrix::from_quality(50);
        assert!(q.step(63) > q.step(0));
    }
}
