//! A deterministic perceptual-distance metric standing in for LPIPS.
//!
//! LPIPS compares deep features of a trained network; we cannot ship trained
//! weights, so this module implements a multi-scale *gradient similarity*
//! distance instead (see `DESIGN.md` for the substitution rationale). The
//! key property we need from the paper's Fig. 14b is sensitivity to the
//! detail loss (blur) caused by repeated bilinear interpolation — gradient
//! magnitudes are exactly what blur destroys, so the metric separates the
//! two pipelines the same way LPIPS does, on the same `[0, 1]` /
//! lower-is-better scale.

use crate::MetricError;
use gss_frame::{Frame, Plane};

/// Tuning knobs for [`perceptual_distance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerceptualConfig {
    /// Number of dyadic scales evaluated (≥1). Each scale halves resolution.
    pub scales: usize,
    /// Stabilization constant of the gradient-similarity ratio.
    pub c: f64,
    /// Weight of the contrast (local variance) term versus the gradient term.
    pub contrast_weight: f64,
}

impl Default for PerceptualConfig {
    fn default() -> Self {
        PerceptualConfig {
            scales: 3,
            c: 25.0,
            contrast_weight: 0.1,
        }
    }
}

/// Perceptual distance between two frames in `[0, 1]`; lower is better,
/// `0.0` for identical inputs.
///
/// # Errors
///
/// Returns [`MetricError::SizeMismatch`] when the frames differ in size and
/// [`MetricError::TooSmall`] when a dimension is under 16 pixels.
///
/// ```
/// # use gss_frame::Frame;
/// # use gss_metrics::perceptual_distance;
/// # fn main() -> Result<(), gss_metrics::MetricError> {
/// let f = Frame::filled(32, 32, [90.0, 128.0, 128.0]);
/// assert_eq!(perceptual_distance(&f, &f)?, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn perceptual_distance(reference: &Frame, distorted: &Frame) -> Result<f64, MetricError> {
    perceptual_distance_planes(reference.y(), distorted.y(), &PerceptualConfig::default())
}

/// Plane-level variant of [`perceptual_distance`] with explicit
/// configuration.
///
/// # Errors
///
/// See [`perceptual_distance`].
pub fn perceptual_distance_planes(
    reference: &Plane<f32>,
    distorted: &Plane<f32>,
    config: &PerceptualConfig,
) -> Result<f64, MetricError> {
    if reference.size() != distorted.size() {
        return Err(MetricError::SizeMismatch {
            reference: reference.size(),
            distorted: distorted.size(),
        });
    }
    let (w, h) = reference.size();
    if w < 16 || h < 16 {
        return Err(MetricError::TooSmall {
            min_dim: 16,
            actual: (w, h),
        });
    }
    // the coarser scales own their halved planes; scale 0 borrows the inputs
    let mut halved: Option<(Plane<f32>, Plane<f32>)> = None;
    let mut total = 0.0f64;
    let mut weight_sum = 0.0f64;
    for scale in 0..config.scales.max(1) {
        let (a, b) = halved
            .as_ref()
            .map_or((reference, distorted), |(a, b)| (a, b));
        let weight = 1.0 / (1 << scale) as f64;
        total += weight * scale_distance(a, b, config);
        weight_sum += weight;
        if a.width() < 32 || a.height() < 32 || scale + 1 == config.scales.max(1) {
            break;
        }
        halved = Some((half(a), half(b)));
    }
    Ok((total / weight_sum).clamp(0.0, 1.0))
}

/// Distance at one scale: 1 − mean(gradient-similarity ⊗ contrast-similarity).
///
/// The mean is accumulated per row and the row partials are folded in
/// row order — a fixed association depending only on the plane size, so
/// the rows parallelize under the [`gss_platform::pool`] determinism
/// contract with bit-identical results at any worker count.
fn scale_distance(a: &Plane<f32>, b: &Plane<f32>, config: &PerceptualConfig) -> f64 {
    let ga = sobel_magnitude(a);
    let gb = sobel_magnitude(b);
    let (w, h) = a.size();
    let row_partials = gss_platform::pool::map_indexed(h, |y| {
        let mut acc = 0.0f64;
        let grads = ga.row(y).iter().zip(gb.row(y));
        for ((&ma, &mb), (&da, &db)) in grads.zip(a.row(y).iter().zip(b.row(y))) {
            let (ma, mb) = (ma as f64, mb as f64);
            let gms = (2.0 * ma * mb + config.c) / (ma * ma + mb * mb + config.c);
            let (da, db) = (da as f64, db as f64);
            let lum = (2.0 * da * db + config.c) / (da * da + db * db + config.c);
            let sim = gms * (1.0 - config.contrast_weight) + lum * config.contrast_weight;
            acc += 1.0 - sim;
        }
        acc
    });
    row_partials.iter().sum::<f64>() / (w * h) as f64
}

/// Sobel gradient magnitude of a 3×3 neighbourhood, `s(dx, dy)` being the
/// sample at offset `(dx, dy)` from the center.
#[inline(always)]
fn sobel_at(s: impl Fn(isize, isize) -> f32) -> f32 {
    let gx = (s(1, -1) + 2.0 * s(1, 0) + s(1, 1)) - (s(-1, -1) + 2.0 * s(-1, 0) + s(-1, 1));
    let gy = (s(-1, 1) + 2.0 * s(0, 1) + s(1, 1)) - (s(-1, -1) + 2.0 * s(0, -1) + s(1, -1));
    (gx * gx + gy * gy).sqrt()
}

/// Per-pixel Sobel magnitude with border-replicated neighbours. Interior
/// pixels read three row slices directly; only the one-pixel border ring
/// clamps its coordinates. Both evaluate [`sobel_at`], so they agree bit
/// for bit.
fn sobel_magnitude(p: &Plane<f32>) -> Plane<f32> {
    let (w, h) = p.size();
    let data = gss_platform::pool::build_rows(w, h, 0.0f32, |y, row| {
        let yi = y as isize;
        let clamped = |x: usize| sobel_at(|dx, dy| p.get_clamped(x as isize + dx, yi + dy));
        if y == 0 || y + 1 >= h || w < 3 {
            for (x, v) in row.iter_mut().enumerate() {
                *v = clamped(x);
            }
            return;
        }
        let windows = (p.row(y - 1).windows(3))
            .zip(p.row(y).windows(3))
            .zip(p.row(y + 1).windows(3));
        for (v, ((above, at), below)) in row[1..w - 1].iter_mut().zip(windows) {
            *v = sobel_at(|dx, dy| [above, at, below][(1 + dy) as usize][(1 + dx) as usize]);
        }
        row[0] = clamped(0);
        row[w - 1] = clamped(w - 1);
    });
    Plane::from_vec(w, h, data).expect("rows cover the plane")
}

fn half(p: &Plane<f32>) -> Plane<f32> {
    let w = (p.width() / 2).max(1);
    let h = (p.height() / 2).max(1);
    let data = gss_platform::pool::build_rows(w, h, 0.0f32, |y, row| {
        let y2 = (y * 2).min(p.height() - 1);
        let y3 = (y2 + 1).min(p.height() - 1);
        for (x, v) in row.iter_mut().enumerate() {
            let x2 = (x * 2).min(p.width() - 1);
            let x3 = (x2 + 1).min(p.width() - 1);
            *v = (p.get(x2, y2) + p.get(x3, y2) + p.get(x2, y3) + p.get(x3, y3)) * 0.25;
        }
    });
    Plane::from_vec(w, h, data).expect("rows cover the plane")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            128.0
                + 60.0 * ((x as f32 * 0.9).sin() * (y as f32 * 0.6).cos())
                + 20.0 * ((x as f32 * 0.23 + y as f32 * 0.31).sin())
        })
    }

    fn box_blur(p: &Plane<f32>, r: i32) -> Plane<f32> {
        let n = ((2 * r + 1) * (2 * r + 1)) as f32;
        Plane::from_fn(p.width(), p.height(), |x, y| {
            let mut acc = 0.0;
            for dy in -r..=r {
                for dx in -r..=r {
                    acc += p.get_clamped(x as isize + dx as isize, y as isize + dy as isize);
                }
            }
            acc / n
        })
    }

    /// The all-clamped Sobel loop the row-slice kernel replaced, kept as
    /// the bit-exact reference.
    fn sobel_reference(p: &Plane<f32>) -> Plane<f32> {
        Plane::from_fn(p.width(), p.height(), |x, y| {
            let (xi, yi) = (x as isize, y as isize);
            let s = |dx: isize, dy: isize| p.get_clamped(xi + dx, yi + dy);
            let gx = (s(1, -1) + 2.0 * s(1, 0) + s(1, 1)) - (s(-1, -1) + 2.0 * s(-1, 0) + s(-1, 1));
            let gy = (s(-1, 1) + 2.0 * s(0, 1) + s(1, 1)) - (s(-1, -1) + 2.0 * s(0, -1) + s(1, -1));
            (gx * gx + gy * gy).sqrt()
        })
    }

    #[test]
    fn sobel_matches_the_clamped_reference_bitwise() {
        for (w, h) in [
            (1, 1),
            (1, 5),
            (5, 1),
            (2, 2),
            (3, 3),
            (4, 7),
            (17, 9),
            (64, 48),
        ] {
            let p = textured(w, h);
            let bits = |q: &Plane<f32>| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&sobel_magnitude(&p)),
                bits(&sobel_reference(&p)),
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn identical_is_zero() {
        let p = textured(48, 48);
        let d = perceptual_distance_planes(&p, &p, &PerceptualConfig::default()).unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn more_blur_means_more_distance() {
        let p = textured(64, 64);
        let cfg = PerceptualConfig::default();
        let d1 = perceptual_distance_planes(&p, &box_blur(&p, 1), &cfg).unwrap();
        let d2 = perceptual_distance_planes(&p, &box_blur(&p, 2), &cfg).unwrap();
        let d3 = perceptual_distance_planes(&p, &box_blur(&p, 4), &cfg).unwrap();
        assert!(d1 > 0.0);
        assert!(d2 > d1, "d2 {d2} vs d1 {d1}");
        assert!(d3 > d2, "d3 {d3} vs d2 {d2}");
    }

    #[test]
    fn range_is_unit_interval() {
        let p = textured(48, 48);
        let q = p.map(|v| 255.0 - v);
        let d = perceptual_distance_planes(&p, &q, &PerceptualConfig::default()).unwrap();
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn symmetric() {
        let p = textured(48, 48);
        let q = box_blur(&p, 2);
        let cfg = PerceptualConfig::default();
        let ab = perceptual_distance_planes(&p, &q, &cfg).unwrap();
        let ba = perceptual_distance_planes(&q, &p, &cfg).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn brightness_shift_is_mild() {
        // LPIPS is famously insensitive to small global luminance shifts;
        // blur of equal MSE should register as much worse.
        let p = textured(64, 64);
        let cfg = PerceptualConfig::default();
        let shift = p.map(|v| v + 4.0);
        let blur = box_blur(&p, 3);
        let d_shift = perceptual_distance_planes(&p, &shift, &cfg).unwrap();
        let d_blur = perceptual_distance_planes(&p, &blur, &cfg).unwrap();
        assert!(d_blur > 4.0 * d_shift, "blur {d_blur} shift {d_shift}");
    }

    #[test]
    fn too_small_errors() {
        let p: Plane<f32> = Plane::new(8, 8);
        assert!(matches!(
            perceptual_distance_planes(&p, &p, &PerceptualConfig::default()),
            Err(MetricError::TooSmall { .. })
        ));
    }

    #[test]
    fn frame_wrapper_works() {
        let f = Frame::filled(32, 32, [100.0, 128.0, 128.0]);
        assert_eq!(perceptual_distance(&f, &f).unwrap(), 0.0);
    }
}
