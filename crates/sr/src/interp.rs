use crate::Upscaler;
use gss_frame::{Frame, Plane};
use serde::{Deserialize, Serialize};

/// Interpolation kernel families for traditional (non-DNN) resampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum InterpKernel {
    /// Nearest-neighbour (0-tap).
    Nearest,
    /// Bilinear — the paper's GPU `GL_LINEAR` path.
    Bilinear,
    /// Bicubic, Keys kernel with a = −0.5.
    Bicubic,
    /// Lanczos with a 3-lobe window.
    Lanczos3,
}

impl InterpKernel {
    /// Name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            InterpKernel::Nearest => "nearest",
            InterpKernel::Bilinear => "bilinear",
            InterpKernel::Bicubic => "bicubic",
            InterpKernel::Lanczos3 => "lanczos3",
        }
    }

    /// Half-width of the kernel support in source pixels.
    const fn support(self) -> f32 {
        match self {
            InterpKernel::Nearest => 0.5,
            InterpKernel::Bilinear => 1.0,
            InterpKernel::Bicubic => 2.0,
            InterpKernel::Lanczos3 => 3.0,
        }
    }

    /// Kernel weight at (absolute) distance `t` from the sample center.
    fn weight(self, t: f32) -> f32 {
        let t = t.abs();
        match self {
            InterpKernel::Nearest => {
                if t < 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
            InterpKernel::Bilinear => {
                if t < 1.0 {
                    1.0 - t
                } else {
                    0.0
                }
            }
            InterpKernel::Bicubic => keys_cubic(t, -0.5),
            InterpKernel::Lanczos3 => lanczos(t, 3.0),
        }
    }
}

fn keys_cubic(t: f32, a: f32) -> f32 {
    if t < 1.0 {
        (a + 2.0) * t * t * t - (a + 3.0) * t * t + 1.0
    } else if t < 2.0 {
        a * t * t * t - 5.0 * a * t * t + 8.0 * a * t - 4.0 * a
    } else {
        0.0
    }
}

fn lanczos(t: f32, a: f32) -> f32 {
    if t < f32::EPSILON {
        1.0
    } else if t < a {
        let pt = std::f32::consts::PI * t;
        a * pt.sin() * (pt / a).sin() / (pt * pt)
    } else {
        0.0
    }
}

/// Resamples a plane to `out_width x out_height` with the given kernel.
///
/// Sampling is center-aligned (output pixel centers map linearly onto source
/// pixel centers) and separable: a horizontal pass followed by a vertical
/// pass, which is how GPU texture filters and video scalers implement it.
/// Borders replicate.
///
/// # Panics
///
/// Panics when either output dimension is zero.
pub fn resize_plane(
    src: &Plane<f32>,
    out_width: usize,
    out_height: usize,
    kernel: InterpKernel,
) -> Plane<f32> {
    assert!(out_width > 0 && out_height > 0, "output must be nonzero");
    if (out_width, out_height) == src.size() {
        return src.clone();
    }
    let horizontal = resample_axis(src, out_width, kernel, Axis::X);
    resample_axis(&horizontal, out_height, kernel, Axis::Y)
}

#[derive(Clone, Copy)]
enum Axis {
    X,
    Y,
}

/// One output coordinate's window: `len` weights starting at
/// `weights[first]`, applied to source samples `start, start + 1, …`
/// (border-replicated outside the source).
#[derive(Clone, Copy)]
struct Tap {
    start: isize,
    first: usize,
    len: usize,
}

/// Per-output-coordinate taps of one axis, in one flat weight table.
struct Taps {
    taps: Vec<Tap>,
    weights: Vec<f32>,
}

impl Taps {
    fn new(src_len: usize, out_len: usize, kernel: InterpKernel) -> Taps {
        let scale = src_len as f32 / out_len as f32;
        // when minifying, widen the kernel to act as a low-pass filter
        let filter_scale = scale.max(1.0);
        let support = kernel.support() * filter_scale;
        let mut taps = Vec::with_capacity(out_len);
        let mut weights = Vec::new();
        for o in 0..out_len {
            let center = (o as f32 + 0.5) * scale - 0.5;
            let start = (center - support).ceil() as isize;
            let end = (center + support).floor() as isize;
            let first = weights.len();
            let mut sum = 0.0f32;
            for i in start..=end {
                let w = kernel.weight((i as f32 - center) / filter_scale);
                weights.push(w);
                sum += w;
            }
            if sum.abs() < f32::EPSILON {
                // degenerate window (can happen for nearest at exact midpoints)
                weights.truncate(first);
                weights.push(1.0);
                taps.push(Tap {
                    start: center.round() as isize,
                    first,
                    len: 1,
                });
            } else {
                for w in &mut weights[first..] {
                    *w /= sum;
                }
                taps.push(Tap {
                    start,
                    first,
                    len: weights.len() - first,
                });
            }
        }
        Taps { taps, weights }
    }

    fn weights(&self, tap: &Tap) -> &[f32] {
        &self.weights[tap.first..tap.first + tap.len]
    }
}

/// Resamples one axis. Each output sample is `Σ_k w_k · src[start + k]`,
/// accumulated from `0.0` in tap order `k = 0, 1, …` on both axes — the
/// X pass per pixel over a row slice (clamping only windows that cross a
/// border), the Y pass tap-outer and pixel-inner over whole source rows,
/// which performs every pixel's additions in the same order and
/// vectorizes. Rows fill in parallel through the deterministic pool, so
/// the output is bit-identical at any worker count.
fn resample_axis(src: &Plane<f32>, out_len: usize, kernel: InterpKernel, axis: Axis) -> Plane<f32> {
    let (sw, sh) = src.size();
    match axis {
        Axis::X => {
            let taps = Taps::new(sw, out_len, kernel);
            let data = gss_platform::pool::build_rows(out_len, sh, 0.0f32, |y, row| {
                let line = src.row(y);
                for (out, tap) in row.iter_mut().zip(&taps.taps) {
                    let ws = taps.weights(tap);
                    let mut acc = 0.0f32;
                    if tap.start >= 0 && tap.start as usize + tap.len <= sw {
                        let start = tap.start as usize;
                        for (&w, &v) in ws.iter().zip(&line[start..start + tap.len]) {
                            acc += w * v;
                        }
                    } else {
                        for (k, &w) in ws.iter().enumerate() {
                            let x = (tap.start + k as isize).clamp(0, sw as isize - 1);
                            acc += w * line[x as usize];
                        }
                    }
                    *out = acc;
                }
            });
            Plane::from_vec(out_len, sh, data).expect("row buffer matches plane size")
        }
        Axis::Y => {
            let taps = Taps::new(sh, out_len, kernel);
            let data = gss_platform::pool::build_rows(sw, out_len, 0.0f32, |oy, row| {
                let tap = &taps.taps[oy];
                for (k, &w) in taps.weights(tap).iter().enumerate() {
                    let y = (tap.start + k as isize).clamp(0, sh as isize - 1);
                    for (out, &v) in row.iter_mut().zip(src.row(y as usize)) {
                        *out += w * v;
                    }
                }
            });
            Plane::from_vec(sw, out_len, data).expect("row buffer matches plane size")
        }
    }
}

/// Resamples all three planes of a frame.
///
/// # Panics
///
/// Panics when either output dimension is zero.
pub fn resize_frame(
    src: &Frame,
    out_width: usize,
    out_height: usize,
    kernel: InterpKernel,
) -> Frame {
    src.map_planes(|p| resize_plane(p, out_width, out_height, kernel))
}

/// An [`Upscaler`] backed by one of the interpolation kernels.
///
/// `InterpUpscaler::new(InterpKernel::Bilinear, 2)` is the paper's GPU
/// fast path for the non-RoI region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpUpscaler {
    kernel: InterpKernel,
    scale: usize,
}

impl InterpUpscaler {
    /// Creates an upscaler for the kernel and integer scale factor.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is zero.
    pub fn new(kernel: InterpKernel, scale: usize) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        InterpUpscaler { kernel, scale }
    }

    /// The kernel in use.
    pub const fn kernel(&self) -> InterpKernel {
        self.kernel
    }
}

impl Upscaler for InterpUpscaler {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn scale(&self) -> usize {
        self.scale
    }

    fn upscale_plane(&self, plane: &Plane<f32>) -> Plane<f32> {
        resize_plane(
            plane,
            plane.width() * self.scale,
            plane.height() * self.scale,
            self.kernel,
        )
    }
}

/// The per-sample `get_clamped` resampler the row-slice kernel replaced,
/// kept verbatim as the bit-exact reference for [`resample_axis`].
#[cfg(test)]
mod oracle {
    use super::*;

    fn resample_axis_reference(
        src: &Plane<f32>,
        out_len: usize,
        kernel: InterpKernel,
        axis: Axis,
    ) -> Plane<f32> {
        let (sw, sh) = src.size();
        let (src_len, other_len) = match axis {
            Axis::X => (sw, sh),
            Axis::Y => (sh, sw),
        };
        let scale = src_len as f32 / out_len as f32;
        let filter_scale = scale.max(1.0);
        let support = kernel.support() * filter_scale;

        let mut taps: Vec<(isize, Vec<f32>)> = Vec::with_capacity(out_len);
        for o in 0..out_len {
            let center = (o as f32 + 0.5) * scale - 0.5;
            let start = (center - support).ceil() as isize;
            let end = (center + support).floor() as isize;
            let mut weights = Vec::with_capacity((end - start + 1).max(1) as usize);
            let mut sum = 0.0f32;
            for i in start..=end {
                let w = kernel.weight((i as f32 - center) / filter_scale);
                weights.push(w);
                sum += w;
            }
            if sum.abs() < f32::EPSILON {
                weights = vec![1.0];
                taps.push(((center.round() as isize), weights));
            } else {
                for w in &mut weights {
                    *w /= sum;
                }
                taps.push((start, weights));
            }
        }

        match axis {
            Axis::X => Plane::from_fn(out_len, other_len, |ox, y| {
                let (start, ws) = &taps[ox];
                let mut acc = 0.0f32;
                for (k, &w) in ws.iter().enumerate() {
                    acc += w * src.get_clamped(start + k as isize, y as isize);
                }
                acc
            }),
            Axis::Y => Plane::from_fn(other_len, out_len, |x, oy| {
                let (start, ws) = &taps[oy];
                let mut acc = 0.0f32;
                for (k, &w) in ws.iter().enumerate() {
                    acc += w * src.get_clamped(x as isize, start + k as isize);
                }
                acc
            }),
        }
    }

    fn bits(p: &Plane<f32>) -> Vec<u32> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_slice_resampler_matches_the_clamped_reference_bitwise() {
        let kernels = [
            InterpKernel::Nearest,
            InterpKernel::Bilinear,
            InterpKernel::Bicubic,
            InterpKernel::Lanczos3,
        ];
        for src_len in 1..40usize {
            // a 3-sample cross section with structure on both axes
            let along_x = Plane::from_fn(src_len, 3, |x, y| {
                ((x * 37 + y * 11) % 29) as f32 * 8.5 - (x % 3) as f32 * 0.37
            });
            let along_y = Plane::from_fn(3, src_len, |x, y| along_x.get(y, x));
            for out_len in 1..40usize {
                for kernel in kernels {
                    let fast = resample_axis(&along_x, out_len, kernel, Axis::X);
                    let reference = resample_axis_reference(&along_x, out_len, kernel, Axis::X);
                    assert_eq!(
                        bits(&fast),
                        bits(&reference),
                        "X {kernel:?} {src_len}->{out_len}"
                    );
                    let fast = resample_axis(&along_y, out_len, kernel, Axis::Y);
                    let reference = resample_axis_reference(&along_y, out_len, kernel, Axis::Y);
                    assert_eq!(
                        bits(&fast),
                        bits(&reference),
                        "Y {kernel:?} {src_len}->{out_len}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| x as f32 * 2.0 + y as f32)
    }

    #[test]
    fn identity_resize_is_noop() {
        let p = gradient(8, 6);
        for k in [
            InterpKernel::Nearest,
            InterpKernel::Bilinear,
            InterpKernel::Bicubic,
            InterpKernel::Lanczos3,
        ] {
            assert_eq!(resize_plane(&p, 8, 6, k), p);
        }
    }

    #[test]
    fn constant_plane_stays_constant() {
        let p = Plane::filled(10, 10, 77.0f32);
        for k in [
            InterpKernel::Nearest,
            InterpKernel::Bilinear,
            InterpKernel::Bicubic,
            InterpKernel::Lanczos3,
        ] {
            let up = resize_plane(&p, 25, 17, k);
            for &v in up.iter() {
                assert!((v - 77.0).abs() < 1e-3, "{k:?}: {v}");
            }
        }
    }

    #[test]
    fn linear_ramp_is_reproduced_by_bilinear() {
        // bilinear interpolation reconstructs affine signals exactly
        // (away from replicated borders)
        let p = gradient(16, 16);
        let up = resize_plane(&p, 32, 32, InterpKernel::Bilinear);
        for y in 4..28 {
            for x in 4..28 {
                let sx = (x as f32 + 0.5) * 0.5 - 0.5;
                let sy = (y as f32 + 0.5) * 0.5 - 0.5;
                let expected = sx * 2.0 + sy;
                assert!(
                    (up.get(x, y) - expected).abs() < 1e-3,
                    "({x},{y}): {} vs {expected}",
                    up.get(x, y)
                );
            }
        }
    }

    #[test]
    fn nearest_only_copies_source_values() {
        let p = Plane::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let up = resize_plane(&p, 12, 12, InterpKernel::Nearest);
        for &v in up.iter() {
            assert_eq!(v, v.round());
            assert!((0.0..=15.0).contains(&v));
        }
    }

    #[test]
    fn downscale_acts_as_low_pass() {
        // alternating columns: naive point sampling would alias badly;
        // a widened kernel averages towards the mean
        let p = Plane::from_fn(32, 8, |x, _| if x % 2 == 0 { 0.0 } else { 200.0 });
        let down = resize_plane(&p, 8, 8, InterpKernel::Bilinear);
        for &v in down.iter() {
            assert!((v - 100.0).abs() < 30.0, "aliased: {v}");
        }
    }

    #[test]
    fn upscaler_scales_dimensions() {
        let u = InterpUpscaler::new(InterpKernel::Bicubic, 3);
        let f = Frame::new(10, 6);
        assert_eq!(u.upscale(&f).size(), (30, 18));
        assert_eq!(u.scale(), 3);
        assert_eq!(u.name(), "bicubic");
    }

    #[test]
    fn kernels_partition_unity_near_center() {
        // weights are normalized per-tap; check interpolation of a constant
        // through the raw kernel path at fractional offsets
        for k in [InterpKernel::Bicubic, InterpKernel::Lanczos3] {
            let p = Plane::filled(20, 1, 1.0f32);
            let up = resize_plane(&p, 33, 1, k);
            for &v in up.iter() {
                assert!((v - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bicubic_sharper_than_bilinear_on_edge() {
        // step edge: bicubic should overshoot/retain contrast more than bilinear
        let p = Plane::from_fn(16, 16, |x, _| if x < 8 { 0.0 } else { 255.0 });
        let bl = resize_plane(&p, 32, 32, InterpKernel::Bilinear);
        let bc = resize_plane(&p, 32, 32, InterpKernel::Bicubic);
        // measure edge transition width: count samples strictly between 10 and 245
        let trans = |pl: &Plane<f32>| {
            pl.row(16)
                .iter()
                .filter(|&&v| v > 10.0 && v < 245.0)
                .count()
        };
        assert!(trans(&bc) <= trans(&bl));
    }
}
