//! Row-parallel plane operations under the [`crate::pool`] determinism
//! contract.
//!
//! These mirror the serial `Plane` combinators (`map`, `zip_map`,
//! `downsample_box`) element-for-element: every output pixel is an
//! independent computation with the same arithmetic in the same order, so
//! the result is bit-identical to the serial path at any worker count.
//! They live here rather than in `gss-frame` because the frame crate sits
//! below the thread pool in the crate graph.

use crate::pool;
use gss_frame::Plane;

/// Row-parallel [`Plane::map`] for `f32` planes.
pub fn map(p: &Plane<f32>, f: impl Fn(f32) -> f32 + Sync) -> Plane<f32> {
    let (w, h) = p.size();
    if w == 0 || h == 0 {
        return p.map(f);
    }
    let data = pool::build_rows(w, h, 0.0f32, |y, row| {
        for (v, &s) in row.iter_mut().zip(p.row(y)) {
            *v = f(s);
        }
    });
    Plane::from_vec(w, h, data).expect("rows cover the plane")
}

/// Row-parallel [`Plane::zip_map`] for `f32` planes.
///
/// # Panics
///
/// Panics when the planes differ in size (the serial version returns an
/// error; every call site here pairs planes produced at the same size).
pub fn zip_map(a: &Plane<f32>, b: &Plane<f32>, f: impl Fn(f32, f32) -> f32 + Sync) -> Plane<f32> {
    assert_eq!(a.size(), b.size(), "zip_map planes must share a size");
    let (w, h) = a.size();
    if w == 0 || h == 0 {
        return Plane::new(w, h);
    }
    let data = pool::build_rows(w, h, 0.0f32, |y, row| {
        for ((v, &x), &z) in row.iter_mut().zip(a.row(y)).zip(b.row(y)) {
            *v = f(x, z);
        }
    });
    Plane::from_vec(w, h, data).expect("rows cover the plane")
}

/// Row-parallel [`Plane::downsample_box`]: each output row runs the same
/// row kernel ([`Plane::downsample_box_row`]).
///
/// # Panics
///
/// Panics when `factor` is zero or does not divide both dimensions.
pub fn downsample_box(p: &Plane<f32>, factor: usize) -> Plane<f32> {
    let (w, h) = p.size();
    assert!(
        factor > 0 && w % factor == 0 && h % factor == 0,
        "factor {factor} must divide {w}x{h}"
    );
    let data = pool::build_rows(w / factor, h / factor, 0.0f32, |oy, row| {
        p.downsample_box_row(factor, oy, row);
    });
    Plane::from_vec(w / factor, h / factor, data).expect("rows cover the output plane")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 251) as f32 * 0.731)
    }

    #[test]
    fn map_matches_serial_bitwise() {
        let p = textured(130, 77);
        let serial = p.map(|v| (v * 1.5 - 12.25).clamp(0.0, 255.0));
        let par = map(&p, |v| (v * 1.5 - 12.25).clamp(0.0, 255.0));
        assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn zip_map_matches_serial_bitwise() {
        let a = textured(96, 64);
        let b = textured(96, 64).map(|v| v + 3.0);
        let serial = a.zip_map(&b, |x, y| x - y).unwrap();
        let par = zip_map(&a, &b, |x, y| x - y);
        assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn downsample_matches_serial_bitwise() {
        let p = textured(128, 72);
        for factor in [1usize, 2, 4] {
            let serial = p.downsample_box(factor);
            let par = downsample_box(&p, factor);
            assert_eq!(serial.as_slice(), par.as_slice(), "factor {factor}");
        }
    }
}
