use crate::{FrameError, Rect};

/// A row-major 2D buffer of samples.
///
/// `Plane<f32>` carries pixel intensities (in the `0.0..=255.0` domain by
/// convention), depth values, weights and DCT coefficients throughout the
/// workspace; `Plane<i16>` carries quantized codec coefficients.
///
/// ```
/// use gss_frame::Plane;
///
/// let mut p: Plane<f32> = Plane::filled(4, 3, 1.0);
/// *p.get_mut(2, 1) = 9.0;
/// assert_eq!(p.get(2, 1), 9.0);
/// assert_eq!(p.iter().sum::<f32>(), 4.0 * 3.0 - 1.0 + 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Plane<T> {
    /// Creates a plane filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Plane::filled(width, height, T::default())
    }
}

impl<T: Copy> Plane<T> {
    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadDimensions`] when a dimension is zero or
    /// `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, FrameError> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(FrameError::BadDimensions {
                width,
                height,
                data_len: data.len(),
            });
        }
        Ok(Plane {
            width,
            height,
            data,
        })
    }

    /// Builds a plane by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Plane {
            width,
            height,
            data,
        }
    }

    /// Width in samples.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Height in samples.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub const fn size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The full-plane region `0,0,width,height`.
    pub const fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Mutable sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> &mut T {
        debug_assert!(x < self.width && y < self.height);
        &mut self.data[y * self.width + x]
    }

    /// Sample at `(x, y)` with the coordinates clamped into bounds
    /// (border-replicate addressing, used by every resampler).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.data[yc * self.width + xc]
    }

    /// Writes `value` at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }

    /// Immutable view of a row.
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable view of a row.
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterator over all samples in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iterator over all samples in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Raw sample slice in row-major order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw sample slice in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the plane and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Copies the samples under `region` into a new plane.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::RegionOutOfBounds`] when `region` does not fit.
    pub fn crop(&self, region: Rect) -> Result<Plane<T>, FrameError> {
        if region.is_empty() || !self.bounds().contains_rect(&region) {
            return Err(FrameError::RegionOutOfBounds {
                region,
                width: self.width,
                height: self.height,
            });
        }
        let mut data = Vec::with_capacity(region.area());
        for y in region.y..region.bottom() {
            let start = y * self.width + region.x;
            data.extend_from_slice(&self.data[start..start + region.width]);
        }
        Ok(Plane {
            width: region.width,
            height: region.height,
            data,
        })
    }

    /// Copies `patch` into this plane with its top-left corner at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::RegionOutOfBounds`] when the patch does not fit.
    pub fn paste(&mut self, patch: &Plane<T>, x: usize, y: usize) -> Result<(), FrameError> {
        let region = Rect::new(x, y, patch.width, patch.height);
        if !self.bounds().contains_rect(&region) {
            return Err(FrameError::RegionOutOfBounds {
                region,
                width: self.width,
                height: self.height,
            });
        }
        for (row_idx, src_row) in (y..y + patch.height).zip(0..patch.height) {
            let start = row_idx * self.width + x;
            self.data[start..start + patch.width].copy_from_slice(src_row_of(patch, src_row));
        }
        Ok(())
    }

    /// A new plane with `f` applied to every sample.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Plane<U> {
        Plane {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-sized planes sample-wise.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::SizeMismatch`] when the sizes differ.
    pub fn zip_map<U: Copy, V: Copy>(
        &self,
        other: &Plane<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Result<Plane<V>, FrameError> {
        if self.size() != other.size() {
            return Err(FrameError::SizeMismatch {
                left: self.size(),
                right: other.size(),
            });
        }
        Ok(Plane {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

#[inline]
fn src_row_of<T: Copy>(p: &Plane<T>, y: usize) -> &[T] {
    &p.data[y * p.width..(y + 1) * p.width]
}

impl Plane<f32> {
    /// Sum of all samples in `f64` precision.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Minimum and maximum sample values.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Clamps every sample into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// Box-filter downsample by an integer `factor` (each output sample is
    /// the mean of a `factor x factor` block). This is how the server derives
    /// the low-resolution stream from the native render in the simulation.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero or does not divide both dimensions.
    pub fn downsample_box(&self, factor: usize) -> Plane<f32> {
        assert!(factor > 0, "factor must be nonzero");
        assert!(
            self.width.is_multiple_of(factor) && self.height.is_multiple_of(factor),
            "factor {factor} must divide {}x{}",
            self.width,
            self.height
        );
        let ow = self.width / factor;
        let mut data = vec![0.0f32; ow * (self.height / factor)];
        for (oy, row) in data.chunks_mut(ow).enumerate() {
            self.downsample_box_row(factor, oy, row);
        }
        Plane::from_vec(ow, self.height / factor, data).expect("rows cover the output plane")
    }

    /// Output row `oy` of [`Plane::downsample_box`], written into `out`
    /// (`width / factor` samples). Each output sample adds its block's
    /// samples from `0.0` in row-major order (row `dy` outer, column `dx`
    /// inner) and scales by `1 / factor²`; row-parallel callers share this
    /// kernel so every path is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != width / factor` or the block rows of `oy`
    /// fall outside the plane.
    pub fn downsample_box_row(&self, factor: usize, oy: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.width / factor, "output row length");
        let norm = 1.0 / (factor * factor) as f32;
        out.fill(0.0);
        for dy in 0..factor {
            let src = self.row(oy * factor + dy);
            for (acc, block) in out.iter_mut().zip(src.chunks_exact(factor)) {
                for &v in block {
                    *acc += v;
                }
            }
        }
        for v in out {
            *v *= norm;
        }
    }

    /// Summed-area table: `sat[y][x]` is the sum of all samples in the
    /// rectangle `[0, x) x [0, y)`. The table is `(width+1) x (height+1)`.
    /// Window sums become O(1), which is how the RoI search achieves
    /// real-time cost (the paper runs the equivalent reduction on GPU
    /// compute shaders).
    pub fn integral(&self) -> IntegralImage {
        let w = self.width + 1;
        let h = self.height + 1;
        let mut table = vec![0.0f64; w * h];
        for y in 0..self.height {
            let mut row_sum = 0.0f64;
            for x in 0..self.width {
                row_sum += self.get(x, y) as f64;
                table[(y + 1) * w + (x + 1)] = table[y * w + (x + 1)] + row_sum;
            }
        }
        IntegralImage {
            width: w,
            height: h,
            table,
        }
    }
}

/// Summed-area table produced by [`Plane::integral`].
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    table: Vec<f64>,
}

impl IntegralImage {
    /// Sum of the samples inside `region` of the source plane in O(1).
    ///
    /// # Panics
    ///
    /// Panics when `region` exceeds the source plane bounds.
    pub fn window_sum(&self, region: Rect) -> f64 {
        let x1 = region.x;
        let y1 = region.y;
        let x2 = region.right();
        let y2 = region.bottom();
        assert!(x2 < self.width && y2 < self.height, "region out of bounds");
        let w = self.width;
        self.table[y2 * w + x2] - self.table[y1 * w + x2] - self.table[y2 * w + x1]
            + self.table[y1 * w + x1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates() {
        assert!(Plane::<f32>::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(Plane::<f32>::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Plane::<f32>::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn crop_then_paste_roundtrip() {
        let p = Plane::from_fn(8, 6, |x, y| (y * 8 + x) as f32);
        let r = Rect::new(2, 1, 4, 3);
        let c = p.crop(r).unwrap();
        assert_eq!(c.get(0, 0), p.get(2, 1));
        assert_eq!(c.get(3, 2), p.get(5, 3));
        let mut q = Plane::filled(8, 6, -1.0f32);
        q.paste(&c, 2, 1).unwrap();
        for y in 0..6 {
            for x in 0..8 {
                if r.contains(x, y) {
                    assert_eq!(q.get(x, y), p.get(x, y));
                } else {
                    assert_eq!(q.get(x, y), -1.0);
                }
            }
        }
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let p: Plane<f32> = Plane::new(4, 4);
        assert!(p.crop(Rect::new(2, 2, 4, 4)).is_err());
        assert!(p.crop(Rect::new(0, 0, 0, 0)).is_err());
    }

    #[test]
    fn paste_out_of_bounds_errors() {
        let mut p: Plane<f32> = Plane::new(4, 4);
        let patch: Plane<f32> = Plane::new(3, 3);
        assert!(p.paste(&patch, 2, 2).is_err());
        assert!(p.paste(&patch, 1, 1).is_ok());
    }

    #[test]
    fn get_clamped_replicates_border() {
        let p = Plane::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        assert_eq!(p.get_clamped(-5, -5), p.get(0, 0));
        assert_eq!(p.get_clamped(10, 1), p.get(2, 1));
        assert_eq!(p.get_clamped(1, 99), p.get(1, 2));
    }

    #[test]
    fn downsample_box_averages_blocks() {
        let p = Plane::from_fn(4, 4, |x, _| if x < 2 { 0.0 } else { 4.0 });
        let d = p.downsample_box(2);
        assert_eq!(d.size(), (2, 2));
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(1, 1), 4.0);
    }

    #[test]
    fn downsample_box_matches_the_per_sample_reference_bitwise() {
        // the `get` loop the row kernel replaced, kept as the reference
        fn reference(p: &Plane<f32>, factor: usize) -> Plane<f32> {
            let norm = 1.0 / (factor * factor) as f32;
            Plane::from_fn(p.width() / factor, p.height() / factor, |ox, oy| {
                let mut acc = 0.0f32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        acc += p.get(ox * factor + dx, oy * factor + dy);
                    }
                }
                acc * norm
            })
        }
        let p = Plane::from_fn(60, 36, |x, y| {
            ((x * 31 + y * 17) % 251) as f32 * 0.731 - 40.0
        });
        for factor in [1usize, 2, 3, 4, 6, 12] {
            let bits = |q: &Plane<f32>| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&p.downsample_box(factor)),
                bits(&reference(&p, factor)),
                "factor {factor}"
            );
        }
    }

    #[test]
    fn downsample_preserves_mean() {
        let p = Plane::from_fn(8, 8, |x, y| ((x * 7 + y * 13) % 31) as f32);
        let d = p.downsample_box(4);
        assert!((p.mean() - d.mean()).abs() < 1e-4);
    }

    #[test]
    fn integral_matches_naive_sums() {
        let p = Plane::from_fn(7, 5, |x, y| x as f32 * 1.5 + y as f32 * 0.25);
        let sat = p.integral();
        for y in 0..5 {
            for x in 0..7 {
                for h in 1..=(5 - y) {
                    for w in 1..=(7 - x) {
                        let r = Rect::new(x, y, w, h);
                        let mut naive = 0.0f64;
                        for yy in y..y + h {
                            for xx in x..x + w {
                                naive += p.get(xx, yy) as f64;
                            }
                        }
                        assert!(
                            (sat.window_sum(r) - naive).abs() < 1e-6,
                            "mismatch at {r:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zip_map_checks_sizes() {
        let a: Plane<f32> = Plane::new(2, 2);
        let b: Plane<f32> = Plane::new(3, 2);
        assert!(a.zip_map(&b, |x, y| x + y).is_err());
        let c: Plane<f32> = Plane::filled(2, 2, 1.0);
        let s = a.zip_map(&c, |x, y| x + y).unwrap();
        assert_eq!(s.get(1, 1), 1.0);
    }

    #[test]
    fn min_max_and_clamp() {
        let mut p = Plane::from_fn(3, 1, |x, _| x as f32 * 100.0 - 50.0);
        assert_eq!(p.min_max(), (-50.0, 150.0));
        p.clamp_in_place(0.0, 255.0);
        assert_eq!(p.min_max(), (0.0, 150.0));
    }
}
