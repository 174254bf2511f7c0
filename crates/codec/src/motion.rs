//! Macroblock motion estimation and compensation for inter frames.

use gss_frame::Plane;
use serde::{Deserialize, Serialize};

/// Macroblock side length in pixels.
pub const MB_SIZE: usize = 16;

/// A per-macroblock displacement into the reference frame, in pixels.
///
/// Components are `i16`: raw search results fit `i8`, but NEMO's
/// "upscale the motion vectors" step multiplies them by the SR factor,
/// which must not saturate (a ±127 clamp used to silently truncate large
/// motions and corrupt the reconstruction-path prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MotionVector {
    /// Horizontal displacement (reference x = block x + dx).
    pub dx: i16,
    /// Vertical displacement.
    pub dy: i16,
}

/// The motion vectors of one frame, in macroblock raster order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MotionField {
    mb_cols: usize,
    mb_rows: usize,
    vectors: Vec<MotionVector>,
}

impl MotionField {
    /// Creates a zero-motion field for a `width x height` frame.
    pub fn zero(width: usize, height: usize) -> Self {
        let mb_cols = width.div_ceil(MB_SIZE);
        let mb_rows = height.div_ceil(MB_SIZE);
        MotionField {
            mb_cols,
            mb_rows,
            vectors: vec![MotionVector::default(); mb_cols * mb_rows],
        }
    }

    /// Wraps existing vectors.
    ///
    /// # Panics
    ///
    /// Panics when `vectors.len() != mb_cols * mb_rows`.
    pub fn from_vectors(mb_cols: usize, mb_rows: usize, vectors: Vec<MotionVector>) -> Self {
        assert_eq!(vectors.len(), mb_cols * mb_rows, "vector count mismatch");
        MotionField {
            mb_cols,
            mb_rows,
            vectors,
        }
    }

    /// Macroblock grid size `(cols, rows)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.mb_cols, self.mb_rows)
    }

    /// Vector for macroblock `(bx, by)`.
    pub fn get(&self, bx: usize, by: usize) -> MotionVector {
        self.vectors[by * self.mb_cols + bx]
    }

    /// All vectors in raster order.
    pub fn vectors(&self) -> &[MotionVector] {
        &self.vectors
    }

    /// Mean vector magnitude in pixels — a scene-motion statistic the
    /// benchmarks report per game.
    pub fn mean_magnitude(&self) -> f64 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        self.vectors
            .iter()
            .map(|v| ((v.dx as f64).powi(2) + (v.dy as f64).powi(2)).sqrt())
            .sum::<f64>()
            / self.vectors.len() as f64
    }

    /// Scales every vector by an integer factor — this is NEMO's "upscale
    /// the motion vectors" step. The wide `i16` representation keeps every
    /// realistic product exact (search range ±127 × scale ≤ 4 fits with
    /// room to spare); pathological factors saturate at the `i16` limits
    /// instead of wrapping.
    pub fn scaled(&self, factor: usize) -> MotionField {
        MotionField {
            mb_cols: self.mb_cols,
            mb_rows: self.mb_rows,
            vectors: self
                .vectors
                .iter()
                .map(|v| MotionVector {
                    dx: (v.dx as i32 * factor as i32).clamp(i16::MIN as i32, i16::MAX as i32)
                        as i16,
                    dy: (v.dy as i32 * factor as i32).clamp(i16::MIN as i32, i16::MAX as i32)
                        as i16,
                })
                .collect(),
        }
    }
}

/// Sum of absolute differences between a block of `cur` at `(x, y)` and a
/// displaced block of `reference`, with border replication. The block is
/// cropped to the frame; the differences are added in `f64` in raster
/// order. A displaced block inside the reference reads row slices, any
/// other clamps each coordinate; both add the same terms in that order.
fn sad(
    cur: &Plane<f32>,
    reference: &Plane<f32>,
    x: usize,
    y: usize,
    dx: i32,
    dy: i32,
    block: usize,
) -> f64 {
    let (w, h) = cur.size();
    let bw = block.min(w.saturating_sub(x));
    let bh = block.min(h.saturating_sub(y));
    let (rx, ry) = (x as isize + dx as isize, y as isize + dy as isize);
    let (rw, rh) = reference.size();
    let mut acc = 0.0f64;
    if rx >= 0 && ry >= 0 && rx as usize + bw <= rw && ry as usize + bh <= rh {
        let (rx, ry) = (rx as usize, ry as usize);
        for by in 0..bh {
            let c = &cur.row(y + by)[x..x + bw];
            let r = &reference.row(ry + by)[rx..rx + bw];
            for (&c, &r) in c.iter().zip(r) {
                acc += (c - r).abs() as f64;
            }
        }
        return acc;
    }
    for by in 0..bh {
        let c = &cur.row(y + by)[x..x + bw];
        for (bx, &c) in c.iter().enumerate() {
            let r = reference.get_clamped(rx + bx as isize, ry + by as isize);
            acc += (c - r).abs() as f64;
        }
    }
    acc
}

/// Estimates the motion field of `current` against `reference` using
/// three-step search over a `±search_range` window on the luma plane.
///
/// Macroblocks are independent, so rows of the macroblock grid are
/// searched in parallel through [`gss_platform::pool`]; the per-row
/// results are merged in raster order, keeping the field bit-identical
/// to a scalar search at any worker count.
///
/// # Panics
///
/// Panics when the planes differ in size or `search_range` is zero.
pub fn estimate_motion(
    current: &Plane<f32>,
    reference: &Plane<f32>,
    search_range: u8,
) -> MotionField {
    assert_eq!(current.size(), reference.size(), "plane size mismatch");
    assert!(search_range > 0, "search range must be nonzero");
    let (width, height) = current.size();
    let mb_cols = width.div_ceil(MB_SIZE);
    let mb_rows = height.div_ceil(MB_SIZE);
    let rows = gss_platform::pool::map_indexed(mb_rows, |by| {
        let mut row = Vec::with_capacity(mb_cols);
        for bx in 0..mb_cols {
            row.push(search_block(current, reference, bx, by, search_range));
        }
        row
    });
    let vectors = rows.into_iter().flatten().collect();
    MotionField::from_vectors(mb_cols, mb_rows, vectors)
}

/// Three-step search for one macroblock.
fn search_block(
    current: &Plane<f32>,
    reference: &Plane<f32>,
    bx: usize,
    by: usize,
    search_range: u8,
) -> MotionVector {
    let x = bx * MB_SIZE;
    let y = by * MB_SIZE;
    let mut best = (0i32, 0i32);
    let mut best_cost = sad(current, reference, x, y, 0, 0, MB_SIZE);
    let mut step = ((search_range as i32 + 1) / 2).max(1);
    while step >= 1 {
        let center = best;
        for (sx, sy) in [
            (-step, -step),
            (0, -step),
            (step, -step),
            (-step, 0),
            (step, 0),
            (-step, step),
            (0, step),
            (step, step),
        ] {
            let cand = (center.0 + sx, center.1 + sy);
            if cand.0.unsigned_abs() > search_range as u32
                || cand.1.unsigned_abs() > search_range as u32
            {
                continue;
            }
            let cost = sad(current, reference, x, y, cand.0, cand.1, MB_SIZE);
            if cost < best_cost {
                best_cost = cost;
                best = cand;
            }
        }
        step /= 2;
    }
    MotionVector {
        dx: best.0 as i16,
        dy: best.1 as i16,
    }
}

/// Builds the motion-compensated prediction of a frame plane from
/// `reference` and a motion field. `block` is the macroblock size in this
/// plane's resolution (16 for luma at coded size, 32 after 2x upscaling).
/// Each block row copies one reference row slice; only blocks displaced
/// across the left or right border clamp per pixel.
///
/// # Panics
///
/// Panics when the motion grid does not cover the plane at the given block
/// size.
pub fn compensate(reference: &Plane<f32>, motion: &MotionField, block: usize) -> Plane<f32> {
    let (width, height) = reference.size();
    let (mb_cols, mb_rows) = motion.grid();
    assert!(
        mb_cols * block >= width && mb_rows * block >= height,
        "motion grid {mb_cols}x{mb_rows} with block {block} cannot cover {width}x{height}"
    );
    let data = gss_platform::pool::build_rows(width, height, 0.0f32, |y, row| {
        let brow = y / block;
        for (bx, out) in row.chunks_mut(block).enumerate() {
            let v = motion.get(bx, brow);
            let sy = (y as isize + v.dy as isize).clamp(0, height as isize - 1) as usize;
            let src = reference.row(sy);
            let sx = (bx * block) as isize + v.dx as isize;
            if sx >= 0 && sx as usize + out.len() <= width {
                out.copy_from_slice(&src[sx as usize..sx as usize + out.len()]);
            } else {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = src[(sx + i as isize).clamp(0, width as isize - 1) as usize];
                }
            }
        }
    });
    Plane::from_vec(width, height, data).expect("row count matches plane size")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            128.0 + 80.0 * ((x as f32 * 0.33).sin() * (y as f32 * 0.21).cos())
        })
    }

    fn shifted(p: &Plane<f32>, dx: isize, dy: isize) -> Plane<f32> {
        Plane::from_fn(p.width(), p.height(), |x, y| {
            p.get_clamped(x as isize - dx, y as isize - dy)
        })
    }

    /// The per-sample `get_clamped` SAD loop the slice kernel replaced,
    /// kept verbatim as the bit-exact reference.
    fn sad_reference(
        cur: &Plane<f32>,
        reference: &Plane<f32>,
        x: usize,
        y: usize,
        dx: i32,
        dy: i32,
        block: usize,
    ) -> f64 {
        let mut acc = 0.0f64;
        for by in 0..block {
            let cy = y + by;
            if cy >= cur.height() {
                break;
            }
            for bx in 0..block {
                let cx = x + bx;
                if cx >= cur.width() {
                    break;
                }
                let r = reference.get_clamped(cx as isize + dx as isize, cy as isize + dy as isize);
                acc += (cur.get(cx, cy) - r).abs() as f64;
            }
        }
        acc
    }

    /// The per-pixel compensation loop the row-slice kernel replaced.
    fn compensate_reference(
        reference: &Plane<f32>,
        motion: &MotionField,
        block: usize,
    ) -> Plane<f32> {
        Plane::from_fn(reference.width(), reference.height(), |x, y| {
            let v = motion.get(x / block, y / block);
            reference.get_clamped(x as isize + v.dx as isize, y as isize + v.dy as isize)
        })
    }

    /// Vectors inside the frame, across each border and far outside it.
    const PROBES: [(i32, i32); 13] = [
        (0, 0),
        (3, -2),
        (-7, 7),
        (-1, 0),
        (0, -1),
        (15, 0),
        (0, 17),
        (-16, -16),
        (40, 3),
        (-3, -40),
        (70, 70),
        (-70, 5),
        (2, -300),
    ];

    #[test]
    fn sad_matches_the_clamped_reference_bitwise() {
        // 50x34: partial macroblocks on the right and bottom edges
        let reference = textured(50, 34);
        let current = shifted(&reference, 2, -1).map(|v| v * 0.93 + 4.1);
        for by in 0..3 {
            for bx in 0..4 {
                let (x, y) = (bx * MB_SIZE, by * MB_SIZE);
                for (dx, dy) in PROBES {
                    let fast = sad(&current, &reference, x, y, dx, dy, MB_SIZE);
                    let slow = sad_reference(&current, &reference, x, y, dx, dy, MB_SIZE);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "mb ({bx},{by}) mv ({dx},{dy})"
                    );
                }
            }
        }
    }

    #[test]
    fn compensate_matches_the_clamped_reference_bitwise() {
        for (w, h, block) in [
            (50, 34, MB_SIZE),
            (64, 48, MB_SIZE),
            (100, 68, 32),
            (7, 5, 16),
        ] {
            let reference = textured(w, h);
            let (cols, rows) = (w.div_ceil(block), h.div_ceil(block));
            let vectors = (0..cols * rows)
                .map(|i| {
                    let (dx, dy) = PROBES[i % PROBES.len()];
                    MotionVector {
                        dx: dx as i16,
                        dy: dy as i16,
                    }
                })
                .collect();
            let motion = MotionField::from_vectors(cols, rows, vectors);
            let bits = |p: &Plane<f32>| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&compensate(&reference, &motion, block)),
                bits(&compensate_reference(&reference, &motion, block)),
                "{w}x{h} block {block}"
            );
        }
    }

    #[test]
    fn global_shift_is_recovered() {
        let reference = textured(64, 64);
        let current = shifted(&reference, 3, -2);
        let mf = estimate_motion(&current, &reference, 7);
        // interior macroblocks should find (dx=3, dy=-2): ref x = cur x + (-3)?
        // convention: reference x = block x + dx, so dx = -3, dy = 2
        let v = mf.get(1, 1);
        assert_eq!((v.dx, v.dy), (-3, 2), "{v:?}");
    }

    #[test]
    fn identical_frames_give_zero_motion() {
        let p = textured(48, 48);
        let mf = estimate_motion(&p, &p, 7);
        assert!(mf.vectors().iter().all(|v| v.dx == 0 && v.dy == 0));
        assert_eq!(mf.mean_magnitude(), 0.0);
    }

    #[test]
    fn compensation_reconstructs_shifted_frame() {
        let reference = textured(64, 64);
        let current = shifted(&reference, 4, 1);
        let mf = estimate_motion(&current, &reference, 7);
        let pred = compensate(&reference, &mf, MB_SIZE);
        // interior pixels should match near-exactly
        let mut max_err = 0.0f32;
        for y in 8..56 {
            for x in 8..56 {
                max_err = max_err.max((pred.get(x, y) - current.get(x, y)).abs());
            }
        }
        assert!(max_err < 1e-3, "max interior error {max_err}");
    }

    #[test]
    fn scaled_field_doubles_vectors() {
        let mf = MotionField::from_vectors(
            2,
            1,
            vec![
                MotionVector { dx: 3, dy: -2 },
                MotionVector { dx: -60, dy: 100 },
            ],
        );
        let s = mf.scaled(2);
        assert_eq!(s.get(0, 0), MotionVector { dx: 6, dy: -4 });
        // large vectors scale exactly — no ±127 saturation
        assert_eq!(s.get(1, 0), MotionVector { dx: -120, dy: 200 });
    }

    #[test]
    fn near_range_vectors_scale_without_truncation() {
        // regression: (±127, ∓127) × 2 used to clamp to ±127 and corrupt
        // the NEMO reconstruction prediction
        let mf = MotionField::from_vectors(
            2,
            1,
            vec![
                MotionVector { dx: 127, dy: -127 },
                MotionVector { dx: -128, dy: 64 },
            ],
        );
        let s2 = mf.scaled(2);
        assert_eq!(s2.get(0, 0), MotionVector { dx: 254, dy: -254 });
        assert_eq!(s2.get(1, 0), MotionVector { dx: -256, dy: 128 });
        let s4 = mf.scaled(4);
        assert_eq!(s4.get(0, 0), MotionVector { dx: 508, dy: -508 });
    }

    #[test]
    fn parallel_search_matches_scalar_field() {
        let reference = textured(96, 64);
        let current = shifted(&reference, -5, 3);
        let scalar = {
            let mb_cols = 96usize.div_ceil(MB_SIZE);
            let mb_rows = 64usize.div_ceil(MB_SIZE);
            let mut vectors = Vec::new();
            for by in 0..mb_rows {
                for bx in 0..mb_cols {
                    vectors.push(search_block(&current, &reference, bx, by, 7));
                }
            }
            MotionField::from_vectors(mb_cols, mb_rows, vectors)
        };
        assert_eq!(estimate_motion(&current, &reference, 7), scalar);
    }

    #[test]
    fn mean_magnitude_matches_hand_value() {
        let mf = MotionField::from_vectors(
            2,
            1,
            vec![MotionVector { dx: 3, dy: 4 }, MotionVector { dx: 0, dy: 0 }],
        );
        assert!((mf.mean_magnitude() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn non_mb_aligned_dimensions_work() {
        let reference = textured(50, 34);
        let current = shifted(&reference, 2, 2);
        let mf = estimate_motion(&current, &reference, 7);
        assert_eq!(mf.grid(), (4, 3));
        let pred = compensate(&reference, &mf, MB_SIZE);
        assert_eq!(pred.size(), (50, 34));
    }
}
