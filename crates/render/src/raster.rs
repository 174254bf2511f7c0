//! The software rasterization pipeline (paper Fig. 4): vertex processing →
//! primitive assembly → near-plane clipping → perspective rasterization with
//! Z-buffering → pixel shading with mipmapped texturing, Lambert lighting
//! and fog.
//!
//! Alongside the color buffer it produces the **depth buffer** that the
//! GameStreamSR server consumes for RoI detection — captured at exactly the
//! same pipeline point as the paper's ReShade hook. Depth is linear and
//! normalized: `0.0` at the near plane, `1.0` at (and beyond) the far plane.

use crate::camera::Camera;
use crate::math::{Mat4, Vec3};
use crate::scene::{Attachment, Scene};
use crate::texture::{mix, shade, Color, LatticeMemo, TextureSampler};
use gss_frame::{DepthMap, Frame, Plane, Rgb8};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The rasterizer's output: the rendered picture and its Z-buffer.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Rendered color frame.
    pub frame: Frame,
    /// Per-pixel normalized linear depth.
    pub depth: DepthMap,
    /// Pipeline counters for this frame.
    pub stats: RenderStats,
}

/// Per-frame pipeline counters (primitive assembly → rasterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Triangles submitted by the scene.
    pub triangles_submitted: usize,
    /// Triangles rejected by view-frustum culling before clipping.
    pub triangles_culled: usize,
    /// Triangles surviving near-plane clipping (post-fan count).
    pub triangles_rasterized: usize,
    /// Pixels that passed the depth test and were shaded.
    pub pixels_shaded: usize,
}

/// A post-transform vertex ready for rasterization setup.
#[derive(Debug, Clone, Copy)]
struct ClipVertex {
    /// Position in view space (camera at origin, looking down −Z).
    view: Vec3,
    uv: (f32, f32),
}

impl ClipVertex {
    fn lerp(self, other: ClipVertex, t: f32) -> ClipVertex {
        ClipVertex {
            view: self.view + (other.view - self.view) * t,
            uv: (
                self.uv.0 + (other.uv.0 - self.uv.0) * t,
                self.uv.1 + (other.uv.1 - self.uv.1) * t,
            ),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ScreenVertex {
    x: f32,
    y: f32,
    /// 1 / view distance (view distance = −z_view).
    inv_w: f32,
    u_over_w: f32,
    v_over_w: f32,
}

/// A projected triangle with its screen bounding box, ready for shading.
struct PreparedTri<'a> {
    sv: [ScreenVertex; 3],
    inv_area: f32,
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
    /// Every vertex lies inside the guard band, so [`row_span`] narrows
    /// each row to an analytic span; otherwise rows walk the whole box.
    in_guard_band: bool,
    texture: TextureSampler<'a>,
    brightness: f32,
}

/// Winner-buffer entry of a pixel no triangle covers.
const SKY: u32 = u32::MAX;

/// Guard band around the frame, in frame sizes per side. The rounding
/// bound behind `row_span` assumes the f32 edge products stay finite and
/// far from overflow, but a near-clipped triangle can project a vertex
/// arbitrarily far out (its `1/w` grows without bound near the eye). A
/// triangle with a vertex outside the band therefore walks its whole
/// bounding box, so no span can miss a pixel whatever its f32 test does.
const GUARD_BAND: f32 = 2.0;

/// The inclusive column range a triangle's row test walks, `None` when no
/// column of the row can pass.
type Span = Option<(usize, usize)>;

/// Parameters of the per-pixel depth test shared by both passes.
#[derive(Clone, Copy)]
struct DepthRange {
    near: f32,
    span: f32,
}

/// One image row's output slices, filled by one pool task.
struct RowOut<'a> {
    y: &'a mut [f32],
    cb: &'a mut [f32],
    cr: &'a mut [f32],
    depth: &'a mut [f32],
    /// Index of the triangle that won each pixel's depth test, or [`SKY`].
    winner: &'a mut [u32],
}

/// Renders `scene` from `camera` into a `width x height` frame + depth map.
///
/// The pipeline runs in three stages:
///
/// 1. Vertex processing, primitive assembly, culling, clipping and
///    projection are serial per-triangle work that fixes the triangle
///    submission order.
/// 2. A depth-only *visibility pass* per scanline walks the prepared
///    triangles in submission order over each one's conservative row span,
///    runs the per-pixel coverage and depth test, and
///    records which triangle won each pixel. Every pixel sees the exact
///    depth-test sequence of a serial rasterizer that shades as it goes,
///    so the depth buffer and the `pixels_shaded` count are the same.
/// 3. A *shade pass* then shades each covered pixel once, with its
///    winner's barycentric expressions evaluated exactly as the
///    visibility pass did — the color a shade-as-you-go rasterizer
///    leaves is its last depth-test winner's — and converts the row to
///    YCbCr straight into the frame planes. Overdrawn pixels no longer
///    pay for texture sampling and fog.
///
/// Passes 2 and 3 run as one [`gss_platform::pool`] task per scanline.
/// A row's result depends only on the prepared triangle list, never on
/// which worker runs it or when, so the image is bit-identical at any
/// worker count.
///
/// # Panics
///
/// Panics when either dimension is zero.
pub fn render(scene: &Scene, camera: &Camera, width: usize, height: usize) -> RenderOutput {
    assert!(width > 0 && height > 0, "render target must be nonzero");
    let (tris, mut stats) = prepare(scene, camera, width, height);
    let range = DepthRange {
        near: camera.near,
        span: camera.far - camera.near,
    };

    let n = width * height;
    let (mut yp, mut cbp, mut crp) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let mut depth = vec![1.0f32; n];
    let mut winner = vec![SKY; n];
    let mut rows: Vec<RowOut<'_>> = yp
        .chunks_mut(width)
        .zip(cbp.chunks_mut(width))
        .zip(crp.chunks_mut(width))
        .zip(depth.chunks_mut(width).zip(winner.chunks_mut(width)))
        .map(|(((y, cb), cr), (depth, winner))| RowOut {
            y,
            cb,
            cr,
            depth,
            winner,
        })
        .collect();
    let shaded = AtomicUsize::new(0);
    gss_platform::pool::for_each_mut_with(
        &mut rows,
        gss_platform::pool::effective_workers(),
        |py, row| {
            let count = visibility_row(&tris, py, row.depth, row.winner, range, row_span);
            shaded.fetch_add(count, Ordering::Relaxed);
            shade_row(&tris, py, height, scene, row);
        },
    );
    drop(rows);
    stats.pixels_shaded = shaded.load(Ordering::Relaxed);

    let plane = |data: Vec<f32>| Plane::from_vec(width, height, data).expect("rows cover frame");
    let frame =
        Frame::from_planes(plane(yp), plane(cbp), plane(crp)).expect("planes share one size");
    RenderOutput {
        frame,
        depth: DepthMap::from_plane(plane(depth)),
        stats,
    }
}

/// Stage 1 of [`render`]: transforms, culls, clips and projects every
/// triangle in submission order.
fn prepare<'s>(
    scene: &'s Scene,
    camera: &Camera,
    width: usize,
    height: usize,
) -> (Vec<PreparedTri<'s>>, RenderStats) {
    let mut stats = RenderStats::default();
    let view = camera.view_matrix();
    let aspect = width as f32 / height as f32;
    let proj = camera.projection_matrix(aspect);
    let tan_half = (camera.fov_y * 0.5).tan();
    // light direction expressed in view space for camera-attached meshes
    let light_view = view.transform_dir(scene.light_dir).normalized();

    let mut tris: Vec<PreparedTri<'_>> = Vec::new();
    for object in &scene.objects {
        let (to_view, light): (Option<&Mat4>, Vec3) = match object.attachment {
            Attachment::World => (Some(&view), scene.light_dir),
            Attachment::CameraRelative => (None, light_view),
        };
        let texture = TextureSampler::new(&object.texture);
        for tri in &object.mesh.triangles {
            let verts = tri.map(|i| object.mesh.vertices[i]);
            let cv = verts.map(|v| ClipVertex {
                view: match to_view {
                    Some(m) => m.transform_point(v.position),
                    None => v.position,
                },
                uv: v.uv,
            });

            stats.triangles_submitted += 1;
            if frustum_culled(&cv, camera.near, tan_half, aspect) {
                stats.triangles_culled += 1;
                continue;
            }

            // lighting uses the face normal in the attachment space
            let e1 = verts[1].position - verts[0].position;
            let e2 = verts[2].position - verts[0].position;
            let normal = e1.cross(e2).normalized();
            let lambert = normal.dot(light).abs();
            let brightness = scene.ambient + (1.0 - scene.ambient) * lambert;

            let (fan, fan_len) = clip_near(&cv, camera.near);
            for clipped in &fan[..fan_len] {
                stats.triangles_rasterized += 1;
                if let Some(prepared) =
                    setup_triangle(clipped, &proj, width, height, texture, brightness)
                {
                    tris.push(prepared);
                }
            }
        }
    }
    (tris, stats)
}

/// Conservative view-frustum rejection: a triangle is culled only when all
/// three vertices are in front of the near plane *and* all lie outside the
/// same lateral frustum plane (the cheap common case; partial overlaps fall
/// through to clipping + per-pixel coverage). `tan_half` is
/// `tan(fov_y / 2)`, computed once per frame.
fn frustum_culled(tri: &[ClipVertex; 3], near: f32, tan_half: f32, aspect: f32) -> bool {
    // everything behind the eye is dropped by near-plane clipping anyway
    if tri.iter().all(|v| v.view.z > -near) {
        return true;
    }
    // only cull laterally when all vertices are safely in front (w > 0)
    if !tri.iter().all(|v| v.view.z <= -near) {
        return false;
    }
    let mut out_left = true;
    let mut out_right = true;
    let mut out_top = true;
    let mut out_bottom = true;
    for v in tri {
        let limit_y = -v.view.z * tan_half;
        let limit_x = limit_y * aspect;
        out_left &= v.view.x < -limit_x;
        out_right &= v.view.x > limit_x;
        out_bottom &= v.view.y < -limit_y;
        out_top &= v.view.y > limit_y;
    }
    out_left || out_right || out_top || out_bottom
}

/// Sutherland–Hodgman clip of a triangle against the near plane
/// (`z_view <= -near` is kept), fanned back into triangles. One plane cuts
/// a triangle into at most a quad, so the fan holds at most two triangles;
/// the second value says how many of them are real.
fn clip_near(tri: &[ClipVertex; 3], near: f32) -> ([[ClipVertex; 3]; 2], usize) {
    let inside = |v: &ClipVertex| v.view.z <= -near;
    let mut poly = [tri[0]; 4];
    let mut len = 0;
    for i in 0..3 {
        let a = tri[i];
        let b = tri[(i + 1) % 3];
        let a_in = inside(&a);
        let b_in = inside(&b);
        if a_in {
            poly[len] = a;
            len += 1;
        }
        if a_in != b_in {
            // intersection with z = -near
            let t = (-near - a.view.z) / (b.view.z - a.view.z);
            poly[len] = a.lerp(b, t);
            len += 1;
        }
    }
    (
        [[poly[0], poly[1], poly[2]], [poly[0], poly[2], poly[3]]],
        len.saturating_sub(2),
    )
}

#[inline]
fn edge(ax: f32, ay: f32, bx: f32, by: f32, px: f32, py: f32) -> f32 {
    (bx - ax) * (py - ay) - (by - ay) * (px - ax)
}

/// Projects one clipped triangle to screen space and computes its pixel
/// bounding box. `None` for degenerate or off-screen triangles.
fn setup_triangle<'a>(
    tri: &[ClipVertex; 3],
    proj: &Mat4,
    width: usize,
    height: usize,
    texture: TextureSampler<'a>,
    brightness: f32,
) -> Option<PreparedTri<'a>> {
    let mut sv = [ScreenVertex {
        x: 0.0,
        y: 0.0,
        inv_w: 0.0,
        u_over_w: 0.0,
        v_over_w: 0.0,
    }; 3];
    for (i, v) in tri.iter().enumerate() {
        let clip = proj.mul_vec4(crate::math::Vec4::from_point(v.view));
        if clip.w <= f32::EPSILON {
            return None; // behind the eye; clipping should prevent this
        }
        let inv_w = 1.0 / clip.w;
        sv[i] = ScreenVertex {
            x: (clip.x * inv_w + 1.0) * 0.5 * width as f32,
            y: (1.0 - clip.y * inv_w) * 0.5 * height as f32,
            inv_w,
            u_over_w: v.uv.0 * inv_w,
            v_over_w: v.uv.1 * inv_w,
        };
    }

    let area = edge(sv[0].x, sv[0].y, sv[1].x, sv[1].y, sv[2].x, sv[2].y);
    if area.abs() < 1e-6 {
        return None;
    }
    let inv_area = 1.0 / area;

    let min_x = sv
        .iter()
        .map(|v| v.x)
        .fold(f32::INFINITY, f32::min)
        .floor()
        .max(0.0) as usize;
    let max_x = (sv
        .iter()
        .map(|v| v.x)
        .fold(f32::NEG_INFINITY, f32::max)
        .ceil() as usize)
        .min(width.saturating_sub(1));
    let min_y = sv
        .iter()
        .map(|v| v.y)
        .fold(f32::INFINITY, f32::min)
        .floor()
        .max(0.0) as usize;
    let max_y = (sv
        .iter()
        .map(|v| v.y)
        .fold(f32::NEG_INFINITY, f32::max)
        .ceil() as usize)
        .min(height.saturating_sub(1));
    if min_x > max_x || min_y > max_y {
        return None;
    }
    let (gw, gh) = (GUARD_BAND * width as f32, GUARD_BAND * height as f32);
    let in_guard_band = sv.iter().all(|v| {
        (-gw..=width as f32 + gw).contains(&v.x) && (-gh..=height as f32 + gh).contains(&v.y)
    });
    Some(PreparedTri {
        sv,
        inv_area,
        min_x,
        max_x,
        min_y,
        max_y,
        in_guard_band,
        texture,
        brightness,
    })
}

/// The columns of row `py` that can pass `tri`'s coverage test, or `None`
/// when none can. Conservative: every pixel outside the span fails the
/// f32 test in [`covers`] as well.
///
/// The test computes `w0 = edge(v1, v2, p) · inv_area`, `w1` likewise and
/// `w2 = 1 − w0 − w1` in f32 and rejects any negative weight. Along a row
/// each weight is linear in `sx`, `f(sx) = k·sx + c`, and its f32 value
/// lies within a bound `m` of it (rounding of the two products and three
/// differences in `edge`, of the scaling by `inv_area`, and of the two
/// subtractions behind `w2`). So any `sx` with `f(sx) < −m` is rejected by
/// the f32 test too; the span keeps `f(sx) ≥ −m` for all three weights and
/// adds a pixel of slack on each side for this f64 arithmetic itself.
fn row_span(tri: &PreparedTri<'_>, py: usize) -> Span {
    if !tri.in_guard_band {
        return Some((tri.min_x, tri.max_x));
    }
    // unit roundoff of f32 arithmetic
    const U: f64 = f32::EPSILON as f64 * 0.5;
    let sy = py as f64 + 0.5;
    let ia = tri.inv_area as f64;
    let (xl, xr) = (tri.min_x as f64 + 0.5, tri.max_x as f64 + 0.5);
    // (k, c, max |f| over the box, error bound m) of `edge(a, b, p) · inv_area`
    let weight = |a: &ScreenVertex, b: &ScreenVertex| {
        let (ax, ay, bx, by) = (a.x as f64, a.y as f64, b.x as f64, b.y as f64);
        let k = -(by - ay) * ia;
        let c = ((bx - ax) * (sy - ay) + (by - ay) * ax) * ia;
        let products = |sx: f64| ((bx - ax) * (sy - ay)).abs() + ((by - ay) * (sx - ax)).abs();
        let edge_err = 5.0 * U * products(xl).max(products(xr)) * ia.abs();
        let peak = (k * xl + c).abs().max((k * xr + c).abs());
        (k, c, peak, 2.0 * U * peak + 2.0 * edge_err)
    };
    let sv = &tri.sv;
    let (k0, c0, p0, m0) = weight(&sv[1], &sv[2]);
    let (k1, c1, p1, m1) = weight(&sv[2], &sv[0]);
    let m2 = 2.0 * (m0 + m1) + 4.0 * U * (1.0 + p0 + p1);
    let (mut lo, mut hi) = (xl, xr);
    for (k, c, m) in [(k0, c0, m0), (k1, c1, m1), (-k0 - k1, 1.0 - c0 - c1, m2)] {
        // keep k·sx + c ≥ −m (a NaN leaves the bounds alone)
        let t = (-m - c) / k;
        if k > 0.0 {
            lo = lo.max(t);
        } else if k < 0.0 {
            hi = hi.min(t);
        } else if c < -m {
            return None;
        }
    }
    let x0 = ((lo - 0.5).ceil() - 1.0).max(tri.min_x as f64);
    let x1 = ((hi - 0.5).floor() + 1.0).min(tri.max_x as f64);
    (x0 <= x1).then_some((x0 as usize, x1 as usize))
}

/// The coverage and perspective terms of pixel center `(sx, sy)` in `tri`:
/// the barycentric weights and the view distance, or `None` when the
/// pixel is outside the triangle or behind the eye. Both passes evaluate
/// exactly these expressions, so they agree bit for bit.
#[inline(always)]
fn covers(tri: &PreparedTri<'_>, sx: f32, sy: f32) -> Option<([f32; 3], f32)> {
    let sv = &tri.sv;
    let w0 = edge(sv[1].x, sv[1].y, sv[2].x, sv[2].y, sx, sy) * tri.inv_area;
    let w1 = edge(sv[2].x, sv[2].y, sv[0].x, sv[0].y, sx, sy) * tri.inv_area;
    let w2 = 1.0 - w0 - w1;
    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
        return None;
    }
    let inv_w = w0 * sv[0].inv_w + w1 * sv[1].inv_w + w2 * sv[2].inv_w;
    if inv_w <= 0.0 {
        return None;
    }
    Some(([w0, w1, w2], 1.0 / inv_w))
}

/// Span pixels whose coverage and depth terms [`visibility_row`] computes
/// in one stack-buffered batch.
const CHUNK: usize = 64;

/// The visibility pass over row `py`: runs every triangle's coverage and
/// depth test over the columns `span` yields, in submission order,
/// keeping the nearest depth and its triangle's index. Returns the number
/// of depth-test passes. The inline depth test mirrors
/// [`DepthMap::test_and_set`].
///
/// Per triangle row, the row-constant products of both edge functions are
/// hoisted; they are the same f32 expressions [`edge`] evaluates, so every
/// weight keeps its bits. Each chunk of the span then computes the
/// weights, `inv_w` and normalized depth of all its pixels branch-free
/// into a stack buffer, with the exact [`covers`] predicates as a mask
/// (so NaN weights pass, as they do there), and a second scalar loop runs
/// the depth compare and winner write in column order.
fn visibility_row(
    tris: &[PreparedTri<'_>],
    py: usize,
    depth: &mut [f32],
    winner: &mut [u32],
    range: DepthRange,
    span: impl Fn(&PreparedTri<'_>, usize) -> Span,
) -> usize {
    let sy = py as f32 + 0.5;
    let offsets: [f32; CHUNK] = std::array::from_fn(|i| i as f32);
    let mut passed = 0usize;
    for (id, tri) in tris.iter().enumerate() {
        if py < tri.min_y || py > tri.max_y {
            continue;
        }
        let Some((x0, x1)) = span(tri, py) else {
            continue;
        };
        let [v0, v1, v2] = &tri.sv;
        // edge(v1, v2, p) = a0 − b0·(px − v1.x), edge(v2, v0, p) likewise
        let (a0, b0) = ((v2.x - v1.x) * (sy - v1.y), v2.y - v1.y);
        let (a1, b1) = ((v0.x - v2.x) * (sy - v2.y), v0.y - v2.y);
        let mut start = x0;
        while start <= x1 {
            let n = (x1 + 1 - start).min(CHUNK);
            // pixel centres are half-integers below 2^23, exact in f32
            let base = start as f32 + 0.5;
            let mut d01 = [0.0f32; CHUNK];
            let mut hit = [false; CHUNK];
            for ((d, h), &off) in d01[..n].iter_mut().zip(&mut hit[..n]).zip(&offsets) {
                let sx = base + off;
                let w0 = (a0 - b0 * (sx - v1.x)) * tri.inv_area;
                let w1 = (a1 - b1 * (sx - v2.x)) * tri.inv_area;
                let w2 = 1.0 - w0 - w1;
                let inv_w = w0 * v0.inv_w + w1 * v1.inv_w + w2 * v2.inv_w;
                *h = !((w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0) | (inv_w <= 0.0));
                *d = ((1.0 / inv_w - range.near) / range.span).clamp(0.0, 1.0);
            }
            let cols = start..start + n;
            for ((&d01, &hit), (d, w)) in d01[..n]
                .iter()
                .zip(&hit[..n])
                .zip(depth[cols.clone()].iter_mut().zip(&mut winner[cols]))
            {
                if !hit || d01 >= *d {
                    continue;
                }
                *d = d01;
                *w = id as u32;
                passed += 1;
            }
            start += n;
        }
    }
    passed
}

/// The shade pass over row `py`: shades each covered pixel with its
/// depth-test winner, fills the rest with the row's sky gradient, and
/// writes the BT.601 YCbCr conversion (the one [`Frame::from_rgb_fn`]
/// applies) into the frame rows.
fn shade_row(
    tris: &[PreparedTri<'_>],
    py: usize,
    height: usize,
    scene: &Scene,
    row: &mut RowOut<'_>,
) {
    // subtle vertical sky gradient so the background is not perfectly flat
    let t = py as f32 / height as f32;
    let sky = to_ycbcr(shade(scene.sky_color, 1.08 - 0.16 * t));
    let sy = py as f32 + 0.5;
    let mut memo = LatticeMemo::default();
    let outputs = row
        .y
        .iter_mut()
        .zip(row.cb.iter_mut())
        .zip(row.cr.iter_mut());
    for (px, (((y, cb), cr), &id)) in outputs.zip(row.winner.iter()).enumerate() {
        let ycc = if id == SKY {
            sky
        } else {
            let tri = &tris[id as usize];
            let ([w0, w1, w2], dist) =
                covers(tri, px as f32 + 0.5, sy).expect("the winner covers its pixel");
            let sv = &tri.sv;
            let u = (w0 * sv[0].u_over_w + w1 * sv[1].u_over_w + w2 * sv[2].u_over_w) * dist;
            let v = (w0 * sv[0].v_over_w + w1 * sv[1].v_over_w + w2 * sv[2].v_over_w) * dist;
            let lod = (dist / scene.lod_reference_distance).max(1.0).log2();
            let tex = tri.texture.sample(u, v, lod, &mut memo);
            let lit = shade(tex, tri.brightness);
            let fog = 1.0 - (-scene.fog_density * dist).exp();
            to_ycbcr(mix(lit, scene.sky_color, fog))
        };
        (*y, *cb, *cr) = ycc;
    }
}

/// Quantizes a shaded color to 8-bit RGB and converts it to YCbCr.
fn to_ycbcr(c: Color) -> (f32, f32, f32) {
    Rgb8::new(to_u8(c[0]), to_u8(c[1]), to_u8(c[2])).to_ycbcr()
}

/// `c.round().clamp(0.0, 255.0) as u8` without the libm `roundf` call.
/// Clamping first gives the same byte (rounding is monotone and keeps 0
/// and 255), and on `[0, 255]` the fraction `c − trunc(c)` is exact, so
/// rounding half away from zero is one compare. NaN maps to 0 either way.
#[inline(always)]
fn to_u8(c: f32) -> u8 {
    let c = c.clamp(0.0, 255.0);
    let t = c as u8;
    if c - t as f32 >= 0.5 {
        t + 1
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::vec3;
    use crate::mesh::Mesh;
    use crate::scene::Object;
    use crate::texture::ProceduralTexture;

    fn box_scene(z: f32) -> Scene {
        Scene::new().with(Object::world(
            Mesh::cuboid(vec3(-1.0, -1.0, z - 1.0), vec3(1.0, 1.0, z + 1.0), 2.0),
            ProceduralTexture::Checker {
                a: [230.0, 230.0, 230.0],
                b: [30.0, 30.0, 30.0],
                scale: 4.0,
            },
        ))
    }

    #[test]
    fn to_u8_matches_round_then_clamp() {
        let mut probes = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e9, -1e9];
        for i in -2000..=260_000 {
            let c = i as f32 * 0.001 - 0.6;
            probes.extend([c, c.next_up(), c.next_down()]);
        }
        for k in 0..=256 {
            let half = k as f32 - 0.5;
            probes.extend([half, half.next_up(), half.next_down()]);
        }
        for c in probes {
            assert_eq!(to_u8(c), c.round().clamp(0.0, 255.0) as u8, "{c:e}");
        }
    }

    #[test]
    fn object_in_front_writes_depth_at_center() {
        let scene = box_scene(-10.0);
        let out = render(&scene, &Camera::new(), 64, 48);
        let center = out.depth.get(32, 24);
        assert!(center < 1.0, "center depth {center}");
        // corners see only sky
        assert_eq!(out.depth.get(0, 0), 1.0);
        assert_eq!(out.depth.get(63, 47), 1.0);
    }

    #[test]
    fn nearer_object_occludes_farther() {
        let scene = box_scene(-20.0).with(Object::world(
            Mesh::cuboid(vec3(-0.5, -0.5, -6.5), vec3(0.5, 0.5, -5.5), 1.0),
            ProceduralTexture::Solid([255.0, 0.0, 0.0]),
        ));
        let out = render(&scene, &Camera::new(), 64, 48);
        let d_center = out.depth.get(32, 24);
        // near box front face at z = -5.5 → depth ≈ (5.5-0.3)/(250-0.3)
        let expected = (5.5 - 0.3) / (250.0 - 0.3);
        assert!(
            (d_center - expected).abs() < 0.01,
            "depth {d_center} vs {expected}"
        );
    }

    #[test]
    fn camera_relative_object_ignores_camera_motion() {
        let hero = Object::camera_relative(
            Mesh::cuboid(vec3(-0.3, -0.5, -2.3), vec3(0.3, 0.2, -1.7), 1.0),
            ProceduralTexture::Solid([10.0, 200.0, 10.0]),
        );
        let scene_a = Scene::new().with(hero.clone());
        let scene_b = Scene::new().with(hero);
        let cam_a = Camera::new();
        let cam_b = Camera {
            position: vec3(5.0, 1.0, -3.0),
            yaw: 0.8,
            ..Camera::new()
        };
        let a = render(&scene_a, &cam_a, 48, 32);
        let b = render(&scene_b, &cam_b, 48, 32);
        assert_eq!(a.depth.plane(), b.depth.plane());
    }

    #[test]
    fn rendering_is_deterministic() {
        let scene = box_scene(-8.0);
        let a = render(&scene, &Camera::new(), 80, 45);
        let b = render(&scene, &Camera::new(), 80, 45);
        assert_eq!(a.frame, b.frame);
        assert_eq!(a.depth, b.depth);
    }

    #[test]
    fn near_surface_has_more_detail_than_far() {
        // one long textured wall receding from the camera: variance of the
        // near half must exceed the far half (mipmap premise, §III-B)
        let wall = Mesh::cuboid(vec3(-4.0, -2.0, -120.0), vec3(-2.0, 2.0, -2.0), 40.0);
        let scene = Scene::new().with(Object::world(
            wall,
            ProceduralTexture::Checker {
                a: [240.0, 240.0, 240.0],
                b: [15.0, 15.0, 15.0],
                scale: 2.0,
            },
        ));
        let cam = Camera {
            yaw: 0.25,
            ..Camera::new()
        };
        let out = render(&scene, &cam, 160, 90);
        let y = out.frame.y();
        // group covered pixels by depth and compare local gradient energy
        let mut near = (0.0f64, 0usize);
        let mut far = (0.0f64, 0usize);
        for yy in 1..89 {
            for xx in 1..159 {
                let d = out.depth.get(xx, yy);
                if d >= 1.0 || out.depth.get(xx + 1, yy) >= 1.0 || out.depth.get(xx, yy + 1) >= 1.0
                {
                    continue;
                }
                let gx = (y.get(xx + 1, yy) - y.get(xx, yy)).abs() as f64;
                let gy = (y.get(xx, yy + 1) - y.get(xx, yy)).abs() as f64;
                let g = gx + gy;
                if d < 0.015 {
                    near.0 += g;
                    near.1 += 1;
                } else if d > 0.04 {
                    far.0 += g;
                    far.1 += 1;
                }
            }
        }
        assert!(
            near.1 > 100 && far.1 > 100,
            "bins too small: {} / {}",
            near.1,
            far.1
        );
        let near_g = near.0 / near.1 as f64;
        let far_g = far.0 / far.1 as f64;
        assert!(near_g > far_g * 1.5, "near {near_g:.2} vs far {far_g:.2}");
    }

    #[test]
    fn partially_behind_camera_geometry_is_clipped_not_dropped() {
        // a ground strip passing under the camera: visible region ahead
        let ground = Mesh::ground(-1.5, 50.0, 10, 2.0);
        let scene = Scene::new().with(Object::world(
            ground,
            ProceduralTexture::Solid([100.0, 100.0, 100.0]),
        ));
        let out = render(&scene, &Camera::new(), 64, 48);
        // bottom rows should be covered by ground
        let covered = (0..64).filter(|&x| out.depth.get(x, 46) < 1.0).count();
        assert!(covered > 56, "covered {covered}");
    }

    #[test]
    fn depth_increases_with_distance_along_ground() {
        let ground = Mesh::ground(-1.5, 80.0, 16, 2.0);
        let scene = Scene::new().with(Object::world(
            ground,
            ProceduralTexture::Solid([90.0, 120.0, 90.0]),
        ));
        let out = render(&scene, &Camera::new(), 64, 64);
        // walking up the image from the bottom = farther ground
        let d_bottom = out.depth.get(32, 60);
        let d_mid = out.depth.get(32, 42);
        assert!(d_bottom < d_mid, "{d_bottom} vs {d_mid}");
    }
}

#[cfg(test)]
mod culling_tests {
    use super::*;
    use crate::math::vec3;
    use crate::mesh::Mesh;
    use crate::scene::Object;
    use crate::texture::ProceduralTexture;

    fn box_at(z: f32, x: f32) -> Object {
        Object::world(
            Mesh::cuboid(
                vec3(x - 1.0, -1.0, z - 1.0),
                vec3(x + 1.0, 1.0, z + 1.0),
                1.0,
            ),
            ProceduralTexture::Solid([200.0, 10.0, 10.0]),
        )
    }

    #[test]
    fn behind_camera_geometry_is_culled() {
        let scene = Scene::new().with(box_at(20.0, 0.0)); // behind (+z)
        let out = render(&scene, &Camera::new(), 32, 32);
        assert_eq!(out.stats.triangles_submitted, 12);
        assert_eq!(out.stats.triangles_culled, 12);
        assert_eq!(out.stats.triangles_rasterized, 0);
        assert_eq!(out.stats.pixels_shaded, 0);
    }

    #[test]
    fn far_lateral_geometry_is_culled() {
        let scene = Scene::new().with(box_at(-10.0, 500.0)); // way off to the right
        let out = render(&scene, &Camera::new(), 32, 32);
        assert_eq!(out.stats.triangles_culled, 12);
        assert_eq!(out.stats.pixels_shaded, 0);
    }

    #[test]
    fn visible_geometry_is_not_culled_and_shades_pixels() {
        let scene = Scene::new().with(box_at(-10.0, 0.0));
        let out = render(&scene, &Camera::new(), 64, 64);
        assert_eq!(out.stats.triangles_culled, 0);
        assert!(out.stats.triangles_rasterized >= 12);
        assert!(out.stats.pixels_shaded > 100);
    }

    #[test]
    fn culling_does_not_change_the_image() {
        // a scene mixing visible, lateral and behind-camera geometry must
        // produce pixels identical to what per-pixel coverage would give
        let scene = Scene::new()
            .with(box_at(-12.0, 0.0))
            .with(box_at(-12.0, 300.0))
            .with(box_at(15.0, 0.0));
        let visible_only = Scene::new().with(box_at(-12.0, 0.0));
        let a = render(&scene, &Camera::new(), 48, 48);
        let b = render(&visible_only, &Camera::new(), 48, 48);
        assert_eq!(a.frame, b.frame);
        assert_eq!(a.depth, b.depth);
        assert!(a.stats.triangles_culled >= 12);
    }

    #[test]
    fn game_scenes_cull_a_meaningful_fraction() {
        // scene generators scatter geometry all around; a moving camera
        // should leave a good share of it outside the frustum
        let w = crate::scenes::GameWorkload::new(crate::scenes::GameId::G2);
        let out = w.render_frame(0, 96, 54);
        let s = out.stats;
        assert_eq!(s.triangles_submitted, w.scene().triangle_count());
        assert!(
            s.triangles_culled * 10 >= s.triangles_submitted,
            "only {}/{} culled",
            s.triangles_culled,
            s.triangles_submitted
        );
    }
}

#[cfg(test)]
mod span_tests {
    use super::*;
    use crate::scenes::{GameId, GameWorkload};

    /// The per-pixel [`covers`] walk the chunked visibility pass replaced,
    /// kept verbatim as the bit-exact reference.
    fn visibility_row_reference(
        tris: &[PreparedTri<'_>],
        py: usize,
        depth: &mut [f32],
        winner: &mut [u32],
        range: DepthRange,
        span: impl Fn(&PreparedTri<'_>, usize) -> Span,
    ) -> usize {
        let sy = py as f32 + 0.5;
        let mut passed = 0usize;
        for (id, tri) in tris.iter().enumerate() {
            if py < tri.min_y || py > tri.max_y {
                continue;
            }
            let Some((x0, x1)) = span(tri, py) else {
                continue;
            };
            for (px, (d, w)) in (x0..=x1).zip(depth[x0..=x1].iter_mut().zip(&mut winner[x0..=x1])) {
                let Some((_, dist)) = covers(tri, px as f32 + 0.5, sy) else {
                    continue;
                };
                let d01 = ((dist - range.near) / range.span).clamp(0.0, 1.0);
                if d01 >= *d {
                    continue;
                }
                *d = d01;
                *w = id as u32;
                passed += 1;
            }
        }
        passed
    }

    #[test]
    fn visibility_rows_keep_the_edge_cases_of_covers() {
        // hand-made triangles the game scenes never produce: NaN and
        // infinite weights (which pass the coverage test, as in `covers`)
        // and a negative `1/w` (which fails it)
        let texture = crate::texture::ProceduralTexture::Solid([9.0; 3]);
        let vertex = |x: f32, y: f32, inv_w: f32| ScreenVertex {
            x,
            y,
            inv_w,
            u_over_w: 0.0,
            v_over_w: 0.0,
        };
        let tri = |sv: [ScreenVertex; 3], inv_area: f32| PreparedTri {
            sv,
            inv_area,
            min_x: 0,
            max_x: 70,
            min_y: 0,
            max_y: 5,
            in_guard_band: false,
            texture: TextureSampler::new(&texture),
            brightness: 1.0,
        };
        let plain = [
            vertex(0.0, 0.0, 0.5),
            vertex(0.0, 6.0, 0.4),
            vertex(70.0, 0.0, 0.3),
        ];
        let area = edge(0.0, 0.0, 0.0, 6.0, 70.0, 0.0);
        let tris = [
            tri(plain, 1.0 / area),
            tri([vertex(f32::NAN, 0.0, 0.5), plain[1], plain[2]], 1.0 / area),
            tri(plain, f32::INFINITY),
            tri(plain.map(|v| ScreenVertex { inv_w: -0.5, ..v }), 1.0 / area),
            tri(plain.map(|v| ScreenVertex { inv_w: 8.0, ..v }), 1.0 / area),
        ];
        let range = DepthRange {
            near: 0.1,
            span: 99.9,
        };
        let full_box = |tri: &PreparedTri<'_>, _: usize| Some((tri.min_x, tri.max_x));
        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3, 0, 4, 2, 1]] {
            let tris: Vec<PreparedTri<'_>> = order
                .iter()
                .map(|&i| tri(tris[i].sv, tris[i].inv_area))
                .collect();
            for py in 0..6 {
                let (mut depth, mut winner) = (vec![1.0f32; 71], vec![SKY; 71]);
                let (mut depth_ref, mut winner_ref) = (depth.clone(), winner.clone());
                let passed = visibility_row(&tris, py, &mut depth, &mut winner, range, full_box);
                let passed_ref = visibility_row_reference(
                    &tris,
                    py,
                    &mut depth_ref,
                    &mut winner_ref,
                    range,
                    full_box,
                );
                assert_eq!(
                    (passed, bits(&depth), winner),
                    (passed_ref, bits(&depth_ref), winner_ref),
                    "order {order:?} row {py}"
                );
            }
        }
    }

    #[test]
    fn visibility_rows_match_the_per_pixel_reference() {
        // every game at the comparison's 640x360 and the fleet's 256x144,
        // over both the analytic spans and the whole-box walk the
        // guard-band fallback uses
        let full_box = |tri: &PreparedTri<'_>, _: usize| Some((tri.min_x, tri.max_x));
        let mut fallbacks = 0;
        for (width, height) in [(640, 360), (256, 144)] {
            for id in GameId::ALL {
                let workload = GameWorkload::new(id);
                let camera = workload.path().camera_at(0);
                let (tris, _) = prepare(workload.scene(), &camera, width, height);
                fallbacks += tris.iter().filter(|t| !t.in_guard_band).count();
                let range = DepthRange {
                    near: camera.near,
                    span: camera.far - camera.near,
                };
                for py in 0..height {
                    for span in [
                        &row_span as &dyn Fn(&PreparedTri<'_>, usize) -> Span,
                        &full_box,
                    ] {
                        let (mut depth, mut winner) = (vec![1.0f32; width], vec![SKY; width]);
                        let (mut depth_ref, mut winner_ref) = (depth.clone(), winner.clone());
                        let passed =
                            visibility_row(&tris, py, &mut depth, &mut winner, range, span);
                        let passed_ref = visibility_row_reference(
                            &tris,
                            py,
                            &mut depth_ref,
                            &mut winner_ref,
                            range,
                            span,
                        );
                        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            (passed, bits(&depth), winner),
                            (passed_ref, bits(&depth_ref), winner_ref),
                            "{id:?} {width}x{height} row {py}"
                        );
                    }
                }
            }
        }
        assert!(
            fallbacks > 0,
            "no triangle exercised the guard-band fallback"
        );
    }

    #[test]
    fn row_spans_keep_every_covered_pixel_and_the_depth_result() {
        // frame 0 of every game at 640x360: the span walk must pass exactly
        // the pixels the full bounding-box walk passes
        let (width, height) = (640, 360);
        let full_box = |tri: &PreparedTri<'_>, _: usize| Some((tri.min_x, tri.max_x));
        let (mut fallbacks, mut span_px, mut box_px) = (0usize, 0usize, 0usize);
        for id in GameId::ALL {
            let workload = GameWorkload::new(id);
            let camera = workload.path().camera_at(0);
            let (tris, _) = prepare(workload.scene(), &camera, width, height);
            fallbacks += tris.iter().filter(|t| !t.in_guard_band).count();
            for tri in &tris {
                for py in tri.min_y..=tri.max_y {
                    let sy = py as f32 + 0.5;
                    let span = row_span(tri, py);
                    for px in tri.min_x..=tri.max_x {
                        if covers(tri, px as f32 + 0.5, sy).is_some() {
                            let (x0, x1) = span.expect("a covered row has a span");
                            assert!((x0..=x1).contains(&px), "{id:?}: ({px},{py}) outside span");
                        }
                    }
                    span_px += span.map_or(0, |(x0, x1)| x1 - x0 + 1);
                    box_px += tri.max_x - tri.min_x + 1;
                }
            }
            let range = DepthRange {
                near: camera.near,
                span: camera.far - camera.near,
            };
            for py in 0..height {
                let walk = |span: &dyn Fn(&PreparedTri<'_>, usize) -> Span| {
                    let (mut depth, mut winner) = (vec![1.0f32; width], vec![SKY; width]);
                    let passed = visibility_row(&tris, py, &mut depth, &mut winner, range, span);
                    let depth: Vec<u32> = depth.iter().map(|d| d.to_bits()).collect();
                    (passed, depth, winner)
                };
                assert_eq!(walk(&row_span), walk(&full_box), "{id:?} row {py}");
            }
        }
        assert!(
            fallbacks > 0,
            "no triangle exercised the guard-band fallback"
        );
        assert!(
            span_px * 10 < box_px * 9,
            "spans {span_px} vs boxes {box_px}"
        );
    }
}
