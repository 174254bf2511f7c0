//! The paper's §VI future-work prototype (Fig. 15): an RoI-guided
//! **SR-integrated video decoder**.
//!
//! Key ideas reproduced here:
//!
//! * the RoI-based upscale engine runs only for **reference** frames, whose
//!   upscaled result is cached in the decoder buffer;
//! * **non-reference** frames *bypass* the upscale engine (the "frame
//!   dispatcher" routes them by frame type): the decoder reconstructs them
//!   directly in high-resolution space from the cached reference, upscaled
//!   motion vectors and **RoI-guided residual interpolation** — bicubic
//!   inside the RoI for quality, bilinear outside for speed;
//! * reconstruction happens in (modeled) fixed-function decoder hardware,
//!   skipping the NPU entirely for 59 of every 60 frames — the source of
//!   the paper's projected "up to 50%" additional energy saving.

use crate::client::GameStreamClient;
use crate::GssError;
use gss_codec::{compensate, DecodeDetail, Decoder, EncodedFrame, FrameType, MB_SIZE};
use gss_frame::{Frame, Rect};
use gss_platform::DeviceProfile;
use gss_sr::{InterpKernel, InterpUpscaler, Upscaler};

/// One frame out of the SR-integrated decoder.
#[derive(Debug, Clone)]
pub struct ExtOutput {
    /// The high-resolution frame.
    pub frame: Frame,
    /// Reference or non-reference.
    pub frame_type: FrameType,
    /// `true` when the frame dispatcher bypassed the upscale engine
    /// (non-reference path).
    pub bypassed_upscale_engine: bool,
}

/// The prototype SR-integrated decoder.
///
/// ```
/// use gamestreamsr::decoder_ext::SrIntegratedDecoder;
/// use gss_codec::{Encoder, EncoderConfig};
/// use gss_frame::{Frame, Rect};
///
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut dec = SrIntegratedDecoder::new(2);
/// let packet = enc.encode(&Frame::filled(64, 32, [90.0, 128.0, 128.0])).unwrap();
/// let out = dec.process(&packet, Rect::new(16, 8, 24, 16)).unwrap();
/// assert!(!out.bypassed_upscale_engine); // keyframes go through the engine
/// ```
#[derive(Debug)]
pub struct SrIntegratedDecoder {
    decoder: Decoder,
    upscale_engine: GameStreamClient,
    bilinear: InterpUpscaler,
    bicubic: InterpUpscaler,
    scale: usize,
    cached_reference_hr: Option<Frame>,
}

impl SrIntegratedDecoder {
    /// Creates the prototype for an upscale factor.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is zero.
    pub fn new(scale: usize) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        SrIntegratedDecoder {
            decoder: Decoder::new(),
            upscale_engine: GameStreamClient::new(scale),
            bilinear: InterpUpscaler::new(InterpKernel::Bilinear, scale),
            bicubic: InterpUpscaler::new(InterpKernel::Bicubic, scale),
            scale,
            cached_reference_hr: None,
        }
    }

    /// Processes the next packet with its RoI coordinates.
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn process(&mut self, packet: &EncodedFrame, roi: Rect) -> Result<ExtOutput, GssError> {
        let decoded = self.decoder.decode(packet)?;
        match decoded.detail {
            DecodeDetail::Intra => {
                // dispatcher → upscale engine (step-1), result cached (step-2)
                let out = self.upscale_engine.upscale(&decoded.frame, roi);
                self.cached_reference_hr = Some(out.frame.clone());
                Ok(ExtOutput {
                    frame: out.frame,
                    frame_type: FrameType::Intra,
                    bypassed_upscale_engine: false,
                })
            }
            DecodeDetail::Inter { motion, residual } => {
                let reference = self
                    .cached_reference_hr
                    .as_ref()
                    .ok_or(gss_codec::CodecError::MissingReference)?;
                // step-3: RoI-guided residual interpolation
                let residual = residual.into_frame();
                let (lw, lh) = residual.size();
                let roi_lr = roi.clamp_to(lw, lh);
                let residual_bilinear = self.bilinear.upscale(&residual);
                let residual_roi_bicubic = self.bicubic.upscale(&residual.crop(roi_lr));
                let mut residual_hr = residual_bilinear;
                residual_hr.paste(
                    &residual_roi_bicubic,
                    roi_lr.x * self.scale,
                    roi_lr.y * self.scale,
                );
                // step-4: reconstruct in HR space from the cached reference
                let motion_hr = motion.scaled(self.scale);
                let block_hr = MB_SIZE * self.scale;
                let rec = |refp: &gss_frame::Plane<f32>, resp: &gss_frame::Plane<f32>| {
                    compensate(refp, &motion_hr, block_hr)
                        .zip_map(resp, |p, r| (p + r).clamp(0.0, 255.0))
                        .expect("hr planes share dimensions")
                };
                let frame = Frame::from_planes(
                    rec(reference.y(), residual_hr.y()),
                    rec(reference.cb(), residual_hr.cb()),
                    rec(reference.cr(), residual_hr.cr()),
                )
                .expect("planes share dimensions");
                self.cached_reference_hr = Some(frame.clone());
                Ok(ExtOutput {
                    frame,
                    frame_type: FrameType::Inter,
                    bypassed_upscale_engine: true,
                })
            }
        }
    }
}

/// Modeled per-GOP energy of the upscale+decode stages, in millijoules,
/// comparing this work's client against the SR-integrated decoder
/// prototype. `bytes_per_frame` sets the network share; `roi_side` is the
/// deployment-scale RoI side.
pub fn gop_energy_projection(
    device: &DeviceProfile,
    gop_size: usize,
    roi_side: usize,
    bytes_per_frame: usize,
) -> EnergyProjection {
    use crate::mtp::{ours_upscale, FULL_HR, FULL_LR};
    let upscale = ours_upscale(device, roi_side);
    let lr_px = FULL_LR.pixels();
    let hr_px = FULL_HR.pixels();

    // per-frame energy of this work's client (Fig. 9 pipeline)
    let ours_frame = device.npu_w * upscale.npu_ms
        + device.gpu_w * (upscale.gpu_ms + upscale.merge_ms)
        + device.hw_decoder_w * device.hw_decode_ms(lr_px);
    // prototype: reference frames keep the full pipeline; non-reference
    // frames run entirely in the (extended) fixed-function decoder, which
    // performs HR motion compensation + RoI-guided residual interpolation
    // at roughly half the per-pixel cost of a full decode
    let ext_ref_frame = ours_frame;
    let ext_nonref_frame =
        device.hw_decoder_w * (device.hw_decode_ms(lr_px) + 0.5 * device.hw_decode_ms(hr_px));

    let shared = (device.net_uj_per_byte * bytes_per_frame as f64 / 1000.0
        + device.display_mj_per_frame)
        * gop_size as f64;
    let n_nonref = gop_size.saturating_sub(1) as f64;
    EnergyProjection {
        ours_gop_mj: ours_frame * gop_size as f64 + shared,
        ext_gop_mj: ext_ref_frame + ext_nonref_frame * n_nonref + shared,
    }
}

/// Per-GOP energy of the current client versus the prototype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyProjection {
    /// This work's client, mJ per GOP.
    pub ours_gop_mj: f64,
    /// SR-integrated decoder prototype, mJ per GOP.
    pub ext_gop_mj: f64,
}

impl EnergyProjection {
    /// Fractional saving of the prototype over this work's client.
    pub fn savings(&self) -> f64 {
        1.0 - self.ext_gop_mj / self.ours_gop_mj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_codec::{Encoder, EncoderConfig};
    use gss_frame::Plane;
    use gss_metrics::psnr;
    use gss_platform::REALTIME_BUDGET_MS;

    fn moving_scene(w: usize, h: usize, t: f32) -> Frame {
        Frame::from_planes(
            Plane::from_fn(w, h, |x, y| {
                let fx = x as f32 + t * 1.2;
                let stripes = if ((fx / 7.0).floor() as i32 + (y / 6) as i32) % 2 == 0 {
                    75.0
                } else {
                    180.0
                };
                (stripes + 15.0 * ((fx * 0.5).sin() * (y as f32 * 0.4).cos())).clamp(0.0, 255.0)
            }),
            Plane::filled(w, h, 120.0),
            Plane::filled(w, h, 132.0),
        )
        .unwrap()
    }

    #[test]
    fn dispatcher_routes_by_frame_type() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 3,
            ..EncoderConfig::default()
        });
        let mut dec = SrIntegratedDecoder::new(2);
        let roi = Rect::new(16, 12, 24, 24);
        let mut bypassed = Vec::new();
        for t in 0..6 {
            let lr = moving_scene(64, 48, t as f32);
            let out = dec.process(&enc.encode(&lr).unwrap(), roi).unwrap();
            bypassed.push(out.bypassed_upscale_engine);
        }
        assert_eq!(bypassed, vec![false, true, true, false, true, true]);
    }

    #[test]
    fn quality_tracks_the_stream_within_a_gop() {
        let mut enc = Encoder::new(EncoderConfig {
            gop_size: 6,
            ..EncoderConfig::default()
        });
        let mut dec = SrIntegratedDecoder::new(2);
        let roi = Rect::new(20, 16, 28, 28);
        for t in 0..6 {
            let hr = moving_scene(128, 96, t as f32);
            let lr = hr.downsample_box(2);
            let out = dec.process(&enc.encode(&lr).unwrap(), roi).unwrap();
            let p = psnr(&hr, &out.frame).unwrap();
            assert!(p > 20.0, "frame {t}: psnr {p:.2}");
            assert_eq!(out.frame.size(), (128, 96));
        }
    }

    #[test]
    fn projected_savings_reach_about_half() {
        // the paper projects "as high as 50%" extra energy saving
        let s8 = gss_platform::DeviceProfile::s8_tab();
        let side = s8.max_realtime_roi_side(REALTIME_BUDGET_MS);
        let proj = gop_energy_projection(&s8, 60, side, 12_000);
        assert!(
            (0.35..0.60).contains(&proj.savings()),
            "savings {:.3}",
            proj.savings()
        );
    }

    #[test]
    fn savings_grow_with_gop_length() {
        let d = gss_platform::DeviceProfile::pixel7_pro();
        let side = d.max_realtime_roi_side(REALTIME_BUDGET_MS);
        let short = gop_energy_projection(&d, 10, side, 12_000).savings();
        let long = gop_energy_projection(&d, 120, side, 12_000).savings();
        assert!(long > short);
    }

    #[test]
    fn inter_before_intra_errors() {
        let mut enc = Encoder::new(EncoderConfig::default());
        enc.encode(&moving_scene(64, 48, 0.0)).unwrap();
        let inter = enc.encode(&moving_scene(64, 48, 1.0)).unwrap();
        let mut dec = SrIntegratedDecoder::new(2);
        assert!(dec.process(&inter, Rect::new(0, 0, 16, 16)).is_err());
    }
}
