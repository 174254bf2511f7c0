//! The traced replay of one session's data path.
//!
//! `run_session` is one function; the benchmark cannot put spans inside
//! it. Instead it replays the session's data path by calling each layer's
//! public function in the same order — render, downsample, RoI detect,
//! encode, then decode and the RoI-assisted upscale (ours) or the NEMO
//! client, then the three quality metrics — with a span around each call.
//! The replay is checked against `run_session`'s own frame records: bytes
//! and PSNR must match exactly, or its layer numbers describe a different
//! program.

use crate::spans::Tracer;
use gamestreamsr::mtp::FULL_LR;
use gamestreamsr::roi::{plan_roi_window, RoiDetector};
use gamestreamsr::session::{FrameRecord, Pipeline, SessionConfig};
use gamestreamsr::{GameStreamClient, NemoClient};
use gss_codec::{Decoder, EncodedFrame, Encoder, EncoderConfig, FrameType};
use gss_frame::{DepthMap, Frame, Rect};
use gss_metrics::{perceptual_distance, psnr, region_weighted_psnr};
use gss_platform::plane_ops::downsample_box;
use gss_render::GameWorkload;
use gss_sr::{InterpKernel, InterpUpscaler, ModelTier, NeuralSr, Upscaler};

/// Deployment-scale rescaling of canvas byte counts, as the session
/// applies it (`SessionConfig::canvas_to_full`).
pub fn canvas_to_full(lr_size: (usize, usize)) -> f64 {
    let ratio = FULL_LR.pixels() as f64 / (lr_size.0 * lr_size.1) as f64;
    ratio.powf(0.835)
}

/// The server's RoI window on the canvas, as `run_session` negotiates it
/// for a device whose capabilities cover the whole offer, rounded up to
/// even extents like `GameStreamServer::new` does.
pub fn roi_window(config: &SessionConfig) -> (usize, usize) {
    let plan = plan_roi_window(
        &config.device,
        config.scale,
        FULL_LR.width(),
        FULL_LR.height(),
    );
    let (w, h) = plan.scaled_to_canvas(config.lr_size.0, FULL_LR.width());
    (w.next_multiple_of(2), h.next_multiple_of(2))
}

/// One server packet of the replay.
pub struct Packet {
    pub encoded: EncodedFrame,
    pub roi: Rect,
    pub ground_truth_hr: Frame,
}

/// `GameStreamServer::next_frame` taken apart into its layer calls.
pub struct ReplayServer {
    workload: GameWorkload,
    detector: RoiDetector,
    encoder: Encoder,
    window: (usize, usize),
    lr_size: (usize, usize),
    scale: usize,
    time_stride: usize,
    index: usize,
}

impl ReplayServer {
    /// Mirrors the server `run_session` builds for `config` (no rate
    /// control, no tracker).
    pub fn new(config: &SessionConfig) -> Self {
        ReplayServer {
            workload: GameWorkload::new(config.game),
            detector: RoiDetector::new(config.detector),
            encoder: Encoder::new(EncoderConfig {
                quality: config.encoder_quality,
                gop_size: config.gop_size,
                ..EncoderConfig::default()
            }),
            window: roi_window(config),
            lr_size: config.lr_size,
            scale: config.scale,
            time_stride: (FULL_LR.width() / config.lr_size.0.max(1)).max(1),
            index: 0,
        }
    }

    pub fn next(&mut self, t: &mut Tracer) -> Result<Packet, String> {
        let (lw, lh) = self.lr_size;
        let s = self.scale;
        let frame_t = self.index * self.time_stride;
        self.index += 1;
        let native = t.span("render", |_| {
            self.workload.render_frame(frame_t, lw * s, lh * s)
        });
        let (lr, depth_lr) = t.span("frame.downsample", |_| {
            let [y, cb, cr] = native.frame.planes();
            let lr = Frame::from_planes(
                downsample_box(y, s),
                downsample_box(cb, s),
                downsample_box(cr, s),
            )
            .expect("downsampled planes share one size");
            (
                lr,
                DepthMap::from_plane(downsample_box(native.depth.plane(), s)),
            )
        });
        let detected = t.span("roi.detect", |_| {
            self.detector.detect(&depth_lr, self.window).roi
        });
        let roi = Rect::new(
            detected.x & !1,
            detected.y & !1,
            detected.width,
            detected.height,
        );
        let encoded = t
            .span_named(
                |_| self.encoder.encode(&lr),
                |r| match r {
                    Ok(e) if e.frame_type == FrameType::Intra => "codec.encode_intra",
                    _ => "codec.encode_inter",
                },
            )
            .map_err(|e| format!("encode: {e}"))?;
        Ok(Packet {
            encoded,
            roi,
            ground_truth_hr: native.frame,
        })
    }
}

/// What a replayed frame produced, for the fidelity check.
pub struct ReplayFrame {
    pub bytes: usize,
    pub canvas_bytes: usize,
    pub psnr_db: f64,
}

/// Replays one session of `pipeline` under `config`. Frame ids are
/// `frame_base + index`. With `standalone_sr`, each ours frame's two
/// upscale legs are also timed alone on the same inputs, outside the
/// frame span (inside `upscale` they run on two threads at once).
pub fn replay_session(
    config: &SessionConfig,
    pipeline: Pipeline,
    t: &mut Tracer,
    frame_base: u64,
    standalone_sr: bool,
) -> Result<Vec<ReplayFrame>, String> {
    let mut server = ReplayServer::new(config);
    let mut decoder = Decoder::new();
    let client = GameStreamClient::new(config.scale);
    let mut nemo = NemoClient::new(config.scale);
    let patch_sr = NeuralSr::new(ModelTier::Edsr64.proxy_config(config.scale));
    let bilinear = InterpUpscaler::new(InterpKernel::Bilinear, config.scale);
    let byte_scale = canvas_to_full(config.lr_size);
    let mut out = Vec::with_capacity(config.frames);
    for i in 0..config.frames {
        t.set_frame(frame_base + i as u64);
        let (frame, decoded_roi) = t.span("frame", |t| -> Result<_, String> {
            let p = server.next(t)?;
            let (shown, decoded_roi) = match pipeline {
                Pipeline::GameStreamSr => {
                    let d = t
                        .span("codec.decode", |_| decoder.decode(&p.encoded))
                        .map_err(|e| format!("decode: {e}"))?;
                    let shown = t.span("client.upscale", |_| client.upscale(&d.frame, p.roi));
                    (shown.frame, Some((d.frame, p.roi)))
                }
                Pipeline::Nemo => {
                    let n = t
                        .span_named(
                            |_| nemo.process(&p.encoded),
                            |r| match r {
                                Ok(o) if o.frame_type == FrameType::Intra => "nemo.ref",
                                _ => "nemo.nonref",
                            },
                        )
                        .map_err(|e| format!("nemo: {e}"))?;
                    (n.frame, None)
                }
            };
            let gt = &p.ground_truth_hr;
            let (hw, hh) = gt.size();
            let roi_hr = p.roi.scaled(config.scale).aligned_even().clamp_to(hw, hh);
            let psnr_db = t
                .span("metrics.psnr", |_| psnr(gt, &shown))
                .map_err(|e| format!("psnr: {e}"))?;
            t.span("metrics.foveated", |_| {
                region_weighted_psnr(gt, &shown, roi_hr, 4.0)
            })
            .map_err(|e| format!("foveated psnr: {e}"))?;
            t.span("metrics.perceptual", |_| perceptual_distance(gt, &shown))
                .map_err(|e| format!("perceptual: {e}"))?;
            let canvas_bytes = p.encoded.size_bytes();
            Ok((
                ReplayFrame {
                    bytes: (canvas_bytes as f64 * byte_scale) as usize,
                    canvas_bytes,
                    psnr_db,
                },
                decoded_roi,
            ))
        })?;
        if let (true, Some((lr, roi))) = (standalone_sr, decoded_roi) {
            let (w, h) = lr.size();
            let crop = lr.crop(roi.clamp_to(w, h));
            std::hint::black_box(t.span("sr.patch", |_| patch_sr.upscale(&crop)));
            std::hint::black_box(t.span("sr.bilinear", |_| bilinear.upscale(&lr)));
        }
        out.push(frame);
    }
    Ok(out)
}

/// Compares a replay with the session's records: encoded bytes and PSNR
/// must be identical frame for frame.
pub fn check_fidelity(records: &[FrameRecord], replay: &[ReplayFrame]) -> Result<(), String> {
    if records.len() != replay.len() {
        return Err(format!(
            "replay has {} frames, session {}",
            replay.len(),
            records.len()
        ));
    }
    for (r, p) in records.iter().zip(replay) {
        let psnr_ok = r.psnr_db.map(f64::to_bits) == Some(p.psnr_db.to_bits());
        if r.bytes != p.bytes || !psnr_ok {
            return Err(format!(
                "frame {}: session {} B / {:?} dB, replay {} B / {} dB",
                r.index, r.bytes, r.psnr_db, p.bytes, p.psnr_db
            ));
        }
    }
    Ok(())
}
