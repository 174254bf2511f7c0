//! End-to-end streaming session simulation — the engine behind every
//! number in the paper's evaluation section.
//!
//! A session runs one game on one device over one link with one of the two
//! pipelines ([`Pipeline::GameStreamSr`] or [`Pipeline::Nemo`]) and records,
//! per frame: the upscaling critical path, the full MTP breakdown, bytes on
//! the wire, energy per stage, and (optionally) PSNR/perceptual quality
//! against the native render.
//!
//! # Canvas scaling
//!
//! The *data path* (render → codec → SR → metrics) may run on a reduced
//! canvas for tractability (e.g. 640×360 → 1280×720 instead of
//! 1280×720 → 2560×1440); quality trends are unaffected because both
//! pipelines see the same canvas. The *timing and energy models* always
//! evaluate at the paper's deployment scale (720p → 1440p): pixel counts
//! and byte volumes are rescaled to full scale before entering the platform
//! models, so latency/energy figures are canvas-independent.

use crate::client::GameStreamClient;
use crate::degrade::{
    DegradationController, LadderRung, LadderStep, NackManager, NackSignal, LADDER,
};
use crate::mtp::{self, MtpBreakdown, FULL_LR};
use crate::negotiate::negotiate;
use crate::nemo::NemoClient;
use crate::recovery::{RecoveryConfig, RecoveryEvent, RecoveryMachine, RecoverySummary};
use crate::roi::{plan_roi_window, RoiDetectorConfig};
use crate::server::{GameStreamServer, ServerConfig};
use crate::GssError;
use gss_codec::{EncoderConfig, FrameType};
use gss_frame::Frame;
use gss_metrics::{perceptual_distance, psnr, region_weighted_psnr};
use gss_net::{DropCause, FaultPlan, Link, LinkProfile};
use gss_platform::{
    DeviceProfile, EnergyBreakdown, EnergyMeter, Rail, ServerModel, Stage, REALTIME_BUDGET_MS,
};
use gss_render::GameId;
use gss_telemetry::{Counter, Gauge, InstantKind, Level, Recorder, SinkHandle, TelemetrySummary};
use serde::{Deserialize, Serialize};

/// Which client pipeline a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pipeline {
    /// This paper's RoI-assisted design.
    GameStreamSr,
    /// The NEMO baseline (SOTA).
    Nemo,
}

impl Pipeline {
    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            Pipeline::GameStreamSr => "GameStreamSR",
            Pipeline::Nemo => "NEMO (SOTA)",
        }
    }
}

/// Full configuration of one simulated session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Game workload.
    pub game: GameId,
    /// Client device model.
    pub device: DeviceProfile,
    /// Downlink profile.
    pub link: LinkProfile,
    /// Link RNG seed (same seed ⇒ same channel for both pipelines).
    pub link_seed: u64,
    /// Frames to stream.
    pub frames: usize,
    /// GOP length (keyframe interval in frames).
    pub gop_size: usize,
    /// Low-resolution canvas the data path runs on (even dimensions).
    pub lr_size: (usize, usize),
    /// Upscale factor.
    pub scale: usize,
    /// Compute PSNR/perceptual metrics per frame (the expensive part).
    pub evaluate_quality: bool,
    /// Intra quality of the codec.
    pub encoder_quality: u8,
    /// Server timing model.
    pub server_model: ServerModel,
    /// RoI detector settings (GameStreamSR only).
    pub detector: RoiDetectorConfig,
    /// Optional temporal RoI stabilization (extension; `None` = raw
    /// per-frame detections, as in the paper).
    pub tracker: Option<crate::roi::TrackerConfig>,
    /// Optional closed-loop bitrate control (extension; `None` = fixed
    /// quantizers). The target is in *deployment-scale* bytes per frame
    /// (e.g. from [`gss_codec::RateControlConfig::for_bitrate_mbps`]); the
    /// session rescales it to the evaluation canvas internally.
    pub rate_control: Option<gss_codec::RateControlConfig>,
    /// Model packet loss end-to-end (extension): dropped frames are not
    /// decoded, the client freezes the last displayed frame, a NACK forces
    /// the server to code the next frame intra, and decoding resumes at
    /// that keyframe. `false` (default) assumes lossless delivery, like the
    /// paper's evaluation.
    pub loss_recovery: bool,
    /// Optional sink receiving the per-frame telemetry event stream
    /// ([`gss_telemetry::Event`]). Aggregates (stage percentiles, counters,
    /// deadline misses) are collected either way and land on
    /// [`SessionReport::telemetry`]; the sink only adds the raw events.
    pub telemetry: Option<SinkHandle>,
    /// Scripted fault timeline (extension): bandwidth collapses, outages
    /// and jitter spikes shape the link; NPU thermal-throttle ramps slow
    /// the SR pass; decoder stalls add decode latency. All deterministic —
    /// the same seed and plan replay the same session. The default empty
    /// plan reproduces the paper's fault-free channel.
    pub fault_plan: FaultPlan,
    /// Adaptive resilience controller (extension; shapes the GameStreamSR
    /// pipeline only): a rolling window of deadline misses and drops walks
    /// the degradation ladder ([`crate::degrade::LADDER`]) — shrinking the
    /// RoI window, swapping in cheaper SR tiers, cutting the rate target —
    /// and climbs back with hysteresis. Its NACK timing also paces
    /// keyframe re-requests under loss recovery. `None` disables
    /// adaptation (the paper's fixed configuration).
    pub degradation: Option<crate::degrade::DegradationConfig>,
    /// Worker-pool capacity, captured once at construction and bound to
    /// the stepping thread for the whole run. Threading the handle through
    /// the config (instead of reading the process-wide knob at every use
    /// site) keeps concurrent sessions in one process from clobbering each
    /// other via [`gss_platform::pool::set_workers`].
    pub pool: gss_platform::pool::PoolHandle,
}

impl SessionConfig {
    /// A quality-evaluating session on the reduced 640×360 canvas —
    /// the default experimental configuration.
    pub fn new(game: GameId, device: DeviceProfile) -> Self {
        SessionConfig {
            game,
            device,
            link: LinkProfile::wifi(),
            link_seed: 0x6a6e,
            frames: 60,
            gop_size: 60,
            lr_size: (640, 360),
            scale: 2,
            evaluate_quality: true,
            encoder_quality: 75,
            server_model: ServerModel::default(),
            detector: RoiDetectorConfig::default(),
            tracker: None,
            rate_control: None,
            loss_recovery: false,
            telemetry: None,
            fault_plan: FaultPlan::default(),
            degradation: None,
            pool: gss_platform::pool::PoolHandle::current(),
        }
    }

    /// Disables quality metrics (latency/energy experiments).
    pub fn without_quality(mut self) -> Self {
        self.evaluate_quality = false;
        self
    }

    /// Sets the frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Streams telemetry events into `sink` (aggregation is always on;
    /// this adds the raw per-frame event stream, e.g. for a JSONL trace).
    pub fn with_telemetry(mut self, sink: SinkHandle) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Attaches a tail-sampling trace collector
    /// ([`gss_telemetry::SamplingTraceSink`]) under `policy`, fanning out
    /// alongside any sink already configured, and returns a shared handle
    /// for exporting the retained trace after the run.
    pub fn with_sampled_trace(
        mut self,
        policy: gss_telemetry::SamplingPolicy,
    ) -> (Self, gss_telemetry::SamplingTraceSink) {
        let sampler = gss_telemetry::SamplingTraceSink::new(policy);
        let handle = SinkHandle::new(sampler.clone());
        self.telemetry = Some(match self.telemetry.take() {
            Some(existing) => SinkHandle::fanout(vec![existing, handle]),
            None => handle,
        });
        (self, sampler)
    }

    /// Injects a scripted fault timeline into the session.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables the adaptive degradation controller — and loss recovery,
    /// whose NACK pacing the controller's configuration governs.
    pub fn with_degradation(mut self, degradation: crate::degrade::DegradationConfig) -> Self {
        self.degradation = Some(degradation);
        self.loss_recovery = true;
        self
    }

    /// Factor rescaling coded byte counts measured on the canvas to
    /// deployment scale. Coded size grows *sublinearly* with resolution at
    /// fixed quality (detail density falls as resolution rises); the
    /// exponent 0.835 was fitted to this codec's measured bits-per-pixel
    /// across canvases from 128x72 to 1280x720 (see `examples/` history in
    /// DESIGN.md), making byte volumes canvas-independent to within ~5%.
    fn canvas_to_full(&self) -> f64 {
        let ratio = FULL_LR.pixels() as f64 / (self.lr_size.0 * self.lr_size.1) as f64;
        ratio.powf(0.835)
    }
}

/// Per-frame measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Frame index.
    pub index: usize,
    /// Reference (intra) or non-reference (inter).
    pub frame_type: FrameType,
    /// Upscaling-stage critical path, ms (deployment scale). For the
    /// GameStreamSR pipeline the NPU and GPU legs overlap, so this is
    /// `max(upscale_npu_ms, upscale_gpu_ms) + upscale_merge_ms`.
    pub upscale_ms: f64,
    /// NPU leg of the upscale stage (patch SR), ms. Runs concurrently
    /// with the GPU leg; zero on CPU-only paths and frozen frames.
    pub upscale_npu_ms: f64,
    /// GPU leg of the upscale stage (full-frame interpolation), ms.
    pub upscale_gpu_ms: f64,
    /// Patch-merge cost paid after the slower leg completes, ms.
    pub upscale_merge_ms: f64,
    /// Decode latency, ms (deployment scale).
    pub decode_ms: f64,
    /// Full MTP breakdown.
    pub mtp: MtpBreakdown,
    /// Transmitted bytes (deployment scale).
    pub bytes: usize,
    /// Whether the link dropped the frame (latency uses the queue-limit
    /// bound; with [`SessionConfig::loss_recovery`] the frame is also not
    /// decoded).
    pub dropped: bool,
    /// Why the link dropped the frame (`None` when delivered): queue
    /// overflow under congestion, or a scripted outage window.
    pub drop_cause: Option<DropCause>,
    /// Degradation-ladder rung in effect while this frame was processed
    /// (0 = full quality; always 0 without a controller).
    pub rung: usize,
    /// Whether the client displayed a stale (frozen) frame because of loss
    /// recovery.
    pub frozen: bool,
    /// Whether the upscaling stage fit the 16.66 ms real-time budget — the
    /// per-frame deadline a 60 FPS pipeline must hold (end-to-end MTP is
    /// longer but pipelined). Frozen frames consume no upscale time and
    /// trivially meet it.
    pub deadline_met: bool,
    /// Luma PSNR against the native render, dB (when evaluated).
    pub psnr_db: Option<f64>,
    /// Foveated PSNR: squared error inside the detected RoI weighted 4x
    /// (quality where the player looks; when evaluated).
    pub foveated_psnr_db: Option<f64>,
    /// Perceptual distance against the native render (when evaluated).
    pub perceptual: Option<f64>,
}

/// A completed session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Which pipeline ran.
    pub pipeline: Pipeline,
    /// Game workload.
    pub game: GameId,
    /// Device name.
    pub device: String,
    /// Per-frame records.
    pub frames: Vec<FrameRecord>,
    /// Session energy breakdown (deployment scale).
    pub energy: EnergyBreakdown,
    /// Aggregated telemetry: per-stage latency percentiles, counters,
    /// gauges and deadline-miss accounting for the whole session.
    pub telemetry: TelemetrySummary,
    /// Root-cause attribution of every deadline miss and frozen stall,
    /// replayed from the session's causal trace.
    pub attribution: gss_telemetry::SessionAttribution,
    /// Service-level-objective standings: breaches and worst burn rates
    /// for the standard objectives ([`gss_telemetry::SloEngine::standard`]).
    pub slo: gss_telemetry::SloSummary,
    /// Decoder-crash recovery history (`None` when the fault plan scripts
    /// no crash — the recovery machine is only armed when needed, so
    /// crash-free sessions replay byte-identically to earlier builds).
    pub recovery: Option<RecoverySummary>,
}

impl SessionReport {
    fn frames_of(&self, ty: FrameType) -> impl Iterator<Item = &FrameRecord> {
        self.frames.iter().filter(move |f| f.frame_type == ty)
    }

    /// Mean upscaling latency for a frame class, ms.
    pub fn mean_upscale_ms(&self, ty: FrameType) -> f64 {
        mean(self.frames_of(ty).map(|f| f.upscale_ms))
    }

    /// Mean upscaling latency over all frames (GOP average), ms.
    pub fn mean_upscale_ms_all(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.upscale_ms))
    }

    /// Output frame rate implied by the upscaling stage for a frame class.
    pub fn upscale_fps(&self, ty: FrameType) -> f64 {
        1000.0 / self.mean_upscale_ms(ty)
    }

    /// Mean end-to-end MTP latency for a frame class, ms.
    pub fn mean_mtp_ms(&self, ty: FrameType) -> f64 {
        mean(self.frames_of(ty).map(|f| f.mtp.total_ms()))
    }

    /// Maximum MTP latency across all frames, ms.
    pub fn max_mtp_ms(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.mtp.total_ms())
            .fold(0.0, f64::max)
    }

    /// Fraction of frames whose upscaling met the 16.66 ms budget.
    pub fn realtime_fraction(&self) -> f64 {
        let ok = self.frames.iter().filter(|f| f.deadline_met).count();
        ok as f64 / self.frames.len().max(1) as f64
    }

    /// Effective display rate: the 60 FPS source rate times the fraction
    /// of frames that met the real-time deadline — a frame that misses its
    /// slot is a repeat from the display's point of view.
    pub fn fps_effective(&self) -> f64 {
        60.0 * self.realtime_fraction()
    }

    /// Session mean PSNR (dB) when quality was evaluated.
    pub fn mean_psnr_db(&self) -> Option<f64> {
        let vals: Vec<f64> = self.frames.iter().filter_map(|f| f.psnr_db).collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Session mean foveated PSNR (dB) when quality was evaluated.
    pub fn mean_foveated_psnr_db(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .frames
            .iter()
            .filter_map(|f| f.foveated_psnr_db)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Session mean perceptual distance when quality was evaluated.
    pub fn mean_perceptual(&self) -> Option<f64> {
        let vals: Vec<f64> = self.frames.iter().filter_map(|f| f.perceptual).collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.into_iter()))
        }
    }

    /// Per-frame PSNR series (NaN where not evaluated).
    pub fn psnr_series(&self) -> Vec<f64> {
        self.frames
            .iter()
            .map(|f| f.psnr_db.unwrap_or(f64::NAN))
            .collect()
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Mean stream bitrate in Mbps at 60 FPS.
    pub fn mean_bitrate_mbps(&self) -> f64 {
        let bytes_per_frame = self.total_bytes() as f64 / self.frames.len().max(1) as f64;
        bytes_per_frame * 8.0 * 60.0 / 1e6
    }

    /// Longest run of consecutive frozen frames — the worst stall a viewer
    /// sat through, in frames (÷60 for seconds).
    pub fn longest_frozen_run(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        for f in &self.frames {
            if f.frozen {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }

    /// Deepest degradation-ladder rung the session visited (0 = never
    /// degraded).
    pub fn max_rung(&self) -> usize {
        self.frames.iter().map(|f| f.rung).max().unwrap_or(0)
    }

    /// Frames dropped by the link for a given cause.
    pub fn drops_with_cause(&self, cause: DropCause) -> usize {
        self.frames
            .iter()
            .filter(|f| f.drop_cause == Some(cause))
            .count()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Applies one ladder rung's parameters to the live pipeline — the RoI
/// window shipped to the server, the client's SR tier and the encoder's
/// rate target — and returns the resulting (RoI side, SR cost ratio) pair
/// at deployment scale. Shared by the degradation controller's regular
/// steps, the negotiated capability clamp and the crash-recovery floor,
/// so every path renegotiates the pipeline identically.
fn apply_rung_params(
    rung: &LadderRung,
    config: &SessionConfig,
    base_side: usize,
    server: &mut GameStreamServer,
    ours_client: &mut GameStreamClient,
) -> (usize, f64) {
    let active_side = rung.roi_side(&config.device, base_side);
    let active_cost = rung.tier.map_or(1.0, |t| t.cost_ratio());
    ours_client.set_model_tier(rung.tier);
    server.set_rate_target_scale(rung.rate_scale);
    // the server keeps detecting an RoI (coordinates still ship with
    // every packet), so its window floors at 8 px even on the bilinear
    // rung
    let canvas_side = ((active_side * config.lr_size.0) / FULL_LR.width())
        .max(8)
        .min(config.lr_size.0.min(config.lr_size.1));
    server.set_roi_window((canvas_side, canvas_side));
    (active_side, active_cost)
}

/// Folds the recovery machine's transitions into the live session: a
/// trace instant per event, crash/reconfigure counters, the ladder floor
/// while the decoder is down, the permanent ceiling on safe-profile
/// fallback, and a fresh NACK resync cycle the moment the machine starts
/// waiting for its keyframe.
#[allow(clippy::too_many_arguments)]
fn apply_recovery_events(
    events: &[RecoveryEvent],
    send_time: f64,
    config: &SessionConfig,
    base_side: usize,
    rec: &mut Recorder,
    controller: &mut Option<DegradationController>,
    server: &mut GameStreamServer,
    ours_client: &mut GameStreamClient,
    nack: &mut NackManager,
    active_side: &mut usize,
    active_cost: &mut f64,
) {
    for ev in events {
        rec.instant(InstantKind::Recovery, send_time, ev.detail());
        match ev {
            RecoveryEvent::CrashDetected { .. } => {
                rec.incr(Counter::DecoderCrashes);
                rec.log(Level::Warn, ev.detail());
                // graceful degradation: ride out the recovery on the
                // bilinear floor; the controller climbs back with its
                // usual hysteresis once frames flow again
                if let Some(ctl) = controller.as_mut() {
                    if ctl.force_rung(LADDER.len() - 1) {
                        let (side, cost) = apply_rung_params(
                            &ctl.rung_params(),
                            config,
                            base_side,
                            server,
                            ours_client,
                        );
                        *active_side = side;
                        *active_cost = cost;
                    }
                }
            }
            RecoveryEvent::Reconfiguring { .. } => {
                rec.incr(Counter::DecoderReconfigures);
            }
            RecoveryEvent::AwaitingKeyframe => {
                // restart the NACK cycle from scratch: the machine needs a
                // keyframe *now*, and any backoff accumulated while the
                // decoder was down would only delay the resync
                nack.on_keyframe_delivered();
                nack.on_loss();
            }
            RecoveryEvent::AttemptFailed { .. } => {
                rec.log(Level::Warn, ev.detail());
            }
            RecoveryEvent::SafeProfileFallback => {
                rec.log(Level::Error, ev.detail());
                if let Some(ctl) = controller.as_mut() {
                    if ctl.clamp_ceiling(LADDER.len() - 1) {
                        let (side, cost) = apply_rung_params(
                            &ctl.rung_params(),
                            config,
                            base_side,
                            server,
                            ours_client,
                        );
                        *active_side = side;
                        *active_cost = cost;
                    }
                }
            }
            RecoveryEvent::Recovered { .. } => {
                rec.log(Level::Info, ev.detail());
            }
        }
    }
}

/// Runs one session with one pipeline.
///
/// # Errors
///
/// Propagates codec failures (which would indicate a bug — the simulated
/// stream is delivered losslessly to the decoder).
pub fn run_session(config: &SessionConfig, pipeline: Pipeline) -> Result<SessionReport, GssError> {
    // Pin the pool capacity captured at construction to this stepping
    // thread: a concurrent session flipping the global worker knob must
    // not reconfigure this session's kernels mid-frame.
    let _pool = config.pool.bind();
    let plan = plan_roi_window(
        &config.device,
        config.scale,
        FULL_LR.width(),
        FULL_LR.height(),
    );
    let roi_window = plan.scaled_to_canvas(config.lr_size.0, FULL_LR.width());

    let mut server = GameStreamServer::new(ServerConfig {
        game: config.game,
        lr_size: config.lr_size,
        scale: config.scale,
        encoder: EncoderConfig {
            quality: config.encoder_quality,
            gop_size: config.gop_size,
            ..EncoderConfig::default()
        },
        detector: config.detector,
        roi_window,
        time_stride: (FULL_LR.width() / config.lr_size.0.max(1)).max(1),
        tracker: config.tracker,
        // the controller sees canvas-scale byte counts: rescale the
        // deployment-scale target accordingly
        rate_control: config.rate_control.map(|mut rc| {
            rc.target_bytes_per_frame =
                ((rc.target_bytes_per_frame as f64 / config.canvas_to_full()) as usize).max(1);
            rc
        }),
    });

    let mut ours_client = GameStreamClient::new(config.scale);
    let mut nemo_client = NemoClient::new(config.scale);
    let mut link = Link::with_faults(
        config.link.clone(),
        config.link_seed,
        config.fault_plan.clone(),
    );
    let mut meter = EnergyMeter::new(&config.device);
    let byte_scale = config.canvas_to_full();

    let mut rec = Recorder::new(
        format!(
            "{} | {} | {}",
            pipeline.label(),
            config.device.name,
            config.link.name
        ),
        REALTIME_BUDGET_MS,
    );
    // an internal trace sink always rides along (tee'd with any
    // user-supplied sink) so deadline-miss attribution can replay the
    // session's causal span tree after the run
    let trace = gss_telemetry::TraceSink::new();
    let trace_handle = SinkHandle::new(trace.clone());
    rec = rec.with_sink(match &config.telemetry {
        Some(sink) => SinkHandle::new(gss_telemetry::MultiSink::new(vec![
            sink.clone(),
            trace_handle,
        ])),
        None => trace_handle,
    });
    // the SLO engine watches the same per-frame health bits the report
    // exposes; breach transitions land in the trace as slo-breach markers
    let mut slo = gss_telemetry::SloEngine::standard(REALTIME_BUDGET_MS);

    let mut frames = Vec::with_capacity(config.frames);
    // resilience state: the ladder controller adapts the GameStreamSR
    // pipeline only; the NACK manager paces keyframe requests whenever
    // loss recovery is on
    let mut controller = match (pipeline, config.degradation) {
        (Pipeline::GameStreamSr, Some(cfg)) => Some(DegradationController::new(cfg)),
        _ => None,
    };
    let nack_cfg = config.degradation.unwrap_or_default();
    let mut nack = NackManager::new(
        nack_cfg.nack_timeout_frames,
        nack_cfg.nack_backoff_max_frames,
    );
    let mut active_side = plan.chosen_side;
    let mut active_cost = 1.0_f64;

    // ---- capability negotiation (step 0) ---------------------------------
    // the server's offer meets the client's capability set before the
    // first frame. For the calibrated reference devices the result is the
    // identity (their capabilities cover the whole offer), which keeps
    // every pre-existing session byte-identical.
    let negotiated = negotiate(&server.offer(), &config.device.capabilities);
    if negotiated.clamped {
        rec.log(Level::Info, negotiated.describe());
    }
    if pipeline == Pipeline::GameStreamSr && negotiated.top_rung > 0 {
        match &mut controller {
            // the controller may never climb above the negotiated rung
            Some(ctl) => {
                if ctl.clamp_ceiling(negotiated.top_rung) {
                    let (side, cost) = apply_rung_params(
                        &ctl.rung_params(),
                        config,
                        plan.chosen_side,
                        &mut server,
                        &mut ours_client,
                    );
                    active_side = side;
                    active_cost = cost;
                }
            }
            // no controller: pin the pipeline statically to the best rung
            // the client's NPU supports
            None => {
                let (side, cost) = apply_rung_params(
                    &LADDER[negotiated.top_rung],
                    config,
                    plan.chosen_side,
                    &mut server,
                    &mut ours_client,
                );
                active_side = side;
                active_cost = cost;
            }
        }
    }
    // decoder crash recovery: the machine is armed only when the plan
    // scripts a crash, and arming it implies loss recovery — a recovering
    // decoder freezes the display and resyncs on a NACKed keyframe
    let mut recovery = config
        .fault_plan
        .has_decoder_crashes()
        .then(|| RecoveryMachine::new(RecoveryConfig::default()));
    let loss_recovery = config.loss_recovery || recovery.is_some();

    let mut active_faults: Vec<&'static str> = Vec::new();
    let mut last_displayed: Option<Frame> = None;
    for i in 0..config.frames {
        rec.begin_frame(i as u64);
        let send_time = i as f64 * 1000.0 / 60.0;

        // structured fault telemetry: one log event per active-set change
        let faults_now = config.fault_plan.active_labels(send_time);
        if faults_now != active_faults {
            let msg = if faults_now.is_empty() {
                "faults cleared".to_owned()
            } else {
                format!("faults active: {}", faults_now.join("+"))
            };
            rec.log(Level::Warn, msg.clone());
            rec.instant(InstantKind::Fault, send_time, msg);
            active_faults = faults_now;
        }
        let slowdown = config.fault_plan.npu_slowdown(send_time);
        if slowdown > 1.0 {
            rec.gauge(Gauge::NpuSlowdown, slowdown);
        }
        // ---- decoder crash recovery (frame open) --------------------------
        // sample the crash signal at send time and walk the state machine;
        // its transitions renegotiate the pipeline before this frame's
        // packet is cut
        if let Some(rm) = &mut recovery {
            let events = rm.begin_frame(config.fault_plan.decoder_crashed(send_time));
            apply_recovery_events(
                &events,
                send_time,
                config,
                plan.chosen_side,
                &mut rec,
                &mut controller,
                &mut server,
                &mut ours_client,
                &mut nack,
                &mut active_side,
                &mut active_cost,
            );
            rec.gauge(Gauge::RecoveryState, rm.state().gauge_value());
        }
        let rung_now = controller.as_ref().map_or(0, |c| c.rung());
        if controller.is_some() {
            rec.gauge(Gauge::LadderRung, rung_now as f64);
        }

        if loss_recovery {
            if let Some(signal) = nack.begin_frame() {
                server.request_keyframe();
                rec.incr(Counter::Nacks);
                rec.instant(
                    InstantKind::Nack,
                    send_time,
                    if signal == NackSignal::Retry {
                        "keyframe re-request (retry)"
                    } else {
                        "keyframe request"
                    },
                );
                if signal == NackSignal::Retry {
                    rec.incr(Counter::NackRetries);
                }
            }
        }
        let packet = server.next_frame_traced(&mut rec)?;
        let bytes_full = (packet.encoded.size_bytes() as f64 * byte_scale) as usize;

        // ---- network ------------------------------------------------------
        let input_uplink_ms = link.control_latency_ms();
        let transfer = link.send_traced(bytes_full, send_time, &mut rec);
        let (mut dropped, downlink_ms) = if transfer.delivered() {
            (false, transfer.transit_ms)
        } else {
            // bound: the frame would have waited out the full queue
            (true, config.link.queue_limit_ms + config.link.rtt_ms / 2.0)
        };
        let mut drop_cause = transfer.drop_cause;
        // a delivered frame is still unusable while the decoder is down:
        // the client discards it. The drop is charged to the decoder, not
        // the link — a distinct cause in the counters and the stall ledger
        if let Some(rm) = &recovery {
            if !dropped && !rm.can_decode(packet.frame_type == FrameType::Intra) {
                dropped = true;
                drop_cause = Some(DropCause::DecoderDown);
                rec.incr(Counter::FramesDropped);
                rec.incr(Counter::DropsDecoderDown);
                rec.instant(
                    InstantKind::Drop,
                    send_time,
                    format!("frame dropped: {}", DropCause::DecoderDown.label()),
                );
            }
        }
        // a frame is unusable when it was dropped, or when it depends on a
        // reference the client never received (judged before this frame's
        // loss is folded into the NACK state)
        let frozen = loss_recovery
            && (dropped || (nack.awaiting() && packet.frame_type == FrameType::Inter));
        if frozen {
            rec.incr(Counter::FramesFrozen);
        }
        if loss_recovery {
            if dropped {
                nack.on_loss();
            } else if packet.frame_type == FrameType::Intra {
                nack.on_keyframe_delivered();
            }
        }
        // ---- decoder crash recovery (frame close) -------------------------
        // a keyframe that was delivered *and* decoded completes the resync;
        // an expired keyframe window fails the attempt and re-reconfigures
        if let Some(rm) = &mut recovery {
            if frozen && rm.in_recovery() {
                rm.note_frozen();
            }
            let keyframe_decoded = !dropped && !frozen && packet.frame_type == FrameType::Intra;
            let events = rm.end_frame(keyframe_decoded);
            apply_recovery_events(
                &events,
                send_time,
                config,
                plan.chosen_side,
                &mut rec,
                &mut controller,
                &mut server,
                &mut ours_client,
                &mut nack,
                &mut active_side,
                &mut active_cost,
            );
        }
        meter.add_network_bytes(bytes_full);

        // ---- decode + upscale (modeled at deployment scale) ----------------
        let stall_ms = config.fault_plan.decoder_stall_ms(send_time);
        let (decode_ms, upscale) = if frozen {
            // nothing to decode or upscale: the display repeats the last frame
            (0.0, mtp::UpscaleTiming::default())
        } else {
            match pipeline {
                Pipeline::GameStreamSr => {
                    let decode = config.device.hw_decode_ms(negotiated.decode_pixels) + stall_ms;
                    meter.add_busy(Stage::Decode, Rail::HwDecoder, decode);
                    let t = mtp::ours_upscale_degraded(
                        &config.device,
                        active_side,
                        active_cost,
                        slowdown,
                    );
                    meter.add_busy(Stage::Upscale, Rail::Npu, t.npu_ms);
                    meter.add_busy(Stage::Upscale, Rail::Gpu, t.gpu_ms + t.merge_ms);
                    (decode, t)
                }
                Pipeline::Nemo => {
                    let decode = config.device.sw_decode_ms(negotiated.decode_pixels) + stall_ms;
                    meter.add_busy(Stage::Decode, Rail::CpuHeavy, decode);
                    let t = match packet.frame_type {
                        FrameType::Intra => {
                            let t = mtp::sota_ref_upscale_throttled(&config.device, slowdown);
                            meter.add_busy(Stage::Upscale, Rail::Npu, t.npu_ms);
                            t
                        }
                        FrameType::Inter => {
                            let t = mtp::sota_nonref_upscale(&config.device);
                            meter.add_busy(Stage::Upscale, Rail::CpuLight, t.cpu_ms);
                            t
                        }
                    };
                    (decode, t)
                }
            }
        };
        meter.add_display_frame();

        // ---- MTP assembly ---------------------------------------------------
        let with_roi = pipeline == Pipeline::GameStreamSr;
        let sm = &config.server_model;
        let mtp_breakdown = MtpBreakdown {
            input_uplink_ms,
            engine_ms: sm.engine_tick_ms,
            render_ms: sm.render_ms(FULL_LR),
            roi_extra_ms: if with_roi {
                (sm.roi_detect_ms(FULL_LR) - sm.encode_ms(FULL_LR)).max(0.0)
            } else {
                0.0
            },
            encode_ms: sm.encode_ms(FULL_LR),
            downlink_ms,
            decode_ms,
            upscale_ms: upscale.critical_ms,
            display_ms: config.device.display_present_ms,
        };

        // ---- telemetry spans on the session clock ---------------------------
        // Anchor the frame's MTP timeline so its downlink segment coincides
        // with the link span recorded at `send_time`: the controller input
        // behind frame i left the client `server_side_ms` before the packet
        // hit the wire.
        let server_side_ms = input_uplink_ms
            + mtp_breakdown.engine_ms
            + mtp_breakdown.render_ms
            + mtp_breakdown.roi_extra_ms
            + mtp_breakdown.encode_ms;
        let upscale_start = mtp_breakdown.record_spans(&mut rec, send_time - server_side_ms);
        if with_roi {
            // depth capture then RoI search, pipelined against the encode
            // (the breakdown only carries their excess beyond the encode)
            let render_end = send_time - mtp_breakdown.roi_extra_ms - mtp_breakdown.encode_ms;
            let depth_ms = sm.depth_capture_ms(FULL_LR);
            rec.record_span(gss_telemetry::Stage::DepthCapture, render_end, depth_ms);
            rec.record_span(
                gss_telemetry::Stage::RoiDetect,
                render_end + depth_ms,
                sm.roi_search_ms(FULL_LR),
            );
        }
        upscale.record_spans(&mut rec, upscale_start);

        // ---- data path + quality --------------------------------------------
        let (psnr_db, foveated_psnr_db, perceptual) = if config.evaluate_quality {
            // only a loss-recovering session can freeze, so only it keeps
            // the shown frame for the next one
            let displayed: Option<Frame> = if frozen {
                last_displayed.take()
            } else {
                let out: Frame = match pipeline {
                    Pipeline::GameStreamSr => {
                        ours_client
                            .process_traced(&packet.encoded, packet.roi, &mut rec)?
                            .frame
                    }
                    Pipeline::Nemo => nemo_client.process_traced(&packet.encoded, &mut rec)?.frame,
                };
                Some(out)
            };
            let quality = match &displayed {
                Some(out) => {
                    let (hw, hh) = packet.ground_truth_hr.size();
                    // the shipped RoI is even-aligned at lr scale; keep the
                    // HR evaluation window on even luma coordinates too so
                    // the weighted-PSNR region matches what a 4:2:0 merge
                    // actually touched
                    let roi_hr = packet
                        .roi
                        .scaled(config.scale)
                        .aligned_even()
                        .clamp_to(hw, hh);
                    (
                        Some(psnr(&packet.ground_truth_hr, out)?),
                        Some(region_weighted_psnr(
                            &packet.ground_truth_hr,
                            out,
                            roi_hr,
                            4.0,
                        )?),
                        Some(perceptual_distance(&packet.ground_truth_hr, out)?),
                    )
                }
                // nothing was ever displayed (loss before the first frame)
                None => (None, None, None),
            };
            if loss_recovery {
                last_displayed = displayed;
            }
            quality
        } else {
            (None, None, None)
        };

        // the recorder judges the same per-frame critical path the report
        // exposes, so its miss count is consistent with the FrameRecords by
        // construction (end_frame closes the frame for the trace sink, so
        // the miss marker must be emitted first, with the same predicate)
        let met_now = gss_telemetry::deadline_met(upscale.critical_ms, rec.budget_ms());
        if !met_now {
            rec.instant(
                InstantKind::DeadlineMiss,
                upscale_start + upscale.critical_ms,
                format!(
                    "critical path {:.2} ms > budget {:.2} ms",
                    upscale.critical_ms,
                    rec.budget_ms()
                ),
            );
        }
        // SLO burn rates see the same health bits; breach transitions must
        // also land before end_frame so they attach to this frame's trace
        for ev in slo.observe(&gss_telemetry::FrameHealth {
            critical_ms: upscale.critical_ms,
            deadline_met: met_now,
            frozen,
        }) {
            rec.instant(
                InstantKind::SloBreach,
                send_time - server_side_ms + mtp_breakdown.total_ms(),
                ev.detail,
            );
        }
        let deadline_met = rec
            .end_frame(
                mtp_breakdown.total_ms(),
                upscale.critical_ms,
                bytes_full as u64,
            )
            .expect("session records one-shot spans only; none can be left open");

        frames.push(FrameRecord {
            index: i,
            frame_type: packet.frame_type,
            upscale_ms: upscale.critical_ms,
            upscale_npu_ms: upscale.npu_ms,
            upscale_gpu_ms: upscale.gpu_ms,
            upscale_merge_ms: upscale.merge_ms,
            decode_ms,
            mtp: mtp_breakdown,
            bytes: bytes_full,
            dropped,
            drop_cause,
            rung: rung_now,
            frozen,
            deadline_met,
            psnr_db,
            foveated_psnr_db,
            perceptual,
        });

        // ---- adaptation ----------------------------------------------------
        // the controller sees this frame's health and renegotiates the
        // pipeline (RoI window, SR tier, rate target) for the next frame
        if let Some(ctl) = &mut controller {
            if let Some(step) = ctl.observe(dropped || !deadline_met) {
                let rung = ctl.rung_params();
                rec.incr(match step {
                    LadderStep::Downgrade => Counter::LadderDowngrades,
                    LadderStep::Upgrade => Counter::LadderUpgrades,
                });
                let (side, cost) = apply_rung_params(
                    &rung,
                    config,
                    plan.chosen_side,
                    &mut server,
                    &mut ours_client,
                );
                active_side = side;
                active_cost = cost;
                let shift_msg = format!(
                    "ladder {}: rung {} -> {} ({}, roi {} px, rate x{:.2})",
                    match step {
                        LadderStep::Downgrade => "down",
                        LadderStep::Upgrade => "up",
                    },
                    rung_now,
                    ctl.rung(),
                    rung.tier_label(),
                    active_side,
                    rung.rate_scale
                );
                rec.log(
                    match step {
                        LadderStep::Downgrade => Level::Warn,
                        LadderStep::Upgrade => Level::Info,
                    },
                    shift_msg.clone(),
                );
                // the controller decides after the frame completes; the
                // trace sink attaches this post-frame instant to the frame
                // that was just closed
                rec.instant(
                    InstantKind::LadderShift,
                    send_time - server_side_ms + mtp_breakdown.total_ms(),
                    shift_msg,
                );
            }
        }
    }

    let telemetry = rec.finish();
    // finish() closed the session for the sinks; replay the completed
    // causal trace and attribute every miss and stall
    let attribution = trace
        .sessions()
        .last()
        .map(|s| gss_telemetry::Attributor::new(REALTIME_BUDGET_MS).attribute(s))
        .unwrap_or_default();
    Ok(SessionReport {
        pipeline,
        game: config.game,
        device: config.device.name.to_owned(),
        frames,
        energy: meter.breakdown(),
        telemetry,
        attribution,
        slo: slo.summary(),
        recovery: recovery.map(RecoveryMachine::into_summary),
    })
}

/// Paired run of both pipelines on identical streams/channels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// GameStreamSR session.
    pub ours: SessionReport,
    /// NEMO session.
    pub sota: SessionReport,
}

/// Runs both pipelines with the same configuration (same game frames, same
/// codec stream, same channel trace) and pairs the reports.
///
/// # Errors
///
/// Propagates session errors.
pub fn run_comparison(config: &SessionConfig) -> Result<ComparisonReport, GssError> {
    Ok(ComparisonReport {
        ours: run_session(config, Pipeline::GameStreamSr)?,
        sota: run_session(config, Pipeline::Nemo)?,
    })
}

impl ComparisonReport {
    /// Reference-frame upscaling speedup (paper Fig. 10a: ≈13–14×).
    pub fn ref_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms(FrameType::Intra) / self.ours.mean_upscale_ms(FrameType::Intra)
    }

    /// Non-reference-frame upscaling speedup (paper: ≥1.5×).
    pub fn nonref_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms(FrameType::Inter) / self.ours.mean_upscale_ms(FrameType::Inter)
    }

    /// Whole-GOP upscaling speedup (paper: ≈2×).
    pub fn gop_upscale_speedup(&self) -> f64 {
        self.sota.mean_upscale_ms_all() / self.ours.mean_upscale_ms_all()
    }

    /// Reference-frame MTP improvement (paper Fig. 10b: ≈3.8–4×).
    pub fn ref_mtp_improvement(&self) -> f64 {
        self.sota.mean_mtp_ms(FrameType::Intra) / self.ours.mean_mtp_ms(FrameType::Intra)
    }

    /// Overall energy savings versus SOTA (paper Fig. 11: 26–33%).
    pub fn energy_savings(&self) -> f64 {
        1.0 - self.ours.energy.total_mj / self.sota.energy.total_mj
    }

    /// Mean PSNR gain over SOTA in dB (paper Fig. 14a: ≈2 dB).
    pub fn psnr_gain_db(&self) -> Option<f64> {
        Some(self.ours.mean_psnr_db()? - self.sota.mean_psnr_db()?)
    }

    /// Perceptual-distance improvement (SOTA − ours; positive is better,
    /// paper Fig. 14b: ≈0.2).
    pub fn perceptual_improvement(&self) -> Option<f64> {
        Some(self.sota.mean_perceptual()? - self.ours.mean_perceptual()?)
    }

    /// Foveated-PSNR gain over SOTA in dB (quality where the player looks,
    /// RoI weighted 4x; extension metric).
    pub fn foveated_psnr_gain_db(&self) -> Option<f64> {
        Some(self.ours.mean_foveated_psnr_db()? - self.sota.mean_foveated_psnr_db()?)
    }

    /// Both pipelines' telemetry summaries, ours first.
    pub fn telemetry(&self) -> (&TelemetrySummary, &TelemetrySummary) {
        (&self.ours.telemetry, &self.sota.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SessionConfig {
        SessionConfig {
            frames: 6,
            gop_size: 3,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
    }

    #[test]
    fn session_produces_one_record_per_frame() {
        let r = run_session(&tiny_config(), Pipeline::GameStreamSr).unwrap();
        assert_eq!(r.frames.len(), 6);
        assert_eq!(
            r.frames
                .iter()
                .filter(|f| f.frame_type == FrameType::Intra)
                .count(),
            2
        );
    }

    #[test]
    fn frame_records_carry_the_npu_gpu_overlap_breakdown() {
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        for f in &r.frames {
            if f.frozen {
                assert_eq!(f.upscale_ms, 0.0);
                continue;
            }
            // NPU and GPU legs overlap: the critical path is the slower
            // leg plus the merge, never the sum of the legs
            assert_eq!(
                f.upscale_ms,
                f.upscale_npu_ms.max(f.upscale_gpu_ms) + f.upscale_merge_ms,
                "frame {}",
                f.index
            );
            assert!(f.upscale_npu_ms > 0.0 && f.upscale_gpu_ms > 0.0);
            assert!(f.upscale_ms < f.upscale_npu_ms + f.upscale_gpu_ms + f.upscale_merge_ms);
        }
    }

    #[test]
    fn ours_meets_realtime_sota_does_not() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let sota = run_session(&cfg, Pipeline::Nemo).unwrap();
        assert_eq!(ours.realtime_fraction(), 1.0);
        assert_eq!(sota.realtime_fraction(), 0.0);
    }

    #[test]
    fn comparison_headline_shapes_hold() {
        // a full 60-frame GOP so the reference/non-reference energy mix
        // matches the deployment (paper Fig. 11 band: 26-33%)
        let cfg = SessionConfig {
            gop_size: 60,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_frames(60);
        let cmp = run_comparison(&cfg).unwrap();
        let ref_speedup = cmp.ref_upscale_speedup();
        assert!((12.0..15.0).contains(&ref_speedup), "{ref_speedup:.2}");
        assert!(cmp.nonref_upscale_speedup() > 1.5);
        let gop = cmp.gop_upscale_speedup();
        assert!((1.5..2.5).contains(&gop), "gop {gop:.2}");
        let savings = cmp.energy_savings();
        assert!((0.20..0.40).contains(&savings), "savings {savings:.3}");
    }

    #[test]
    fn quality_metrics_present_when_enabled() {
        let r = run_session(&tiny_config(), Pipeline::GameStreamSr).unwrap();
        assert!(r.mean_psnr_db().is_some());
        assert!(r.mean_perceptual().is_some());
        let r2 = run_session(&tiny_config().without_quality(), Pipeline::GameStreamSr).unwrap();
        assert!(r2.mean_psnr_db().is_none());
    }

    #[test]
    fn mtp_under_budget_for_ours() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert!(ours.max_mtp_ms() < 100.0, "{:.1}", ours.max_mtp_ms());
    }

    #[test]
    fn loss_recovery_freezes_then_recovers() {
        // strangle the link mid-session so frames drop; with recovery on,
        // unusable frames freeze and a forced keyframe resumes decoding
        let mut cfg = SessionConfig {
            frames: 16,
            gop_size: 16,
            lr_size: (128, 72),
            loss_recovery: true,
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        };
        cfg.link.bandwidth_mbps = 14.0; // tight: some frames will drop
        cfg.link.bandwidth_cv = 0.6;
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let dropped: Vec<usize> = r
            .frames
            .iter()
            .filter(|f| f.dropped)
            .map(|f| f.index)
            .collect();
        assert!(!dropped.is_empty(), "link never dropped — tighten the test");
        // every dropped frame is frozen
        for f in &r.frames {
            if f.dropped {
                assert!(f.frozen, "frame {} dropped but not frozen", f.index);
            }
        }
        // a keyframe follows each drop within a few frames (NACK recovery)
        let first_drop = dropped[0];
        let recovered = r.frames[first_drop + 1..]
            .iter()
            .find(|f| !f.frozen)
            .expect("stream never recovered");
        assert!(
            recovered.frame_type == FrameType::Intra || !r.frames[first_drop + 1].frozen,
            "recovery frame {} should be a keyframe",
            recovered.index
        );
        // frozen frames consume no decode/upscale time
        let frozen = r.frames.iter().find(|f| f.frozen).unwrap();
        assert_eq!(frozen.decode_ms, 0.0);
        assert_eq!(frozen.upscale_ms, 0.0);
    }

    #[test]
    fn telemetry_summary_is_consistent_with_frame_records() {
        use gss_telemetry::{Gauge, Stage};
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let t = &r.telemetry;
        assert_eq!(t.frames as usize, r.frames.len());
        assert_eq!(
            t.deadline_misses as usize,
            r.frames.iter().filter(|f| !f.deadline_met).count()
        );
        assert_eq!(t.counter(Counter::BytesOnWire) as usize, r.total_bytes());
        assert_eq!(t.counter(Counter::FramesEncoded) as usize, r.frames.len());
        // every stage of the ours pipeline shows up with full percentiles
        for stage in [
            Stage::Render,
            Stage::DepthCapture,
            Stage::RoiDetect,
            Stage::Encode,
            Stage::LinkTransfer,
            Stage::Decode,
            Stage::NpuSr,
            Stage::GpuInterp,
            Stage::Merge,
            Stage::Display,
        ] {
            let s = t
                .stage(stage)
                .unwrap_or_else(|| panic!("{} missing", stage.label()));
            assert!(s.dist.p50 > 0.0 && s.dist.p50 <= s.dist.p95 && s.dist.p95 <= s.dist.p99);
        }
        // whole-frame MTP distribution covers every frame and matches the
        // per-record extremes to bucket resolution
        let mtp = t.mtp_ms.expect("mtp histogram");
        assert_eq!(mtp.count as usize, r.frames.len());
        assert!((mtp.max - r.max_mtp_ms()).abs() < 1e-9);
        // the RoI pipeline gauges the detected area every frame
        assert!(t.gauge(Gauge::RoiAreaPx).is_some());
    }

    #[test]
    fn fps_effective_follows_the_deadline_ledger() {
        let cfg = tiny_config().without_quality();
        let ours = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let sota = run_session(&cfg, Pipeline::Nemo).unwrap();
        assert_eq!(ours.fps_effective(), 60.0);
        assert_eq!(sota.fps_effective(), 0.0);
        assert_eq!(ours.telemetry.deadline_misses, 0);
        assert_eq!(sota.telemetry.deadline_misses, sota.telemetry.frames);
    }

    #[test]
    fn memory_sink_sees_the_event_stream() {
        use gss_telemetry::{Event, MemorySink, SinkHandle};
        let mem = MemorySink::new();
        let cfg = tiny_config()
            .without_quality()
            .with_telemetry(SinkHandle::new(mem.clone()));
        run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let events = mem.events();
        assert!(matches!(events[0], Event::SessionStart { .. }));
        assert!(matches!(
            events.last(),
            Some(Event::SessionEnd { frames: 6, .. })
        ));
        let frame_ends = events
            .iter()
            .filter(|e| matches!(e, Event::FrameEnd { .. }))
            .count();
        assert_eq!(frame_ends, 6);
    }

    #[test]
    fn lossless_default_never_freezes() {
        let cfg = tiny_config().without_quality();
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert!(r.frames.iter().all(|f| !f.frozen));
    }

    #[test]
    fn decoder_crash_freezes_then_recovers_with_a_summary() {
        use gss_net::{FaultEvent, FaultKind};
        // one crash at 150 ms in an otherwise clean 60-frame session; the
        // machine must be armed implicitly (no loss_recovery flag set)
        let plan = FaultPlan::new(vec![FaultEvent {
            start_ms: 150.0,
            end_ms: 250.0,
            kind: FaultKind::DecoderCrash,
        }]);
        let cfg = SessionConfig {
            frames: 60,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_faults(plan);
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let rec = r.recovery.as_ref().expect("machine was armed");
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.recovery_frames.len(), 1, "the episode must complete");
        assert!(!rec.safe_profile_fallback);
        assert!(rec.frozen_frames > 0, "recovery frames freeze the display");
        // the client discarded delivered frames while the decoder was down
        assert!(r.drops_with_cause(DropCause::DecoderDown) > 0);
        assert!(r.telemetry.counter(Counter::DecoderCrashes) == 1);
        assert!(r.telemetry.counter(Counter::DropsDecoderDown) > 0);
        // no permanent freeze: the tail of the session streams normally
        assert!(r.frames[50..].iter().all(|f| !f.frozen));
        // frozen repeats trivially meet the deadline, so the episode must
        // not stall the session beyond its budgets (drain 2 + reconfigure
        // 3 + resync ≤ await 8)
        assert!(r.longest_frozen_run() <= 13, "{}", r.longest_frozen_run());
    }

    #[test]
    fn crash_storm_backs_off_into_the_safe_profile_fallback() {
        // the canonical storm at 0.2x: five crashes, the last four inside
        // one stability window — strikes 2..4 grow the backoff and the
        // 4th crosses max_strikes into the permanent ladder floor
        let scale = 0.2;
        let frames = (FaultPlan::crash_storm_duration_ms(scale) * 60.0 / 1000.0).ceil() as usize;
        let cfg = SessionConfig {
            frames,
            gop_size: 60,
            lr_size: (128, 72),
            rate_control: Some(gss_codec::RateControlConfig::for_bitrate_mbps(12.0)),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_faults(FaultPlan::crash_storm_scaled(scale))
        .with_degradation(crate::degrade::DegradationConfig::default());
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        let rec = r.recovery.as_ref().expect("machine was armed");
        assert_eq!(rec.crashes, 5, "every scripted crash must be sampled");
        assert!(rec.safe_profile_fallback, "repeat offences must trip it");
        assert!(rec.reconfigures >= 5);
        // every burst eventually recovered (at this compressed clock the
        // rapid-fire crashes merge into one long episode, but it ends):
        // a crash never became a permanent freeze
        assert!(rec.recovery_frames.len() >= 2, "{:?}", rec.recovery_frames);
        assert!(!r.frames.last().unwrap().frozen);
        // the fallback pins the ladder to its floor for the rest of the run
        assert_eq!(r.frames.last().unwrap().rung, LADDER.len() - 1);
        // deterministic replay: the same plan reproduces the same session
        let r2 = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        assert_eq!(format!("{:?}", r.frames), format!("{:?}", r2.frames));
        assert_eq!(r.recovery, r2.recovery);
    }

    #[test]
    fn capability_negotiation_clamps_the_weak_tier() {
        // same weak NPU, once with its honest capability set and once
        // claiming flagship capabilities: the honest run negotiates the
        // EDSR-16 rung and its upscale path must be strictly cheaper
        let run = |device: DeviceProfile| {
            let cfg = SessionConfig {
                frames: 12,
                lr_size: (128, 72),
                ..SessionConfig::new(GameId::G3, device)
            }
            .without_quality();
            run_session(&cfg, Pipeline::GameStreamSr).unwrap()
        };
        let honest = run(DeviceProfile::tier_low());
        let lying = run(DeviceProfile {
            capabilities: gss_platform::DeviceCapabilities::flagship(),
            ..DeviceProfile::tier_low()
        });
        assert!(
            honest.mean_upscale_ms_all() < lying.mean_upscale_ms_all(),
            "negotiated clamp must shed NPU load: {:.2} vs {:.2}",
            honest.mean_upscale_ms_all(),
            lying.mean_upscale_ms_all()
        );
        // flagship reference devices negotiate the identity — nothing in
        // their session may change (guards byte-compat of old baselines)
        let s8 = run(DeviceProfile::s8_tab());
        assert_eq!(s8.recovery, None);
        assert_eq!(s8.max_rung(), 0);
    }

    #[test]
    fn bitrate_is_plausible_for_720p() {
        // deployment GOP mix (one keyframe per 12 frames here; a 3-frame
        // GOP would treble the intra share and inflate the bitrate)
        let cfg = SessionConfig {
            gop_size: 12,
            lr_size: (128, 72),
            ..SessionConfig::new(GameId::G3, DeviceProfile::s8_tab())
        }
        .without_quality()
        .with_frames(12);
        let r = run_session(&cfg, Pipeline::GameStreamSr).unwrap();
        // same order of magnitude as real 720p60 game streams; this codec
        // lacks intra prediction and arithmetic coding, so it sits ~2-3x
        // above deployed encoders (documented in DESIGN.md)
        let mbps = r.mean_bitrate_mbps();
        assert!((5.0..60.0).contains(&mbps), "bitrate {mbps:.2} Mbps");
    }
}
