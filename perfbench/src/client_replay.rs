//! `client-replay`: the client path alone. Set-up renders and encodes a
//! clip with `GameStreamServer::next_frame` (every game in the seed's
//! rotation, each segment opening on a keyframe) and keeps only packets
//! and RoIs; the timed part feeds them to `GameStreamClient::process` in
//! order and loops the clip.

use crate::replay::{canvas_to_full, roi_window};
use crate::spans::Tracer;
use crate::stats::{fnv64_extend, mean, percentile, FNV_OFFSET};
use crate::{at_workers, pool_workers, Args, Outcome, WORKERS};
use gamestreamsr::mtp::{ours_upscale_degraded, FULL_LR};
use gamestreamsr::roi::plan_roi_window;
use gamestreamsr::{GameStreamClient, GameStreamServer, ServerConfig, SessionConfig};
use gss_codec::{Decoder, EncodedFrame, EncoderConfig};
use gss_frame::{Frame, Rect};
use gss_metrics::psnr;
use gss_platform::pool::PoolHandle;
use gss_platform::{DeviceProfile, REALTIME_BUDGET_MS};
use gss_render::GameId;
use gss_sr::{InterpKernel, InterpUpscaler, ModelTier, NeuralSr, Upscaler};
use std::time::Instant;

/// Frames per game segment (the same session length as `comparison`).
const FRAMES: usize = crate::comparison::FRAMES;

/// Clip loops each pass of the traced run times.
const TRACED_LOOPS: usize = 3;

/// The session configuration the clip reproduces: `comparison`'s
/// defaults.
fn session(game: GameId) -> SessionConfig {
    SessionConfig::new(game, DeviceProfile::s8_tab())
}

/// The server `run_session` builds for `session(game)`.
fn server(game: GameId) -> GameStreamServer {
    let s = session(game);
    GameStreamServer::new(ServerConfig {
        game,
        lr_size: s.lr_size,
        scale: s.scale,
        encoder: EncoderConfig {
            quality: s.encoder_quality,
            gop_size: s.gop_size,
            ..EncoderConfig::default()
        },
        detector: s.detector,
        roi_window: roi_window(&s),
        time_stride: (FULL_LR.width() / s.lr_size.0).max(1),
        tracker: None,
        rate_control: None,
    })
}

/// Word-wise FNV-1a over every plane's samples, in four interleaved
/// lanes so the check costs about a millisecond per output frame.
fn frame_hash(f: &Frame) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    for p in f.planes() {
        for chunk in p.as_slice().chunks(4) {
            for (lane, v) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    lanes
        .iter()
        .fold(FNV_OFFSET, |h, l| fnv64_extend(h, &l.to_le_bytes()))
}

struct Clip {
    packets: Vec<(EncodedFrame, Rect)>,
    /// Output hash of each frame on the reference pass.
    reference: Vec<u64>,
    psnr_db: Vec<f64>,
    out_size: (usize, usize),
    setup_s: f64,
}

/// Renders and encodes the clip (timed: this is set-up), then runs one
/// untimed reference pass of the client over it while the native
/// renders are still at hand, for PSNR and the output hashes later loops
/// must reproduce. Returns the clip and the reference client, warm for
/// the timed loops (every loop opens on a keyframe, so the decoder
/// carries no history from one loop into the next).
fn build_clip(args: &Args, out: &mut Outcome) -> Result<(Clip, GameStreamClient), String> {
    let mut setup = 0.0;
    let mut client = GameStreamClient::new(session(GameId::G1).scale);
    let mut clip = Clip {
        packets: Vec::new(),
        reference: Vec::new(),
        psnr_db: Vec::new(),
        out_size: (0, 0),
        setup_s: 0.0,
    };
    for game in args.games() {
        let t = Instant::now();
        let mut srv = server(game);
        let packets = (0..FRAMES)
            .map(|_| srv.next_frame())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("clip {game:?}: {e}"))?;
        setup += t.elapsed().as_secs_f64();
        for p in packets {
            let shown = client
                .process(&p.encoded, p.roi)
                .map_err(|e| format!("reference pass {game:?}: {e}"))?;
            clip.out_size = p.ground_truth_hr.size();
            clip.psnr_db.push(
                psnr(&p.ground_truth_hr, &shown.frame)
                    .map_err(|e| format!("reference PSNR {game:?}: {e}"))?,
            );
            clip.reference.push(frame_hash(&shown.frame));
            clip.packets.push((p.encoded, p.roi));
        }
    }
    if let Some(bad) = clip.psnr_db.iter().find(|v| !v.is_finite()) {
        out.problem(format!("reference PSNR not finite: {bad}"));
    }
    clip.setup_s = setup;
    Ok((clip, client))
}

/// Feeds `packets` through `process` in order, timing each call, and
/// checks each output's size and hash against `expect`. Returns the
/// per-frame ms.
fn check(
    packets: &[(EncodedFrame, Rect)],
    expect: &[u64],
    size: (usize, usize),
    client: &mut GameStreamClient,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut ms = Vec::with_capacity(packets.len());
    for ((packet, roi), want) in packets.iter().zip(expect) {
        out.attempted += 1;
        let t = Instant::now();
        let result = client.process(packet, *roi);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(o) if o.frame.size() == size && frame_hash(&o.frame) == *want => {}
            Ok(_) => out.failed += 1,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("process: {e}"));
            }
        }
    }
    ms
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (clip, mut client) = build_clip(args, &mut out)?;
    if args.trace {
        traced(args, &clip, client, &mut out);
        return Ok(out);
    }
    let _bind = PoolHandle::with_workers(WORKERS).bind();
    let start = Instant::now();
    let mut frame_ms = Vec::new();
    let mut loop_ms = Vec::new();
    // whole loops only, so every run weighs every game alike
    while loop_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let lap = check(
            &clip.packets,
            &clip.reference,
            clip.out_size,
            &mut client,
            &mut out,
        );
        loop_ms.push(format!("{:.1}", mean(&lap)));
        frame_ms.extend(lap);
    }
    out.set(
        "frames_per_s",
        frame_ms.len() as f64 / (frame_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("frame_ms_p50", percentile(&frame_ms, 0.5)?);
    out.set("frame_ms_p90", percentile(&frame_ms, 0.9)?);
    // one client frame is one tick of the closed loop
    out.set("tick_ms_p50", out.metrics["frame_ms_p50"]);
    out.set("tick_ms_p90", out.metrics["frame_ms_p90"]);
    out.set("setup_s", clip.setup_s);
    out.set("psnr_db", mean(&clip.psnr_db));
    // the session's deadline model for ours on this device and window
    let s = session(GameId::G1);
    let plan = plan_roi_window(&s.device, s.scale, FULL_LR.width(), FULL_LR.height());
    let critical = ours_upscale_degraded(&s.device, plan.chosen_side, 1.0, 1.0).critical_ms;
    let met = gss_telemetry::deadline_met(critical, REALTIME_BUDGET_MS);
    out.set("fps_effective", if met { 60.0 } else { 0.0 });
    let scale = canvas_to_full(s.lr_size);
    let bytes: usize = clip
        .packets
        .iter()
        .map(|(p, _)| (p.size_bytes() as f64 * scale) as usize)
        .sum();
    out.set(
        "bitrate_mbps",
        bytes as f64 / clip.packets.len() as f64 * 8.0 * 60.0 / 1e6,
    );
    let digest = clip
        .reference
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv64_extend(h, &r.to_le_bytes()));
    out.notes.push(format!(
        "client-replay: {} frame clip, {} loops (mean ms per frame: {}), {} frames timed, output digest {digest:016x}",
        clip.packets.len(),
        loop_ms.len(),
        loop_ms.join(" "),
        frame_ms.len()
    ));
    Ok(out)
}

/// The traced run. For each frame of the clip, in turn: `process`
/// (pass 1) and `process` at the host's parallelism (pass 2, the pool
/// pass), untraced, then decode and upscale in spans inside a frame span
/// (pass 3), then each upscale leg alone. Interleaving frame by frame keeps each paired ratio
/// inside the same host conditions. A first untimed loop warms every
/// path.
fn traced(args: &Args, clip: &Clip, mut base: GameStreamClient, out: &mut Outcome) {
    let pool = pool_workers();
    let s = session(GameId::G1);
    let mut pooled = GameStreamClient::new(s.scale);
    let mut decoder = Decoder::new();
    let client = GameStreamClient::new(s.scale);
    let patch_sr = NeuralSr::new(ModelTier::Edsr64.proxy_config(s.scale));
    let bilinear = InterpUpscaler::new(InterpKernel::Bilinear, s.scale);
    let mut warm_up = Tracer::new(false);
    let mut t = Tracer::new(true);
    let (mut p1_ms, mut p2_ms, mut traced_wall) = (0.0, 0.0, 0.0);
    for lap in 0..=TRACED_LOOPS {
        let tracer = if lap == 0 { &mut warm_up } else { &mut t };
        for (i, (packet, roi)) in clip.packets.iter().enumerate() {
            let frame = std::slice::from_ref(&clip.packets[i]);
            let expect = &clip.reference[i..=i];
            let _bind = PoolHandle::with_workers(WORKERS).bind();
            let base_ms = check(frame, expect, clip.out_size, &mut base, out)[0];
            let pooled_ms = at_workers(pool, || {
                check(frame, expect, clip.out_size, &mut pooled, out)[0]
            });
            let start = Instant::now();
            out.attempted += 1;
            tracer.set_frame((lap * clip.packets.len() + i) as u64);
            let decoded = tracer.span("frame", |t| {
                let d = t.span("codec.decode", |_| decoder.decode(packet)).ok()?;
                let shown = t.span("client.upscale", |_| client.upscale(&d.frame, *roi));
                Some((d.frame, shown.frame))
            });
            let lr = match decoded {
                Some((lr, shown)) if frame_hash(&shown) == clip.reference[i] => lr,
                _ => {
                    out.failed += 1;
                    continue;
                }
            };
            let (w, h) = lr.size();
            let crop = lr.crop(roi.clamp_to(w, h));
            std::hint::black_box(tracer.span("sr.patch", |_| patch_sr.upscale(&crop)));
            std::hint::black_box(tracer.span("sr.bilinear", |_| bilinear.upscale(&lr)));
            if lap > 0 {
                p1_ms += base_ms;
                p2_ms += pooled_ms;
                traced_wall += start.elapsed().as_secs_f64();
            }
        }
    }
    out.set("pool.speedup", p1_ms / p2_ms);
    let layers = t.by_name();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    out.set("codec.decode_ms", get("codec.decode").mean_ms());
    let upscale = get("client.upscale").mean_ms();
    out.set("client.upscale_ms", upscale);
    let patch = get("sr.patch");
    out.set("sr.patch_ms", patch.mean_ms());
    out.set("sr.bilinear_ms", get("sr.bilinear").mean_ms());
    let (rw, rh) = roi_window(&s);
    let patch_px = (rw * rh * s.scale * s.scale) as u64 * patch.calls.max(1);
    out.set(
        "sr.patch_ns_per_px",
        patch.total_ns as f64 / patch_px as f64,
    );
    if upscale > 0.0 {
        out.set(
            "client.overlap",
            (patch.mean_ms() + get("sr.bilinear").mean_ms()) / upscale,
        );
    }
    let canvas: Vec<f64> = clip
        .packets
        .iter()
        .map(|(p, _)| p.size_bytes() as f64)
        .collect();
    out.set("codec.bytes_per_frame", mean(&canvas));
    out.set("trace.overhead", get("frame").total_ns as f64 / 1e6 / p1_ms);
    let layer_self: u64 = layers
        .iter()
        .filter(|(name, _)| **name != "frame")
        .map(|(_, l)| l.self_ns)
        .sum();
    out.set("trace.coverage", layer_self as f64 / 1e9 / traced_wall);
    let path = std::path::Path::new(".perfbench/client-replay-spans.jsonl");
    if let Err(e) = t.write_jsonl(path) {
        out.problem(format!("writing {}: {e}", path.display()));
    }
    out.notes.push(format!(
        "client-replay traced: {} spans in {}, seed {}",
        t.spans().len(),
        path.display(),
        args.seed
    ));
}
