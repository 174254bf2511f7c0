//! `comparison`: the paper's own experiment. `run_comparison` (ours, then
//! NEMO) on the default 640×360 ×2 session, every game once per rotation.

use crate::clock::{self, ClockSink};
use crate::replay::{self, roi_window};
use crate::spans::Tracer;
use crate::stats::{fnv64_extend, mean, median, percentile, position_means, FNV_OFFSET};
use crate::{at_workers, pool_workers, Args, Outcome, WORKERS};
use gamestreamsr::session::{run_comparison, ComparisonReport, FrameRecord, Pipeline};
use gamestreamsr::SessionConfig;
use gss_platform::pool::PoolHandle;
use gss_platform::DeviceProfile;
use gss_render::GameId;
use gss_telemetry::SinkHandle;
use std::time::Instant;

/// Frames per session. Ten games × two pipelines × 5 frames times 100
/// frames per rotation (enough for a p90 with ten beyond it) in 20–35 s
/// at one worker on a 2-core host.
pub const FRAMES: usize = 5;

/// Games the pool pass and the untraced replay repeat.
const SUBSET: usize = 3;

/// Span frame ids: session `s` (two per game, ours first) frame `i` is
/// `s * ID_STRIDE + i`.
const ID_STRIDE: u64 = 1000;

fn config(args: &Args, game: GameId, workers: usize) -> SessionConfig {
    let mut c = SessionConfig::new(game, DeviceProfile::s8_tab()).with_frames(FRAMES);
    c.link_seed = args.link_seed();
    c.pool = PoolHandle::with_workers(workers);
    c
}

/// One `run_comparison` call, seen from outside.
struct Unit {
    wall_s: f64,
    /// Call → ours' first FrameStart.
    setup_s: f64,
    /// NEMO's SessionEnd → return.
    finalize_ms: f64,
    /// FrameStart → FrameEnd, ours then NEMO.
    frame_ms: Vec<f64>,
    events: u64,
    report: Option<ComparisonReport>,
}

fn run_unit(args: &Args, game: GameId, workers: usize, out: &mut Outcome) -> Unit {
    let sink = ClockSink::default();
    let cfg = config(args, game, workers).with_telemetry(SinkHandle::new(sink.clone()));
    let t0 = Instant::now();
    let result = run_comparison(&cfg);
    let t1 = Instant::now();
    let log = sink.take();
    let sessions = clock::sessions(&log);
    out.attempted += 2 * FRAMES as u64;
    let report = match result {
        Ok(r) => {
            let bad = bad_frames(&r.ours.frames) + bad_frames(&r.sota.frames);
            out.failed += bad;
            Some(r)
        }
        Err(e) => {
            out.failed += 2 * FRAMES as u64;
            out.problem(format!("{game:?}: {e}"));
            None
        }
    };
    let first = sessions.first().and_then(|s| s.first_frame).unwrap_or(t1);
    let end = sessions.last().and_then(|s| s.end).unwrap_or(t1);
    Unit {
        wall_s: (t1 - t0).as_secs_f64(),
        setup_s: (first - t0).as_secs_f64(),
        finalize_ms: (t1 - end).as_secs_f64() * 1e3,
        frame_ms: sessions.iter().flat_map(|s| s.frame_ms.clone()).collect(),
        events: log.events,
        report,
    }
}

/// Frames missing from a session or without a finite PSNR (the session
/// computes PSNR against the native render, so a wrongly sized output
/// fails there too).
fn bad_frames(frames: &[FrameRecord]) -> u64 {
    let ok = frames
        .iter()
        .filter(|f| f.psnr_db.is_some_and(f64::is_finite))
        .count();
    (FRAMES.saturating_sub(ok)) as u64
}

/// ns spent so far in the standalone SR spans.
fn standalone_sr_ns(t: &Tracer) -> u64 {
    t.spans()
        .iter()
        .filter(|s| s.name.starts_with("sr."))
        .map(|s| s.dur_ns())
        .sum()
}

fn ours<'a>(units: &[&'a Unit]) -> Vec<&'a FrameRecord> {
    units
        .iter()
        .filter_map(|u| u.report.as_ref())
        .flat_map(|r| &r.ours.frames)
        .collect()
}

/// FNV-1a of the `Debug` form of every frame record, both pipelines.
/// Callers pass one rotation, so the digest does not depend on how many
/// rotations a run made.
fn digest(units: &[&Unit]) -> u64 {
    units
        .iter()
        .filter_map(|u| u.report.as_ref())
        .fold(FNV_OFFSET, |h, r| {
            let h = fnv64_extend(h, format!("{:?}", r.ours.frames).as_bytes());
            fnv64_extend(h, format!("{:?}", r.sota.frames).as_bytes())
        })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out)?;
        return Ok(out);
    }
    let games = args.games();
    let start = Instant::now();
    // every repeat of each game's call, in rotation order; the run goes
    // game by game until time is up, after one whole rotation at least
    let mut reps: Vec<Vec<Unit>> = games.iter().map(|_| Vec::new()).collect();
    let mut calls = 0;
    while calls < games.len() || start.elapsed().as_secs_f64() < args.seconds {
        let g = calls % games.len();
        reps[g].push(run_unit(args, games[g], WORKERS, &mut out));
        calls += 1;
    }
    // A run that stops mid-rotation holds some games one repeat more than
    // others, and games differ twofold in cost, so every host-time metric
    // averages each game over its repeats first and then weighs every game
    // alike.
    let per_game = |f: &dyn Fn(&Unit) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|r| mean(&r.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let frames: f64 = per_game(&|u| u.frame_ms.len() as f64).iter().sum();
    let wall: f64 = per_game(&|u| u.wall_s).iter().sum();
    out.set("frames_per_s", frames / wall);
    // each frame of the rotation (game, pipeline, index): its mean over
    // the repeats
    let frame_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| position_means(&r.iter().map(|u| u.frame_ms.clone()).collect::<Vec<_>>()))
        .collect();
    for (name, q) in [("frame_ms_p50", 0.5), ("frame_ms_p90", 0.9)] {
        let v = percentile(&frame_ms, q)?;
        out.set(name, v);
    }
    // one session frame is one tick of the closed loop
    out.set("tick_ms_p50", out.metrics["frame_ms_p50"]);
    out.set("tick_ms_p90", out.metrics["frame_ms_p90"]);
    let setups: Vec<f64> = reps.iter().flatten().map(|u| u.setup_s).collect();
    out.set("setup_s", median(&setups));

    // modeled: the first rotation (every repeat computes the same records)
    let first: Vec<&Unit> = reps.iter().map(|r| &r[0]).collect();
    let ours = ours(&first);
    let psnr: Vec<f64> = ours.iter().filter_map(|f| f.psnr_db).collect();
    out.set("psnr_db", mean(&psnr));
    let met = ours.iter().filter(|f| f.deadline_met).count() as f64;
    out.set("fps_effective", 60.0 * met / ours.len().max(1) as f64);
    let bytes: usize = ours.iter().map(|f| f.bytes).sum();
    out.set(
        "bitrate_mbps",
        bytes as f64 / ours.len().max(1) as f64 * 8.0 * 60.0 / 1e6,
    );
    let repeated = |g: &Vec<Unit>| g.iter().all(|u| digest(&[u]) == digest(&[&g[0]]));
    if !reps.iter().all(repeated) {
        out.problem("a repeated comparison gave different frame records");
    }
    out.notes.push(format!(
        "comparison: {calls} calls ({:.1} rotations), {} frames per rotation, frame records digest {:016x}",
        calls as f64 / games.len() as f64,
        frame_ms.len(),
        digest(&first)
    ));
    Ok(out)
}

/// The traced run. Per game, in turn: the untraced session (pass 1), the
/// same session at the host's parallelism (pass 2, the pool pass, first
/// `SUBSET` games), the traced replay checked against pass 1's records
/// (pass 3), and the replay with spans off (pass 4, first `SUBSET`
/// games). Interleaving by game, and
/// alternating which side of each pair runs first, keeps each paired
/// ratio inside one stretch of host conditions.
fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let games = args.games();
    let pool = pool_workers();
    let _bind = PoolHandle::with_workers(WORKERS).bind();
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut p1 = Vec::new();
    let (mut p1_subset_s, mut p2_s, mut p3_subset_s, mut p4_s) = (0.0, 0.0, 0.0, 0.0);
    let mut traced_wall = 0.0;
    let mut replay_frames = Vec::new();
    for (u, &game) in games.iter().enumerate() {
        // paired passes alternate which side runs first
        let paired = u < SUBSET;
        let second_first = u % 2 == 1;
        if paired && second_first {
            p2_s += at_workers(pool, || run_unit(args, game, pool, out)).wall_s;
        }
        let unit = run_unit(args, game, WORKERS, out);
        if paired {
            p1_subset_s += unit.wall_s;
            if !second_first {
                p2_s += at_workers(pool, || run_unit(args, game, pool, out)).wall_s;
            }
        }
        let cfg = config(args, game, WORKERS);
        let mut replay_untraced = || -> Result<f64, String> {
            let t = Instant::now();
            for pipeline in [Pipeline::GameStreamSr, Pipeline::Nemo] {
                replay::replay_session(&cfg, pipeline, &mut untraced, 0, false)?;
            }
            Ok(t.elapsed().as_secs_f64())
        };
        if paired && second_first {
            p4_s += replay_untraced()?;
        }
        let t = Instant::now();
        let sr_before = standalone_sr_ns(&tracer);
        for (k, pipeline) in [Pipeline::GameStreamSr, Pipeline::Nemo]
            .into_iter()
            .enumerate()
        {
            let base = (2 * u + k) as u64 * ID_STRIDE;
            out.attempted += FRAMES as u64;
            let replayed = match replay::replay_session(&cfg, pipeline, &mut tracer, base, true) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += FRAMES as u64;
                    out.problem(format!("replay {game:?} {}: {e}", pipeline.label()));
                    continue;
                }
            };
            let records = unit.report.as_ref().map(|r| match pipeline {
                Pipeline::GameStreamSr => &r.ours.frames,
                Pipeline::Nemo => &r.sota.frames,
            });
            if let Some(records) = records {
                if let Err(e) = replay::check_fidelity(records, &replayed) {
                    out.problem(format!(
                        "replay fidelity {game:?} {}: {e}; layer numbers are invalid",
                        pipeline.label()
                    ));
                }
            }
            replay_frames.extend(replayed);
        }
        let wall = t.elapsed().as_secs_f64();
        traced_wall += wall;
        if paired {
            // standalone SR is not part of the replayed session
            p3_subset_s += wall - (standalone_sr_ns(&tracer) - sr_before) as f64 / 1e9;
            if !second_first {
                p4_s += replay_untraced()?;
            }
        }
        p1.push(unit);
    }
    // pass 1 and pass 2 time the same frames
    out.set("pool.speedup", p1_subset_s / p2_s);
    out.set("trace.overhead", p3_subset_s / p4_s);

    let layers = tracer.by_name();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let cfg = config(args, games[0], WORKERS);
    let (hw, hh) = (cfg.lr_size.0 * cfg.scale, cfg.lr_size.1 * cfg.scale);
    let render = get("render");
    out.set("render.ms", render.mean_ms());
    out.set(
        "render.ns_per_px",
        render.total_ns as f64 / (render.calls.max(1) * (hw * hh) as u64) as f64,
    );
    for (metric, span) in [
        ("frame.downsample_ms", "frame.downsample"),
        ("roi.detect_ms", "roi.detect"),
        ("codec.encode_intra_ms", "codec.encode_intra"),
        ("codec.encode_inter_ms", "codec.encode_inter"),
        ("codec.decode_ms", "codec.decode"),
        ("client.upscale_ms", "client.upscale"),
        ("sr.patch_ms", "sr.patch"),
        ("sr.bilinear_ms", "sr.bilinear"),
        ("nemo.ref_ms", "nemo.ref"),
        ("nemo.nonref_ms", "nemo.nonref"),
        ("metrics.psnr_ms", "metrics.psnr"),
        ("metrics.foveated_ms", "metrics.foveated"),
        ("metrics.perceptual_ms", "metrics.perceptual"),
    ] {
        out.set(metric, get(span).mean_ms());
    }
    let (rw, rh) = roi_window(&cfg);
    let patch = get("sr.patch");
    let patch_px = (rw * rh * cfg.scale * cfg.scale) as u64 * patch.calls.max(1);
    out.set(
        "sr.patch_ns_per_px",
        patch.total_ns as f64 / patch_px as f64,
    );
    let upscale = get("client.upscale").mean_ms();
    if upscale > 0.0 {
        out.set(
            "client.overlap",
            (patch.mean_ms() + get("sr.bilinear").mean_ms()) / upscale,
        );
    }
    let canvas: Vec<f64> = replay_frames
        .iter()
        .map(|f| f.canvas_bytes as f64)
        .collect();
    out.set("codec.bytes_per_frame", mean(&canvas));

    // session.*: the sink's view of pass 1, less the replayed layers
    out.set(
        "session.setup_ms",
        mean(&p1.iter().map(|u| u.setup_s * 1e3).collect::<Vec<_>>()),
    );
    out.set(
        "session.finalize_ms",
        mean(&p1.iter().map(|u| u.finalize_ms).collect::<Vec<_>>()),
    );
    let p1_frames: Vec<f64> = p1.iter().flat_map(|u| u.frame_ms.clone()).collect();
    out.set("session.frame_ms", mean(&p1_frames));
    let covered = tracer.covered_ns();
    let mut control = Vec::new();
    for (s, cov) in tracer.spans().iter().zip(&covered) {
        if s.name != "frame" {
            continue;
        }
        let session = (s.frame / ID_STRIDE) as usize;
        let index = (s.frame % ID_STRIDE) as usize;
        // pass 1 holds ours' frames, then NEMO's, per game
        if let Some(ms) = p1[session / 2].frame_ms.get(session % 2 * FRAMES + index) {
            control.push(ms - *cov as f64 / 1e6);
        }
    }
    out.set("session.control_ms", mean(&control));
    let events: u64 = p1.iter().map(|u| u.events).sum();
    out.set(
        "telemetry.events_per_frame",
        events as f64 / p1_frames.len().max(1) as f64,
    );

    let layer_self: u64 = layers
        .iter()
        .filter(|(name, _)| **name != "frame")
        .map(|(_, t)| t.self_ns)
        .sum();
    out.set("trace.coverage", layer_self as f64 / 1e9 / traced_wall);

    let path = std::path::Path::new(".perfbench/comparison-spans.jsonl");
    tracer
        .write_jsonl(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "comparison traced: {} spans in {}, replay fidelity {}, frame records digest {:016x}",
        tracer.spans().len(),
        path.display(),
        if out.problems.is_empty() {
            "ok"
        } else {
            "FAILED"
        },
        digest(&p1.iter().collect::<Vec<_>>())
    ));
    Ok(())
}
