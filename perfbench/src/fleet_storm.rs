//! `fleet-storm`: the `figures bigfleet` churn storm, sampled, stepped
//! one tick at a time — 32 scripted sessions, 16 slots and a shared
//! 450 Mbps uplink, server path only.

use crate::replay::canvas_to_full;
use crate::spans::Tracer;
use crate::stats::{fnv64, mean, median, per_session_ms, percentile, position_means};
use crate::{at_workers, pool_workers, Args, Outcome, WORKERS};
use gamestreamsr::fleet::{FleetConfig, FleetReport, FleetSim};
use gamestreamsr::mtp::FULL_LR;
use gamestreamsr::roi::{plan_roi_window, RoiDetectorConfig};
use gamestreamsr::{GameStreamServer, ServerConfig};
use gss_bench::experiments::bigfleet;
use gss_codec::{Decoder, EncoderConfig, RateControlConfig};
use gss_frame::Frame;
use gss_metrics::psnr;
use gss_platform::plane_ops::downsample_box;
use gss_platform::pool::PoolHandle;
use gss_render::GameId;
use std::time::Instant;

/// Storm length: `figures bigfleet --quick`. The crowd schedule scales
/// with the tick count, so every run uses this one.
const TICKS: usize = 160;

/// Set-ups timed per storm; the median is reported.
const SETUPS: usize = 101;

/// Frames per game in the server side pass. A fleet session runs for
/// many frames, so the side pass times frames after each game's first
/// (the keyframe, right after the server is built).
const SIDE_FRAMES: usize = 12;

/// The storm under the seed: bigfleet's config with the sampler on, the
/// seed's link seed, and every session's game shifted along the seed's
/// rotation.
fn storm(args: &Args, workers: usize) -> FleetConfig {
    let mut config = bigfleet::storm_config(TICKS).with_sampling(bigfleet::policy());
    config.link_seed = args.link_seed();
    config.pool = PoolHandle::with_workers(workers);
    let games = args.games();
    for spec in &mut config.sessions {
        let i = GameId::ALL
            .iter()
            .position(|&g| g == spec.game)
            .unwrap_or(0);
        spec.game = games[i];
    }
    config
}

/// One storm, seen from outside. The simulator holds every session's
/// trace until the storm is dropped.
struct Storm {
    sim: FleetSim,
    setup_s: Vec<f64>,
    step_ms: Vec<f64>,
    active: Vec<usize>,
    error: Option<String>,
    finalize_ms: f64,
    report: Option<FleetReport>,
}

impl Storm {
    /// Sets the storm up `SETUPS` times, timing each, and keeps the last.
    fn new(args: &Args, workers: usize) -> Self {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut sim = None;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            sim = Some(FleetSim::new(std::hint::black_box(storm(args, workers))));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        Storm {
            sim: sim.expect("at least one set-up"),
            setup_s,
            step_ms: Vec::with_capacity(TICKS),
            active: Vec::with_capacity(TICKS),
            error: None,
            finalize_ms: 0.0,
            report: None,
        }
    }

    /// One `FleetSim::step`, in a span when traced; a no-op after an
    /// error.
    fn step(&mut self, t: Option<&mut Tracer>) {
        if self.error.is_some() {
            return;
        }
        let tick = self.step_ms.len();
        let t0 = Instant::now();
        let r = match t {
            Some(t) => {
                t.set_frame(tick as u64);
                t.span("fleet.step", |_| self.sim.step())
            }
            None => self.sim.step(),
        };
        self.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.active.push(self.sim.concurrency());
        if let Err(e) = r {
            self.error = Some(format!("tick {tick}: {e}"));
        }
    }

    /// `run_until_idle`, then the failure accounting.
    fn finish(&mut self, t: Option<&mut Tracer>, out: &mut Outcome) {
        let t0 = Instant::now();
        let report = match (self.error.take(), t) {
            (Some(e), _) => Err(e),
            (None, Some(t)) => t
                .span("fleet.finalize", |_| self.sim.run_until_idle())
                .map_err(|e| e.to_string()),
            (None, None) => self.sim.run_until_idle().map_err(|e| e.to_string()),
        };
        self.finalize_ms = t0.elapsed().as_secs_f64() * 1e3;
        match report {
            Ok(r) => {
                let frames = r.total_frames();
                out.attempted += frames;
                let broken = storm_invariants(&r, &self.sim);
                if !broken.is_empty() {
                    // run-level invariants: the whole storm's frames fail
                    out.failed += frames;
                    out.problem(broken.join("; "));
                }
                self.report = Some(r);
            }
            Err(e) => {
                // every session-frame the storm ran
                let ran = self.active.iter().sum::<usize>().max(1) as u64;
                out.attempted += ran;
                out.failed += ran;
                out.problem(format!("storm: {e}"));
            }
        }
    }

    fn wall_s(&self) -> f64 {
        (self.step_ms.iter().sum::<f64>() + self.finalize_ms) / 1e3
    }

    fn frames(&self) -> u64 {
        self.report.as_ref().map_or(0, FleetReport::total_frames)
    }
}

/// Runs one untraced storm to the end.
fn run_storm(args: &Args, workers: usize, out: &mut Outcome) -> Storm {
    let mut s = Storm::new(args, workers);
    for _ in 0..TICKS {
        s.step(None);
    }
    s.finish(None, out);
    s
}

/// The invariants `tests/fleet.rs` and `tests/sampling.rs` assert.
fn storm_invariants(r: &FleetReport, sim: &FleetSim) -> Vec<String> {
    let mut broken = Vec::new();
    if !r.flows_consistent() {
        broken.push("flow ledgers inconsistent".to_owned());
    }
    if r.attributed_fraction() < 0.95 {
        broken.push(format!(
            "attributed fraction {:.3} < 0.95",
            r.attributed_fraction()
        ));
    }
    match sim.sampling_summary() {
        Some(s) if s.anomaly_coverage() == 1.0 => {}
        Some(s) => broken.push(format!("anomaly coverage {} < 1", s.anomaly_coverage())),
        None => broken.push("sampling summary missing".to_owned()),
    }
    broken
}

/// Side pass: `GameStreamServer::next_frame` at the fleet's canvas and
/// rate control over the storm's game mix. Returns (ms per frame after
/// each game's first, mean luma PSNR of the decoded stream against the
/// canvas render over every frame).
fn side_pass(args: &Args, out: &mut Outcome) -> Result<(Vec<f64>, f64), String> {
    let config = storm(args, WORKERS);
    let _bind = config.pool.bind();
    let mut games: Vec<GameId> = config.sessions.iter().map(|s| s.game).collect();
    games.sort();
    games.dedup();
    let byte_scale = canvas_to_full(config.lr_size);
    let mut ms = Vec::new();
    let mut psnr_db = Vec::new();
    // the server `FleetSim` builds for a session, at full allocation
    let plan = plan_roi_window(
        &config.sessions[0].device,
        2,
        FULL_LR.width(),
        FULL_LR.height(),
    );
    let mut rate = RateControlConfig {
        min_quality: 10,
        ..RateControlConfig::for_bitrate_mbps(config.session_rate_mbps)
    };
    rate.target_bytes_per_frame =
        ((rate.target_bytes_per_frame as f64 / byte_scale) as usize).max(1);
    for game in games {
        let mut server = GameStreamServer::new(ServerConfig {
            game,
            lr_size: config.lr_size,
            scale: 2,
            encoder: EncoderConfig {
                quality: config.encoder_quality,
                gop_size: config.gop_size,
                ..EncoderConfig::default()
            },
            detector: RoiDetectorConfig::default(),
            roi_window: plan.scaled_to_canvas(config.lr_size.0, FULL_LR.width()),
            time_stride: (FULL_LR.width() / config.lr_size.0).max(1),
            tracker: None,
            rate_control: Some(rate),
        });
        let mut decoder = Decoder::new();
        for i in 0..SIDE_FRAMES {
            let t0 = Instant::now();
            let p = server
                .next_frame()
                .map_err(|e| format!("side pass {game:?}: {e}"))?;
            if i > 0 {
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let d = decoder
                .decode(&p.encoded)
                .map_err(|e| format!("side pass decode {game:?}: {e}"))?;
            let [y, cb, cr] = p.ground_truth_hr.planes();
            let lr = Frame::from_planes(
                downsample_box(y, 2),
                downsample_box(cb, 2),
                downsample_box(cr, 2),
            )
            .map_err(|e| format!("side pass {game:?}: {e}"))?;
            let v = psnr(&lr, &d.frame).map_err(|e| format!("side pass PSNR {game:?}: {e}"))?;
            if !v.is_finite() {
                out.problem(format!("side pass PSNR {game:?} not finite"));
            }
            psnr_db.push(v);
        }
    }
    Ok((ms, mean(&psnr_db)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out)?;
        return Ok(out);
    }
    let start = Instant::now();
    let (mut storms, mut frames, mut wall) = (0, 0, 0.0);
    let (mut step_ms, mut setups) = (Vec::new(), Vec::new());
    let mut active: Option<Vec<usize>> = None;
    let mut reports = Vec::new();
    let mut last_s = 0.0;
    // whole storms, ending as near `--seconds` as whole storms allow
    while storms == 0 || start.elapsed().as_secs_f64() + last_s / 2.0 < args.seconds {
        // each storm's simulator drops at the end of its iteration, so
        // memory does not grow with the number of storms
        let t = Instant::now();
        let mut s = run_storm(args, WORKERS, &mut out);
        last_s = t.elapsed().as_secs_f64();
        storms += 1;
        frames += s.frames();
        wall += s.wall_s();
        // the schedule is seed-deterministic: every storm admits the
        // same sessions on the same ticks
        match &active {
            None => active = Some(s.active.clone()),
            Some(a) if *a != s.active => out.problem("storms of one seed ran different schedules"),
            Some(_) => {}
        }
        step_ms.push(std::mem::take(&mut s.step_ms));
        setups.extend_from_slice(&s.setup_s);
        reports.extend(s.report.take());
    }
    // each tick of the storm: its mean over the storms
    let tick_ms = position_means(&step_ms);
    // a session-frame's share of its tick
    let per_session = per_session_ms(&tick_ms, active.as_deref().unwrap_or_default());
    out.set("frames_per_s", frames as f64 / wall);
    out.set("frame_ms_p50", percentile(&per_session, 0.5)?);
    out.set("frame_ms_p90", percentile(&per_session, 0.9)?);
    out.set("tick_ms_p50", percentile(&tick_ms, 0.5)?);
    out.set("tick_ms_p90", percentile(&tick_ms, 0.9)?);
    out.set("setup_s", median(&setups));
    let fps: Vec<f64> = reports
        .iter()
        .map(FleetReport::mean_fps_effective)
        .collect();
    out.set("fps_effective", mean(&fps));
    let bytes: u64 = reports.iter().map(|r| r.total_flow().bytes).sum();
    out.set(
        "bitrate_mbps",
        bytes as f64 / frames.max(1) as f64 * 8.0 * 60.0 / 1e6,
    );
    let (_, psnr_db) = side_pass(args, &mut out)?;
    out.set("psnr_db", psnr_db);
    out.notes.push(format!(
        "fleet-storm: {storms} storm(s) of {TICKS} ticks, {frames} session-frames, report digest {:016x}",
        reports.first().map_or(0, |r| fnv64(r.to_json().as_bytes()))
    ));
    Ok(out)
}

/// The traced run: three storms stepped in lockstep, tick by tick —
/// untraced (pass 1), untraced at the host's parallelism (pass 2, the
/// pool pass) and traced (pass 3: a span per step, `run_until_idle` and
/// `to_chrome_json`) — so that each paired ratio sees the same host
/// conditions; then the side pass.
fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let pool = pool_workers();
    let mut p1 = Storm::new(args, WORKERS);
    let mut p2 = Storm::new(args, pool);
    let mut p3 = Storm::new(args, WORKERS);
    let mut t = Tracer::new(true);
    let mut traced_wall = 0.0;
    for _ in 0..TICKS {
        p1.step(None);
        at_workers(pool, || p2.step(None));
        let t0 = Instant::now();
        p3.step(Some(&mut t));
        traced_wall += t0.elapsed().as_secs_f64();
    }
    p1.finish(None, out);
    at_workers(pool, || p2.finish(None, out));
    let t0 = Instant::now();
    p3.finish(Some(&mut t), out);
    let json = t.span("telemetry.export", |_| p3.sim.to_chrome_json());
    traced_wall += t0.elapsed().as_secs_f64();
    let fps = |s: &Storm| s.frames() as f64 / s.wall_s();
    out.set("pool.speedup", fps(&p2) / fps(&p1));
    // the side pass runs on one worker, like pass 1, so that their
    // difference is the serial per-session cost around the server path
    let (side_ms, _) = side_pass(args, out)?;

    let layers = t.by_name();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let step = get("fleet.step").mean_ms();
    out.set("fleet.step_ms", step);
    let per_session = mean(&per_session_ms(&p3.step_ms, &p3.active));
    out.set("fleet.step_ms_per_session", per_session);
    let server_frame = mean(&side_ms);
    out.set("fleet.server_frame_ms", server_frame);
    let serial_per_session = mean(&per_session_ms(&p1.step_ms, &p1.active));
    out.set("fleet.control_ms", serial_per_session - server_frame);
    out.set("fleet.finalize_ms", get("fleet.finalize").mean_ms());
    out.set("telemetry.export_ms", get("telemetry.export").mean_ms());
    out.set("telemetry.export_bytes", json.len() as f64);
    let frames = p3.frames().max(1) as f64;
    out.set(
        "telemetry.events_per_frame",
        json.matches("\"ph\":").count() as f64 / frames,
    );
    if let Some(s) = p3.sim.sampling_summary() {
        out.set("telemetry.retained_frac", s.retained as f64 / frames);
    }
    out.set("trace.overhead", p3.wall_s() / p1.wall_s());
    let layer_self: u64 = layers.values().map(|l| l.self_ns).sum();
    out.set("trace.coverage", layer_self as f64 / 1e9 / traced_wall);
    let path = std::path::Path::new(".perfbench/fleet-storm-spans.jsonl");
    t.write_jsonl(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "fleet-storm traced: {} spans in {}, report digest {:016x}",
        t.spans().len(),
        path.display(),
        p1.report
            .as_ref()
            .map_or(0, |r| fnv64(r.to_json().as_bytes()))
    ));
    Ok(())
}
