//! Host-time benchmark for the GameStreamSR reproduction.
//!
//! ```text
//! perfbench --workload <comparison|client-replay|fleet-storm> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that times each layer by
//! wrapping calls into its public functions. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. See `NOTES.md` beside this crate for what each workload and
//! metric means.

mod client_replay;
mod clock;
mod comparison;
mod fleet_storm;
mod replay;
mod spans;
mod stats;

use gss_platform::pool::{self, PoolHandle};
use gss_render::GameId;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("psnr_db", "dB"),
    ("fps_effective", "fps"),
    ("bitrate_mbps", "Mbps"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("render.ms", "ms"),
    ("render.ns_per_px", "ns/px"),
    ("frame.downsample_ms", "ms"),
    ("roi.detect_ms", "ms"),
    ("codec.encode_intra_ms", "ms"),
    ("codec.encode_inter_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes_per_frame", "B"),
    ("client.upscale_ms", "ms"),
    ("client.overlap", "ratio"),
    ("sr.patch_ms", "ms"),
    ("sr.patch_ns_per_px", "ns/px"),
    ("sr.bilinear_ms", "ms"),
    ("nemo.ref_ms", "ms"),
    ("nemo.nonref_ms", "ms"),
    ("metrics.psnr_ms", "ms"),
    ("metrics.foveated_ms", "ms"),
    ("metrics.perceptual_ms", "ms"),
    ("session.setup_ms", "ms"),
    ("session.frame_ms", "ms"),
    ("session.control_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("telemetry.events_per_frame", "count"),
    ("telemetry.retained_frac", "ratio"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.export_bytes", "B"),
    ("fleet.step_ms", "ms"),
    ("fleet.step_ms_per_session", "ms"),
    ("fleet.server_frame_ms", "ms"),
    ("fleet.control_ms", "ms"),
    ("fleet.finalize_ms", "ms"),
    ("pool.speedup", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Worker count of every pool in the measured runs and in the traced
/// run's layer passes. On a host of a few shared cores, a pass that keeps
/// both cores busy times how the host schedules its second core as much
/// as the program: one worker leaves the NPU ∥ GPU legs of the client's
/// upscale as the only two threads that run at once.
pub const WORKERS: usize = 1;

/// Worker count of the traced run's pool pass: the host's parallelism,
/// capped like the program's own default.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Runs `f` with every pool at `n` workers: the calling thread's binding
/// and the process-wide count, which threads spawned inside the program
/// (the NPU leg of the client's upscale, a fleet's session workers) fall
/// back to. Restores [`WORKERS`] after.
pub fn at_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    pool::set_workers(n);
    let result = {
        let _bind = PoolHandle::with_workers(n).bind();
        f()
    };
    pool::set_workers(WORKERS);
    result
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(20.0);
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    /// The game rotation the seed picks: every game once, starting at a
    /// seed-chosen offset.
    pub fn games(&self) -> Vec<GameId> {
        let n = GameId::ALL.len();
        let offset = (self.seed % n as u64) as usize;
        (0..n).map(|i| GameId::ALL[(offset + i) % n]).collect()
    }

    /// Link seed derived from the workload seed (splitmix64).
    pub fn link_seed(&self) -> u64 {
        let mut z = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    /// Session-frames attempted.
    pub attempted: u64,
    /// Session-frames whose call errored or whose output broke an
    /// invariant.
    pub failed: u64,
    /// Run-level checks (replay fidelity, loop identity) that failed.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Informational lines printed before the result (digests, samples).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// The process's peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "comparison" => comparison::run(args),
        "client-replay" => client_replay::run(args),
        "fleet-storm" => fleet_storm::run(args),
        other => Err(format!(
            "unknown workload {other} (comparison, client-replay, fleet-storm)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pool::set_workers(WORKERS);
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => {
                out.problem(format!("{name} is not finite ({v})"));
                0.0
            }
            // per-layer: the workload never calls this layer
            None if args.trace => 0.0,
            None => {
                out.problem(format!("{name} was not measured"));
                0.0
            }
        };
        println!("{name:>28} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    if out.attempted == 0 {
        eprintln!("perfbench: {}: nothing was attempted", args.workload);
        return ExitCode::from(1);
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
