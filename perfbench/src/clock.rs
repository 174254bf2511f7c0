//! A telemetry sink that stamps session and frame boundaries with host
//! time. Attached with `SessionConfig::with_telemetry`, it sees the same
//! event stream `run_session` sends its internal trace sink, so frame
//! host time is measured without touching the program.

use gss_telemetry::{Event, Sink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A session or frame boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    SessionStart,
    FrameStart(u64),
    FrameEnd(u64),
    SessionEnd,
}

/// Boundaries seen so far, plus a count of every event.
#[derive(Debug, Default)]
pub struct ClockLog {
    pub marks: Vec<(Mark, Instant)>,
    pub events: u64,
}

/// Cloning shares the log: keep one clone, hand the other to the session.
#[derive(Debug, Default, Clone)]
pub struct ClockSink {
    log: Arc<Mutex<ClockLog>>,
}

impl ClockSink {
    /// Takes everything recorded so far, leaving the log empty.
    pub fn take(&self) -> ClockLog {
        std::mem::take(&mut *self.log.lock().expect("clock sink poisoned"))
    }
}

impl Sink for ClockSink {
    fn emit(&mut self, event: &Event) {
        let now = Instant::now();
        let mark = match event {
            Event::SessionStart { .. } => Some(Mark::SessionStart),
            Event::FrameStart { frame } => Some(Mark::FrameStart(*frame)),
            Event::FrameEnd { frame, .. } => Some(Mark::FrameEnd(*frame)),
            Event::SessionEnd { .. } => Some(Mark::SessionEnd),
            _ => None,
        };
        let mut log = self.log.lock().expect("clock sink poisoned");
        log.events += 1;
        if let Some(m) = mark {
            log.marks.push((m, now));
        }
    }
}

/// Host timings of one session, cut from its marks.
#[derive(Debug, Default, Clone)]
pub struct SessionClock {
    /// FrameStart → FrameEnd per frame, ms, in frame order.
    pub frame_ms: Vec<f64>,
    pub first_frame: Option<Instant>,
    pub end: Option<Instant>,
}

/// Splits a log into sessions at each SessionStart.
pub fn sessions(log: &ClockLog) -> Vec<SessionClock> {
    let mut out: Vec<SessionClock> = Vec::new();
    let mut open: Option<(u64, Instant)> = None;
    for &(mark, at) in &log.marks {
        match mark {
            Mark::SessionStart => out.push(SessionClock::default()),
            Mark::FrameStart(f) => {
                open = Some((f, at));
                if let Some(s) = out.last_mut() {
                    s.first_frame.get_or_insert(at);
                }
            }
            Mark::FrameEnd(f) => {
                if let (Some((g, t0)), Some(s)) = (open.take(), out.last_mut()) {
                    if g == f {
                        s.frame_ms.push(at.duration_since(t0).as_secs_f64() * 1e3);
                    }
                }
            }
            Mark::SessionEnd => {
                if let Some(s) = out.last_mut() {
                    s.end = Some(at);
                }
            }
        }
    }
    out
}
