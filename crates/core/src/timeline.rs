//! Phase timelines: turning a [`ScenarioReport`] into spans and rendering
//! them as an ASCII Gantt chart — a quick visual of where an inference's
//! time went (the at-a-glance version of the paper's Fig. 7).

use crate::scenario::ScenarioReport;
use snapedge_trace::Trace;
use std::time::Duration;

/// Which machine a phase ran on (or the wire between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The client board.
    Client,
    /// The network.
    Network,
    /// The edge server.
    Server,
}

/// One phase of an inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name.
    pub name: &'static str,
    /// Where it ran.
    pub lane: Lane,
    /// Start, relative to the inference click.
    pub start: Duration,
    /// End, relative to the inference click.
    pub end: Duration,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Display name, lane and canonical trace-event names of each phase. The
/// codec events are folded into the neighbouring capture/restore phases,
/// matching [`crate::Breakdown`]'s accounting.
const PHASES: [(&str, Lane, &[&str]); 8] = [
    ("exec (client)", Lane::Client, &["exec_client"]),
    (
        "capture (client)",
        Lane::Client,
        &["capture_client", "compress_up"],
    ),
    ("transfer up", Lane::Network, &["transfer_up"]),
    (
        "restore (server)",
        Lane::Server,
        &["decompress_up", "restore_server"],
    ),
    ("exec (server)", Lane::Server, &["exec_server"]),
    (
        "capture (server)",
        Lane::Server,
        &["capture_server", "compress_down"],
    ),
    ("transfer down", Lane::Network, &["transfer_down"]),
    (
        "restore (client)",
        Lane::Client,
        &["decompress_down", "restore_client"],
    ),
];

/// The phase spans of an offloaded inference, derived from the report's
/// event trace and rebased so the inference click is time zero.
/// Local/server-only runs produce a single execution span.
pub fn spans(report: &ScenarioReport) -> Vec<Span> {
    spans_of_trace(&report.trace, report.clicked_at)
}

/// Extracts the canonical phase spans from any scenario trace, shifting
/// timestamps so `origin` (usually the click time) becomes zero. Events
/// from before `origin` — model pre-sending, the ACK — are not phases and
/// are skipped.
pub fn spans_of_trace(trace: &Trace, origin: Duration) -> Vec<Span> {
    let mut out = Vec::new();
    for (name, lane, event_names) in PHASES {
        let mut start: Option<Duration> = None;
        let mut end = Duration::ZERO;
        for event in trace.events() {
            if event_names.contains(&event.name.as_str()) {
                start = Some(start.map_or(event.start, |s| s.min(event.start)));
                end = end.max(event.end);
            }
        }
        if let Some(s) = start {
            if end > s {
                out.push(Span {
                    name,
                    lane,
                    start: s.saturating_sub(origin),
                    end: end.saturating_sub(origin),
                });
            }
        }
    }
    out.sort_by_key(|s| (s.start, s.end));
    out
}

/// Renders spans as a fixed-width ASCII Gantt chart. `width` is the number
/// of character cells representing the full duration (minimum 10).
pub fn render_ascii(spans: &[Span], width: usize) -> String {
    let width = width.max(10);
    let total = spans.iter().map(|s| s.end).max().unwrap_or(Duration::ZERO);
    if total.is_zero() {
        return String::from("(empty timeline)\n");
    }
    let scale = |t: Duration| -> usize {
        ((t.as_secs_f64() / total.as_secs_f64()) * width as f64).round() as usize
    };
    let mut out = String::new();
    for span in spans {
        let lane = match span.lane {
            Lane::Client => "C",
            Lane::Network => "N",
            Lane::Server => "S",
        };
        let begin = scale(span.start).min(width);
        let end = scale(span.end).clamp(begin + 1, width.max(begin + 1));
        let mut bar = String::with_capacity(width + 2);
        for _ in 0..begin {
            bar.push(' ');
        }
        for _ in begin..end {
            bar.push('#');
        }
        out.push_str(&format!(
            "{lane} {name:<18} |{bar:<width$}| {secs:>8.3}s\n",
            name = span.name,
            secs = span.duration().as_secs_f64(),
        ));
    }
    out.push_str(&format!("  {:<18} total {:.3}s\n", "", total.as_secs_f64()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_scenario, SessionConfig, Strategy};

    #[test]
    fn spans_cover_the_whole_inference() {
        let report = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
        let spans = spans(&report);
        assert!(!spans.is_empty());
        // Contiguous, ordered, and ending at the total.
        for pair in spans.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let last = spans.last().unwrap();
        assert!(last.end.abs_diff(report.total) < Duration::from_millis(1));
    }

    #[test]
    fn local_runs_have_one_span() {
        let report = run_scenario(&SessionConfig::tiny(), Strategy::ClientOnly).unwrap();
        let spans = spans(&report);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, Lane::Client);
    }

    #[test]
    fn render_contains_every_phase_and_respects_width() {
        let report = run_scenario(&SessionConfig::tiny(), Strategy::OffloadAfterAck).unwrap();
        let chart = render_ascii(&spans(&report), 40);
        assert!(chart.contains("exec (server)"));
        assert!(chart.contains("transfer up"));
        assert!(chart.contains("total"));
        for line in chart.lines() {
            assert!(line.len() < 100, "line too long: {line}");
        }
    }

    #[test]
    fn empty_timeline_renders_gracefully() {
        assert_eq!(render_ascii(&[], 40), "(empty timeline)\n");
    }
}
