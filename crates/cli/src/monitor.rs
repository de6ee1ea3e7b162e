//! `recipe-mine monitor`: a terminal tail for a running server.
//!
//! Polls `GET /metrics` over one keep-alive connection (reconnecting
//! transparently when the server's idle timeout closes it between
//! polls) and validates each document as a telemetry document. The
//! server keeps only cumulative counts, so the monitor keeps a bounded
//! history of its scrapes and derives the rest with
//! [`recipe_obs::slo::derive`]: the last interval's request rate and
//! p50/p99, and the multi-window burn-rate level. A serving count or
//! the uptime falling between two polls means the server restarted,
//! and the history starts over ([`Scrape::restarted_since`]). Each poll prints one line on stderr and, with `--out`,
//! appends the raw document and its derived view as JSONL. The final
//! stdout JSON summarizes the run, so `--once` doubles as a CI probe: it
//! exits nonzero when the server is unreachable or the document fails
//! validation, and reads the since-start view.

use crate::args::MonitorOptions;
use crate::commands::CliError;
use recipe_obs::slo::{derive, BurnWindow, Scrape, View};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-request socket timeout: a healthy server answers `/metrics` in
/// microseconds, so anything past this is "gone", not "slow".
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A minimal HTTP/1.1 client that holds one keep-alive connection.
///
/// Responses are framed by `Content-Length` (the server sets it on
/// every response), never by EOF, so the connection survives across
/// polls and exercises the server's keep-alive reuse path.
struct HttpClient {
    addr: String,
    conn: Option<TcpStream>,
}

impl HttpClient {
    fn new(addr: &str) -> Self {
        HttpClient {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// `GET path`, returning `(status, parsed JSON body)`.
    fn get(&mut self, path: &str) -> Result<(u16, Value), CliError> {
        // A kept-alive connection may have been closed idle or hit its
        // request cap since the last poll; retry once on a fresh one.
        if let Some(conn) = self.conn.take() {
            if let Ok(got) = self.round_trip(conn, path) {
                return Self::parse_body(path, got);
            }
        }
        let conn =
            TcpStream::connect(&self.addr).map_err(|e| CliError::Io(self.addr.clone(), e))?;
        let got = self
            .round_trip(conn, path)
            .map_err(|e| CliError::Io(format!("{} {path}", self.addr), e))?;
        Self::parse_body(path, got)
    }

    fn parse_body(path: &str, (status, body): (u16, String)) -> Result<(u16, Value), CliError> {
        let doc: Value = serde_json::from_str(&body)
            .map_err(|e| CliError::Stats(format!("{path}: body is not JSON: {e}")))?;
        Ok((status, doc))
    }

    /// One request/response on `conn`; parks it back when the server
    /// agreed to keep the connection alive.
    fn round_trip(&mut self, mut conn: TcpStream, path: &str) -> std::io::Result<(u16, String)> {
        conn.set_read_timeout(Some(IO_TIMEOUT))?;
        conn.set_write_timeout(Some(IO_TIMEOUT))?;
        write!(conn, "GET {path} HTTP/1.1\r\nHost: monitor\r\n\r\n")?;
        conn.flush()?;

        // Head: byte-wise until the blank line (no over-read — the
        // body must come off the same socket by exact length).
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            if conn.read(&mut byte)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ));
            }
            head.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&head).into_owned();
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let header = |name: &str| -> Option<String> {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing Content-Length")
            })?;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body)?;

        let keep = header("connection")
            .map(|v| v.eq_ignore_ascii_case("keep-alive"))
            .unwrap_or(false);
        if keep {
            self.conn = Some(conn);
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// Scrapes kept per burn window, like the slots of a ring: a window's
/// far edge then lands within a thirtieth of its length.
const SAMPLES_PER_WINDOW: f64 = 30.0;

/// The scrapes of one server run, bounded: for each window length, a
/// tier of scrapes at least a thirtieth of it apart that reaches just
/// past it, plus the two newest for the interval view.
struct History {
    tiers: Vec<(f64, VecDeque<Scrape>)>,
    newest: VecDeque<Scrape>,
}

impl History {
    fn new(pairs: &[BurnWindow]) -> Self {
        History {
            tiers: pairs
                .iter()
                .flat_map(|p| [p.long_s, p.short_s])
                .map(|w| (w, VecDeque::new()))
                .collect(),
            newest: VecDeque::new(),
        }
    }

    /// Add the newest scrape; true when it starts the history over
    /// because the server restarted since the previous one.
    fn add_scrape(&mut self, scrape: Scrape) -> bool {
        let restarted = self
            .newest
            .back()
            .is_some_and(|last| scrape.restarted_since(last));
        if restarted {
            self.newest.clear();
            self.tiers.iter_mut().for_each(|(_, tier)| tier.clear());
        }
        for (w, tier) in &mut self.tiers {
            if tier
                .back()
                .is_none_or(|b| scrape.t_s - b.t_s >= *w / SAMPLES_PER_WINDOW)
            {
                tier.push_back(scrape.clone());
            }
            while tier.get(1).is_some_and(|s| s.t_s <= scrape.t_s - *w) {
                tier.pop_front();
            }
        }
        if self.newest.len() == 2 {
            self.newest.pop_front();
        }
        self.newest.push_back(scrape);
        restarted
    }

    /// Every kept scrape, oldest first.
    fn scrapes(&self) -> Vec<Scrape> {
        let mut all: Vec<Scrape> = self
            .tiers
            .iter()
            .flat_map(|(_, tier)| tier.iter())
            .chain(&self.newest)
            .cloned()
            .collect();
        all.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        all.dedup_by(|a, b| a.t_s == b.t_s);
        all
    }
}

/// Render the one-line view of a poll.
fn render_line(elapsed_s: f64, metrics: &Value, view: &View) -> String {
    let i = &view.interval;
    let drift = &metrics["drift"];
    let drift_view = if drift["active"] == json!(true) {
        format!(
            "{} ({:.3})",
            drift["level"].as_str().unwrap_or("?"),
            drift["score"].as_f64().unwrap_or(0.0)
        )
    } else {
        "off".to_string()
    };
    format!(
        "[{elapsed_s:7.1}s] {} req in {:.1}s ({:.2}/s) err {} shed {} | \
         p50 {:.2}ms p99 {:.2}ms | slo {} | drift {drift_view}",
        i.requests,
        i.seconds,
        i.per_s,
        i.errors,
        i.shed,
        i.p50_s * 1e3,
        i.p99_s * 1e3,
        view.level,
    )
}

/// Run the monitor loop; returns the stdout summary JSON.
pub fn run_monitor(opts: &MonitorOptions) -> Result<String, CliError> {
    let mut client = HttpClient::new(&opts.addr);
    let polls = if opts.once { Some(1) } else { opts.count };
    let started = Instant::now();
    let pairs = BurnWindow::production();
    let mut history = History::new(&pairs);
    let mut restarts: u64 = 0;
    let mut done: u64 = 0;

    let mut out_file = match &opts.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| CliError::Io(path.clone(), e))?,
        ),
        None => None,
    };

    let (last_metrics, last_view) = loop {
        let (status, metrics) = client.get("/metrics")?;
        if status != 200 {
            return Err(CliError::Stats(format!("/metrics returned {status}")));
        }
        recipe_obs::validate_document(&metrics)
            .map_err(|e| CliError::Stats(format!("/metrics: {e}")))?;
        if history.add_scrape(Scrape::from_telemetry(&metrics["telemetry"])) {
            restarts += 1;
            eprintln!("server restarted: counts fell, history starts over");
        }
        let view = derive(&history.scrapes(), &pairs);

        let elapsed_s = started.elapsed().as_secs_f64();
        eprintln!("{}", render_line(elapsed_s, &metrics, &view));

        if let Some(f) = out_file.as_mut() {
            let snapshot = json!({
                "poll": done,
                "elapsed_s": elapsed_s,
                "addr": opts.addr,
                "metrics": metrics,
                "view": view,
            });
            let rendered = serde_json::to_string(&snapshot)
                .map_err(|e| CliError::Stats(format!("snapshot serialization: {e}")))?;
            writeln!(f, "{rendered}")
                .map_err(|e| CliError::Io(opts.out.clone().unwrap_or_default(), e))?;
        }

        done += 1;
        if polls.map(|n| done >= n).unwrap_or(false) {
            break (metrics, view);
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    };

    let profile = &last_metrics["telemetry"]["profile"];
    let summary = json!({
        "monitored": { "addr": opts.addr, "polls": done, "restarts": restarts },
        "slo_level": last_view.level,
        "view": last_view,
        "drift": last_metrics["drift"],
        "profile": {
            "stages": profile["nodes"].as_array().map(|n| n.len()).unwrap_or(0),
            "total_ticks": profile["total_ticks"],
        },
    });
    let rendered = serde_json::to_string_pretty(&summary)
        .map_err(|e| CliError::Stats(format!("summary serialization: {e}")))?;
    Ok(format!("{rendered}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/metrics` document after `requests` answers at `uptime_s`,
    /// `bad` of them unavailable, all within the first latency bucket.
    fn metrics_doc(uptime_s: f64, requests: u64, bad: u64) -> Value {
        json!({
            "telemetry": {
                "counters": {
                    "serve.shed": 0,
                    "slo.availability.count": requests,
                    "slo.availability.good": requests - bad,
                    "slo.latency.count": requests,
                    "slo.latency.good": requests,
                },
                "gauges": { "serve.uptime_s": uptime_s },
                "histograms": {
                    "serve.request.latency_s": {
                        "count": requests, "bounds": [0.001, 0.004], "buckets": [requests, 0, 0],
                    },
                },
            },
            "drift": { "active": true, "level": "stable", "score": 0.02 },
        })
    }

    fn poll(history: &mut History, doc: &Value) -> (bool, View) {
        let restarted = history.add_scrape(Scrape::from_telemetry(&doc["telemetry"]));
        (
            restarted,
            derive(&history.scrapes(), &BurnWindow::production()),
        )
    }

    #[test]
    fn line_shows_the_interval_between_polls() {
        let mut history = History::new(&BurnWindow::production());
        let first = metrics_doc(10.0, 60, 0);
        let (_, view) = poll(&mut history, &first);
        // One scrape: the since-start view.
        let line = render_line(1.0, &first, &view);
        assert!(line.contains("60 req in 10.0s (6.00/s)"), "{line}");
        assert!(line.contains("slo ok"), "{line}");
        assert!(line.contains("drift stable (0.020)"), "{line}");
        let second = metrics_doc(12.0, 100, 0);
        let (_, view) = poll(&mut history, &second);
        let line = render_line(3.0, &second, &view);
        assert!(line.contains("40 req in 2.0s (20.00/s)"), "{line}");
        assert!(line.contains("p99 1.00ms"), "{line}");
    }

    #[test]
    fn falling_counts_restart_the_history() {
        let mut history = History::new(&BurnWindow::production());
        let (restarted, _) = poll(&mut history, &metrics_doc(100.0, 5000, 100));
        assert!(!restarted);
        // The new server run starts at zero: its first poll reads the
        // since-start view, not a negative delta against the old run.
        let (restarted, view) = poll(&mut history, &metrics_doc(2.0, 40, 0));
        assert!(restarted);
        assert_eq!(view.interval.requests, 40);
        assert_eq!(view.interval.per_s, 20.0);
        assert_eq!(view.level, "ok", "the old run's burn is gone");
        assert_eq!(history.scrapes().len(), 1);
    }

    #[test]
    fn burst_of_bad_requests_reads_critical() {
        let mut history = History::new(&BurnWindow::production());
        poll(&mut history, &metrics_doc(30.0, 1000, 0));
        let (_, view) = poll(&mut history, &metrics_doc(32.0, 1100, 50));
        assert_eq!(view.level, "critical", "{view:?}");
    }

    #[test]
    fn history_stays_bounded_per_window() {
        let mut history = History::new(&BurnWindow::production());
        // A week of polls every 2 s: every tier keeps about thirty.
        let mut t = 0.0;
        for _ in 0..302_400 {
            t += 2.0;
            history.add_scrape(Scrape {
                t_s: t,
                ..Scrape::default()
            });
        }
        let kept = history.scrapes().len();
        assert!(kept <= 4 * 32 + 2, "{kept} scrapes kept");
        // The 3-day window still reaches back at least 3 days.
        let oldest = history.scrapes()[0].t_s;
        assert!(t - oldest >= 259_200.0, "{}", t - oldest);
    }

    #[test]
    fn inactive_drift_renders_off() {
        let mut doc = metrics_doc(1.0, 1, 0);
        if let Value::Object(entries) = &mut doc {
            entries.retain(|(k, _)| k != "drift");
            entries.push(("drift".to_string(), json!({ "active": false })));
        }
        let mut history = History::new(&BurnWindow::production());
        let (_, view) = poll(&mut history, &doc);
        assert!(render_line(0.0, &doc, &view).contains("drift off"));
    }

    #[test]
    fn unreachable_server_is_an_io_error() {
        // Reserved port 0 never accepts.
        let mut client = HttpClient::new("127.0.0.1:1");
        match client.get("/metrics") {
            Err(CliError::Io(addr, _)) => assert!(addr.contains("127.0.0.1:1")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
