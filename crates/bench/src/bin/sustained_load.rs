//! Sustained-load serving benchmark: open-loop latency SLOs for
//! `recipe-serve` under fixed offered rates, plus the cost of the live
//! monitoring plane.
//!
//! Boots an in-process [`recipe_serve::Server`] over a compiled `.rma`
//! model, then offers traffic at two (or more) fixed QPS targets on a
//! deterministic schedule: exponential inter-arrival gaps drawn from a
//! seeded stream ([`recipe_bench::timing::arrival_offsets`]), so every
//! run at the same `(qps, n, seed)` replays the same arrival times.
//! The loop is *open*: requests fire at their scheduled instant
//! regardless of how the previous one fared, and latency is measured
//! from the scheduled arrival to the last response byte — queueing
//! delay under overload is part of the number, as it is for a real
//! client.
//!
//! Every target runs in paired trials across two server modes: a bare
//! server (`qps{N}_nomon`: monitoring off) and the full plane
//! (historical `qps{N}` names, so `recipe-mine bench-diff` trends stay
//! continuous: slow-request exemplars, drift sampling against an
//! embedded reference and the per-endpoint request profiler served in
//! `/metrics`). Both modes keep the one cumulative per-request record
//! (latency histogram and SLO counts). Outside smoke mode the run fails
//! if monitoring inflates its target's best-of-trials p99 by more than
//! 5% (with a 200 µs absolute allowance for scheduler noise) — the
//! overhead gate.
//!
//! Per target the report carries p50/p99/p999 (as the gated
//! `median_s`/`p99_s`/`p999_s` fields), the shed rate (503 responses
//! from the bounded admission queue) and the error rate. The report is
//! appended to `results/bench_history.jsonl` for `recipe-mine
//! bench-diff`, keyed per target row as `qps{N}` x `threads = shards`.
//!
//! Usage: `sustained_load [total_recipes] [seed] [out.json] [--smoke]`

use recipe_bench::timing::{arrival_offsets, stats_json, Stats};
use recipe_bench::ExperimentScale;
use recipe_core::pipeline::TrainedPipeline;
use recipe_core::ArtifactPipeline;
use recipe_corpus::{RecipeCorpus, Site};
use recipe_serve::{ServeConfig, ServeModel, Server};
use serde_json::{json, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads offering the load. Each owns every C-th arrival, so
/// one slow response only delays that thread's share of the schedule.
const CLIENT_THREADS: usize = 8;

/// Relative p99 inflation monitoring is allowed to cost (non-smoke).
const OVERHEAD_FRAC_MAX: f64 = 0.05;

/// Absolute p99 allowance absorbing scheduler noise on tiny latencies.
const OVERHEAD_ABS_S: f64 = 200e-6;

/// Outcome of one offered request.
struct Sample {
    /// Seconds from the scheduled arrival to the last response byte.
    latency_s: f64,
    /// HTTP status, or 0 for a transport error.
    status: u16,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    let mut args = raw.iter().filter(|a| a.as_str() != "--smoke");
    let default_total = if smoke { 40 } else { 120 };
    let total: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_total);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let out_path = args
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_sustained_load.json".into());

    let scale = ExperimentScale::for_total(total, seed);
    eprintln!("generating corpus of {total} recipes (seed {seed})...");
    let corpus = RecipeCorpus::generate(&scale.corpus);
    eprintln!("training + compiling the served model...");
    let pipeline = TrainedPipeline::train(&corpus, &scale.pipeline);

    let phrases: Vec<String> = corpus
        .phrases(Site::AllRecipes)
        .iter()
        .map(|p| p.text())
        .collect();
    assert!(!phrases.is_empty(), "corpus produced no phrases");

    // Embed a drift reference so the monitoring-on run pays the full
    // live plane: slow table, request profile AND drift scoring.
    let reference = recipe_core::artifact::capture_drift_reference(&pipeline, &phrases);
    let bytes: Arc<[u8]> =
        recipe_core::artifact::artifact_bytes_with_reference(&pipeline, Some(&reference))
            .expect("serialize artifact")
            .into();

    // Offered load per target: about one second of traffic in smoke
    // mode, about two seconds otherwise — enough arrivals for a stable
    // p99 without dominating CI wall time.
    let targets: Vec<(f64, usize)> = if smoke {
        vec![(100.0, 100), (300.0, 300)]
    } else {
        vec![(250.0, 500), (750.0, 1500)]
    };

    // Paired trials: each trial runs both modes against fresh servers
    // sharing the trial's arrival schedule, so the modes see
    // identical offered load. The gates compare the *minimum* p99
    // across trials per mode — an open-loop p99 over a couple thousand
    // samples is one scheduler hiccup away from 5x, and the min is the
    // standard noise-robust estimate of the clean value. History rows
    // pool every trial's samples for a stable trend line.
    let modes: [(&str, bool); 2] = [("_nomon", false), ("", true)];
    let trials = if smoke { 1 } else { 3 };
    let mut pooled: Vec<Vec<Vec<Sample>>> = modes
        .iter()
        .map(|_| targets.iter().map(|_| Vec::new()).collect())
        .collect();
    let mut p99_min: Vec<Vec<f64>> = vec![vec![f64::INFINITY; targets.len()]; modes.len()];
    let mut shards = 0;
    let mut profile_doc = Value::Null;
    for trial in 0..trials {
        for (mode, &(_, monitoring)) in modes.iter().enumerate() {
            let model = ServeModel::Rma(
                ArtifactPipeline::from_bytes(Arc::clone(&bytes), false).expect("load artifact"),
            );
            // Shards are pinned (not derived from the machine) so the
            // history row key `(name, threads)` is stable across hosts
            // and CI runners.
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                shards: 2,
                queue_cap: 512,
                monitoring,
                ..ServeConfig::default()
            };
            let server = Server::launch(&cfg, model, (String::from("<in-process>"), false))
                .expect("launch server");
            let addr = server.local_addr();
            shards = server.shards();
            eprintln!(
                "trial {trial}: serving on {addr} with {shards} shards \
                 (monitoring={monitoring})"
            );

            for (i, &(qps, requests)) in targets.iter().enumerate() {
                eprintln!("offering {requests} requests at {qps} QPS...");
                let schedule_seed = seed.wrapping_add((trial * targets.len() + i) as u64);
                let samples = fire_target(addr, &phrases, qps, requests, schedule_seed);
                let served: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.status == 200)
                    .map(|s| s.latency_s)
                    .collect();
                if !served.is_empty() {
                    let trial_p99 = Stats::from_samples(served).p99;
                    p99_min[mode][i] = p99_min[mode][i].min(trial_p99);
                }
                pooled[mode][i].extend(samples);
            }

            // Keep the last full-plane trial's stage attribution: the
            // report's `profile` block rides into bench history so
            // bench-diff can name the stage behind a percentile shift.
            if monitoring {
                profile_doc = serde_json::to_value(&server.profile());
            }

            server.request_shutdown();
            server.join();
        }
    }

    let mut rows: Vec<Value> = Vec::new();
    for (mode, &(suffix, _)) in modes.iter().enumerate() {
        for (i, &(qps, _)) in targets.iter().enumerate() {
            let (row, _) = target_row(qps, suffix, shards, &pooled[mode][i]);
            rows.push(row);
        }
    }

    // The overhead gate: best-of-trials p99 with monitoring on may not
    // exceed the bare twin's by more than 5% (plus an absolute
    // allowance for scheduler noise at microsecond latencies).
    let mut overhead_rows: Vec<Value> = Vec::new();
    for (i, &(qps, _)) in targets.iter().enumerate() {
        let off = p99_min[0][i];
        let on = p99_min[1][i];
        let frac = if off > 0.0 { (on - off) / off } else { 0.0 };
        eprintln!(
            "monitoring overhead at {qps} QPS: p99 {:.1}us -> {:.1}us ({:+.1}%)",
            off * 1e6,
            on * 1e6,
            frac * 100.0
        );
        overhead_rows.push(json!({
            "layer": "monitoring",
            "qps_target": qps,
            "p99_off_s": off,
            "p99_on_s": on,
            "overhead_frac": frac,
        }));
        if !smoke {
            assert!(
                on <= off * (1.0 + OVERHEAD_FRAC_MAX) + OVERHEAD_ABS_S,
                "monitoring inflates p99 beyond {:.0}% at {qps} QPS: \
                 {off:.6}s off vs {on:.6}s on",
                OVERHEAD_FRAC_MAX * 100.0
            );
        }
    }

    let report = json!({
        "benchmark": "sustained_load",
        "total_recipes": total,
        "seed": seed,
        "smoke": smoke,
        "shards": shards,
        "queue_cap": 512,
        "note": "open-loop arrivals on a seeded schedule; latency runs from the \
                 scheduled arrival to the last response byte, so queueing under \
                 overload is included; 503 sheds are counted, not timed; each \
                 target runs paired trials against a bare server (rows *_nomon) \
                 and the full monitoring plane (historical row names); rows \
                 pool all trials, the overhead gate compares best-of-trials \
                 p99s; the profile block is the last monitored trial's stage \
                 attribution",
        "trials": trials,
        "units": "fields ending _s are seconds, _per_s and _rate ratios; the \
                  bench-diff gate compares only the _s fields",
        "deterministic": false,
        "monitoring_overhead": overhead_rows,
        "profile": profile_doc,
        "results": rows,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(&out_path, format!("{rendered}\n")).expect("write report");
    eprintln!("wrote {out_path}");
    recipe_bench::append_history(&report);
    println!("{rendered}");
}

/// Offer `requests` POST /extract calls at `qps` on the seeded
/// schedule and collect every outcome.
fn fire_target(
    addr: SocketAddr,
    phrases: &[String],
    qps: f64,
    requests: usize,
    seed: u64,
) -> Vec<Sample> {
    let offsets = Arc::new(arrival_offsets(qps, requests, seed));
    let phrases = Arc::new(phrases.to_vec());
    let base = Instant::now();
    let clients = CLIENT_THREADS.min(requests.max(1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let offsets = Arc::clone(&offsets);
            let phrases = Arc::clone(&phrases);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut i = c;
                while i < offsets.len() {
                    let at = offsets[i];
                    let phrase = &phrases[i % phrases.len()];
                    let target = Duration::from_secs_f64(at);
                    let elapsed = base.elapsed();
                    if target > elapsed {
                        std::thread::sleep(target - elapsed);
                    }
                    let status = post_extract(addr, phrase).unwrap_or(0);
                    out.push(Sample {
                        latency_s: (base.elapsed() - target).as_secs_f64().max(0.0),
                        status,
                    });
                    i += clients;
                }
                out
            })
        })
        .collect();
    let mut all = Vec::with_capacity(requests);
    for h in handles {
        all.extend(h.join().expect("client thread"));
    }
    all
}

/// One HTTP round trip: POST the phrase with `Connection: close` (the
/// bench measures cold-connection latency; without the header the
/// server would park the socket for keep-alive and `read_to_end` would
/// block until the idle timeout), read to EOF, return the status code.
fn post_extract(addr: SocketAddr, phrase: &str) -> std::io::Result<u16> {
    let body = serde_json::to_string(&json!({ "phrases": [phrase] }))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        format!(
            "POST /extract HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let head = String::from_utf8_lossy(&response);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or(0);
    Ok(status)
}

/// One history row for a QPS target: the shared percentile fields over
/// the served (200) latencies, plus shed/error ride-alongs. Returns
/// the stats too so the caller can gate monitoring overhead on p99.
fn target_row(qps: f64, suffix: &str, shards: usize, samples: &[Sample]) -> (Value, Stats) {
    let served: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.latency_s)
        .collect();
    let shed = samples.iter().filter(|s| s.status == 503).count();
    let errors = samples
        .iter()
        .filter(|s| s.status != 200 && s.status != 503)
        .count();
    let n = samples.len().max(1);
    assert!(
        !served.is_empty(),
        "no successful responses at {qps} QPS ({shed} shed, {errors} errors)"
    );
    assert_eq!(
        errors, 0,
        "transport or server errors at {qps} QPS: {errors}/{n}"
    );
    let stats = Stats::from_samples(served.clone());
    let name = format!("qps{}{suffix}", qps as u64);
    let mut row = match stats_json(&name, shards as u64, &stats, 0) {
        Value::Object(pairs) => pairs,
        _ => Vec::new(),
    };
    row.push(("qps_target".to_string(), json!(qps)));
    row.push(("requests".to_string(), json!(samples.len())));
    row.push(("served".to_string(), json!(served.len())));
    row.push(("shed_rate".to_string(), json!(shed as f64 / n as f64)));
    row.push(("error_rate".to_string(), json!(errors as f64 / n as f64)));
    (Value::Object(row), stats)
}
