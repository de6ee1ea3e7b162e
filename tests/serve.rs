//! Root integration tests for the `recipe-serve` online serving layer:
//! byte-identity with the batch extraction path across shard counts,
//! queue-full shedding, mid-traffic hot-swap, telemetry document
//! validity, and graceful drain (PR 8 acceptance criteria); plus the
//! PR 9 observability surface — keep-alive reuse, request-id
//! uniqueness, lifecycle exemplars at `/admin/slow`, burn-rate levels
//! derived from two cumulative `/metrics` scrapes, response header
//! hygiene, and prediction-drift scoring against the artifact's frozen
//! reference.

use recipe_core::artifact::{
    artifact_bytes_with_reference, capture_drift_reference, ArtifactPipeline,
};
use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus, Site};
use recipe_obs::slo::{derive, BurnWindow, Scrape};
use recipe_serve::{entry_json, ServeConfig, ServeModel, Server};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn corpus() -> RecipeCorpus {
    RecipeCorpus::generate(&CorpusSpec::tiny(4242))
}

fn train(corpus: &RecipeCorpus) -> TrainedPipeline {
    TrainedPipeline::train(corpus, &PipelineConfig::fast())
}

/// Reference-capture phrases: a stable slice of the training corpus.
fn reference_phrases(corpus: &RecipeCorpus) -> Vec<String> {
    corpus
        .phrases(Site::AllRecipes)
        .iter()
        .take(32)
        .map(|p| p.text())
        .collect()
}

/// Serialize once (with a frozen drift reference, like `compile`
/// does), open a fresh zero-copy view per server under test.
fn model_bytes(pipeline: &TrainedPipeline) -> Arc<[u8]> {
    let corpus = corpus();
    let reference = capture_drift_reference(pipeline, &reference_phrases(&corpus));
    artifact_bytes_with_reference(pipeline, Some(&reference))
        .expect("serialize artifact")
        .into()
}

fn rma_model(bytes: &Arc<[u8]>) -> ServeModel {
    ServeModel::Rma(ArtifactPipeline::from_bytes(Arc::clone(bytes), false).expect("load artifact"))
}

fn launch(cfg: &ServeConfig, model: ServeModel) -> Server {
    Server::launch(cfg, model, ("<test>".to_string(), false)).expect("launch server")
}

fn ephemeral(shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        ..ServeConfig::default()
    }
}

/// One HTTP/1.1 round trip (`Connection: close` — the server honours
/// it, so `read_to_end` terminates); returns (status, raw head, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("utf-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status code");
    (status, head.to_string(), payload.to_string())
}

/// Scrape `/metrics` and keep its cumulative counts.
fn scrape(addr: SocketAddr) -> Scrape {
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&body).expect("metrics json");
    recipe_obs::report::validate_document(&doc).expect("metrics document schema");
    Scrape::from_telemetry(&doc["telemetry"])
}

/// Send one request on an already-open keep-alive connection.
fn send_keep_alive(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: keep\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send keep-alive request");
}

/// Read exactly one HTTP response off a keep-alive connection (parses
/// `Content-Length` instead of reading to EOF).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head byte");
        assert!(n > 0, "eof mid-head: {:?}", String::from_utf8_lossy(&head));
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status code");
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.trim().eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("content-length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (
        status,
        head.trim_end().to_string(),
        String::from_utf8(body).expect("utf-8 body"),
    )
}

/// The `X-Request-Id` header value of a response head.
fn request_id(head: &str) -> u64 {
    head.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.trim().eq_ignore_ascii_case("x-request-id") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no X-Request-Id in {head:?}"))
}

/// The exact body `POST /extract` must produce for `phrase`: the same
/// `entry_json` renderer the batch CLI uses, pretty-printed with a
/// trailing newline. This *is* the byte-identity contract — both sides
/// funnel through `recipe_serve::entry_json`.
fn expected_extract_body(model: &ServeModel, phrase: &str) -> String {
    let rows = vec![json!({
        "phrase": phrase,
        "entry": entry_json(&model.extract_ingredient(phrase)),
    })];
    let text = serde_json::to_string_pretty(&json!({ "results": rows })).expect("render");
    format!("{text}\n")
}

#[test]
fn served_extraction_is_byte_identical_across_shard_counts() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let reference = rma_model(&bytes);

    let phrases: Vec<String> = corpus
        .phrases(Site::AllRecipes)
        .iter()
        .take(12)
        .map(|p| p.text())
        .collect();
    assert!(!phrases.is_empty());
    let expected: Vec<(String, String)> = phrases
        .iter()
        .map(|p| (p.clone(), expected_extract_body(&reference, p)))
        .collect();

    for shards in [1usize, 4, 8] {
        let server = launch(&ephemeral(shards), rma_model(&bytes));
        let addr = server.local_addr();
        let expected = Arc::new(expected.clone());
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    for (phrase, want) in expected.iter() {
                        let body =
                            serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");
                        let (status, _, got) = request(addr, "POST", "/extract", &body);
                        assert_eq!(status, 200, "{shards} shards: {phrase:?}");
                        assert_eq!(
                            &got, want,
                            "{shards} shards: served bytes diverged on {phrase:?}"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn queue_full_sheds_with_503_and_retry_after() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);

    // One shard, queue depth one: hold the only worker with a
    // half-sent request, and every arrival past the single queue slot
    // must shed deterministically.
    let cfg = ServeConfig {
        queue_cap: 1,
        ..ephemeral(1)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();

    // Quiet traffic first: every request answered, nothing burns.
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &body);
    assert_eq!(status, 200);
    let before = scrape(addr);
    let quiet = derive(std::slice::from_ref(&before), &BurnWindow::production());
    assert_eq!(quiet.level, "ok", "quiet traffic must not burn: {quiet:?}");

    let mut held = TcpStream::connect(addr).expect("connect held");
    held.write_all(b"POST /extr").expect("partial header");
    // Let the held connection take the only permit and block reading
    // the rest of its head before the flood arrives.
    std::thread::sleep(Duration::from_millis(300));

    let flood: Vec<TcpStream> = (0..10)
        .map(|i| {
            let mut s = TcpStream::connect(addr).expect("connect flood");
            s.set_read_timeout(Some(Duration::from_secs(30))).ok();
            s.write_all(
                format!(
                    "POST /extract HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap_or_else(|e| panic!("send flood request {i}: {e}"));
            // Give the server time to admit or shed this request before
            // the next one arrives, keeping the order exact.
            std::thread::sleep(Duration::from_millis(50));
            s
        })
        .collect();

    // Release the worker; the one queued connection can now be served.
    drop(held);

    let mut served = 0usize;
    let mut shed = 0usize;
    for (i, mut s) in flood.into_iter().enumerate() {
        let mut response = Vec::new();
        s.read_to_end(&mut response)
            .unwrap_or_else(|e| panic!("read flood response {i}: {e}"));
        let text = String::from_utf8_lossy(&response);
        let status: u16 = text
            .split(' ')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("flood response {i} had no status: {text:?}"));
        match status {
            200 => served += 1,
            503 => {
                shed += 1;
                assert!(
                    text.contains("Retry-After: 1"),
                    "shed response {i} missing Retry-After: {text:?}"
                );
            }
            other => panic!("flood response {i}: unexpected status {other}"),
        }
    }
    assert_eq!(
        (served, shed),
        (1, 9),
        "queue_cap=1 must admit exactly one flooded request"
    );

    // Nine sheds against a 99.9% availability target is a sustained
    // burn over both fast windows: the view derived from the scrapes
    // before and after the burst must page.
    let after = scrape(addr);
    let view = derive(&[before, after], &BurnWindow::production());
    assert_eq!(view.interval.shed, 9, "{view:?}");
    assert_eq!(
        view.level, "critical",
        "shed burst must fire the fast burn-rate pair: {view:?}"
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn hot_swap_mid_traffic_keeps_responses_byte_identical() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let reference = rma_model(&bytes);

    let phrase = corpus.phrases(Site::AllRecipes)[0].text();
    let want = expected_extract_body(&reference, &phrase);
    let body = serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");

    let server = launch(&ephemeral(2), rma_model(&bytes));
    let addr = server.local_addr();
    let server = Arc::new(server);

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                for i in 0..30 {
                    let (status, _, got) = request(addr, "POST", "/extract", &body);
                    assert_eq!(status, 200, "request {i} dropped during hot-swap");
                    assert_eq!(got, want, "request {i} corrupted during hot-swap");
                }
            })
        })
        .collect();

    // Swap repeatedly while the clients hammer: in-flight requests pin
    // their Arc, so no response may be dropped or torn.
    for _ in 0..10 {
        server.swap_model(rma_model(&bytes));
        std::thread::sleep(Duration::from_millis(5));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    assert!(server.metrics().hot_swaps.get() >= 10);

    server.request_shutdown();
    match Arc::try_unwrap(server) {
        Ok(s) => s.join(),
        Err(_) => panic!("server handle still shared after clients joined"),
    }
}

#[test]
fn healthz_and_metrics_serve_valid_documents() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&body).expect("healthz json");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(health.get("model").and_then(|v| v.as_str()), Some("rma"));
    assert!(health.get("slo").is_none(), "{body}");

    // Drive one extraction so the telemetry has serving counters.
    let req = serde_json::to_string(&json!({ "phrases": ["2 cups flour"] })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &req);
    assert_eq!(status, 200);

    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&body).expect("metrics json");
    recipe_obs::report::validate_document(&doc).expect("metrics document schema");
    assert_eq!(doc.get("command").and_then(|v| v.as_str()), Some("serve"));
    // Cumulative counts only: healthz and extract were each recorded
    // once, into the latency histogram and both objectives' counters.
    let telemetry = &doc["telemetry"];
    assert!(telemetry.get("windows").is_none(), "{body}");
    let counter = |name: &str| telemetry["counters"][name].as_u64();
    assert_eq!(counter("slo.availability.count"), Some(2));
    assert_eq!(counter("slo.availability.good"), Some(2));
    assert_eq!(counter("slo.latency.count"), Some(2));
    let latency = &telemetry["histograms"]["serve.request.latency_s"];
    assert_eq!(latency["count"].as_u64(), Some(2));
    let buckets = latency["buckets"].as_array().expect("buckets");
    assert_eq!(
        buckets.len(),
        latency["bounds"].as_array().unwrap().len() + 1
    );
    assert!(telemetry["gauges"]["serve.uptime_s"].as_f64().unwrap() > 0.0);
    // The request profile rides in the same document.
    assert!(
        telemetry["profile"]["nodes"]
            .as_array()
            .unwrap()
            .iter()
            .any(|n| n["path"] == json!(["serve", "extract", "handle"])),
        "{body}"
    );
    // The retired endpoints are gone.
    for path in ["/admin/slo", "/admin/profile"] {
        assert_eq!(request(addr, "GET", path, "").0, 404, "{path}");
    }
    // The drift block is active (the artifact carries a reference).
    assert_eq!(doc["drift"]["active"].as_bool(), Some(true));
    assert!(doc["drift"]["level"].as_str().is_some());

    server.request_shutdown();
    server.join();
}

#[test]
fn keep_alive_reuses_connection_with_fresh_request_ids() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let mut ids = Vec::new();
    for i in 0..3 {
        send_keep_alive(&mut stream, "POST", "/extract", &body);
        let (status, head, _) = read_response(&mut stream);
        assert_eq!(status, 200, "keep-alive round {i}");
        assert!(
            head.contains("Connection: keep-alive"),
            "round {i} must advertise reuse: {head:?}"
        );
        ids.push(request_id(&head));
    }
    // Every round got a fresh id, and the later rounds reused the
    // connection rather than being re-accepted.
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "request ids must be unique per request");
    assert!(
        server.metrics().keepalive_reuse.get() >= 2,
        "re-arms must count as keep-alive reuse"
    );
    assert_eq!(server.metrics().accepted.get(), 1, "one socket, one accept");

    server.request_shutdown();
    server.join();
}

#[test]
fn request_ids_are_unique_under_concurrent_load() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(4), rma_model(&bytes));
    let addr = server.local_addr();

    let body = serde_json::to_string(&json!({ "phrases": ["2 tbsp butter"] })).expect("body");
    let ids = Arc::new(std::sync::Mutex::new(Vec::new()));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            let ids = Arc::clone(&ids);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, head, _) = request(addr, "POST", "/extract", &body);
                    assert_eq!(status, 200);
                    ids.lock().unwrap().push(request_id(&head));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let mut ids = Arc::try_unwrap(ids)
        .expect("clients joined")
        .into_inner()
        .unwrap();
    assert_eq!(ids.len(), 40);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 40, "request ids collided under concurrency");

    // The lifecycle exemplar table saw the traffic, with coherent
    // monotonic stage breakdowns.
    let (status, _, body) = request(addr, "GET", "/admin/slow", "");
    assert_eq!(status, 200);
    let slow: serde_json::Value = serde_json::from_str(&body).expect("slow json");
    let rows = slow["slowest"].as_array().expect("slowest array");
    assert!(!rows.is_empty(), "slow table must have exemplars");
    let mut last_total = f64::INFINITY;
    for row in rows {
        let queue_wait = row["queue_wait_s"].as_f64().expect("queue_wait_s");
        let handle = row["handle_s"].as_f64().expect("handle_s");
        let write = row["write_s"].as_f64().expect("write_s");
        let total = row["total_s"].as_f64().expect("total_s");
        assert!(queue_wait >= 0.0 && handle >= 0.0 && write >= 0.0);
        assert!(
            (queue_wait + handle + write) <= total + 1e-9,
            "stage sum exceeds total: {row}"
        );
        assert!(total <= last_total, "slow table must be sorted worst-first");
        last_total = total;
        assert!(row["id"].as_u64().is_some());
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn every_endpoint_sets_json_content_type_and_exact_length() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let extract = serde_json::to_string(&json!({ "phrases": ["1 cup milk"] })).expect("body");
    let calls: Vec<(&str, &str, &str)> = vec![
        ("POST", "/extract", extract.as_str()),
        ("POST", "/explain", extract.as_str()),
        ("GET", "/healthz", ""),
        ("GET", "/metrics", ""),
        ("GET", "/admin/slow", ""),
        ("GET", "/no-such-endpoint", ""),
        ("PUT", "/extract", ""),
    ];
    for (method, path, body) in calls {
        let (_, head, payload) = request(addr, method, path, body);
        assert!(
            head.contains("Content-Type: application/json"),
            "{method} {path} missing JSON content type: {head:?}"
        );
        let declared: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                if k.trim().eq_ignore_ascii_case("content-length") {
                    v.trim().parse().ok()
                } else {
                    None
                }
            })
            .unwrap_or_else(|| panic!("{method} {path} missing Content-Length"));
        assert_eq!(
            declared,
            payload.len(),
            "{method} {path}: Content-Length does not match the body"
        );
        serde_json::from_str::<serde_json::Value>(&payload)
            .unwrap_or_else(|e| panic!("{method} {path} body is not JSON: {e:?}"));
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn drift_monitor_fires_on_shifted_phrases_and_stays_quiet_in_distribution() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let phrases = reference_phrases(&corpus);

    // Sample every /extract request so the window fills immediately.
    let cfg = ServeConfig {
        drift_sample: 1,
        ..ephemeral(1)
    };

    let drift_doc = |addr: SocketAddr| -> serde_json::Value {
        let (status, _, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&body).expect("metrics json");
        doc["drift"].clone()
    };

    // In-distribution: replay the exact reference phrases.
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let body = serde_json::to_string(&json!({ "phrases": phrases })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &body);
    assert_eq!(status, 200);
    let doc = drift_doc(addr);
    assert_eq!(doc["active"].as_bool(), Some(true));
    assert!(doc["samples"].as_u64().unwrap() >= 1);
    let score = doc["score"].as_f64().expect("score");
    assert!(
        score < 0.1,
        "in-distribution replay must stay under warn: {doc}"
    );
    assert_eq!(doc["level"].as_str(), Some("stable"));
    server.request_shutdown();
    server.join();

    // Shifted: unicode fractions, heavy abbreviation, foreign tokens.
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let noisy: Vec<String> = (0..32)
        .map(|i| {
            [
                "½ c. zzgrnfl xq",
                "¼ tsp qwrtz pdr",
                "⅓ pkg frzn brkklwv",
                "2½ tbsp. mstrd sd oil",
            ][i % 4]
                .to_string()
        })
        .collect();
    let body = serde_json::to_string(&json!({ "phrases": noisy })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &body);
    assert_eq!(status, 200);
    let doc = drift_doc(addr);
    let score = doc["score"].as_f64().expect("score");
    assert!(
        score > 0.1,
        "shifted phrase population must push PSI past warn: {doc}"
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn explain_is_exact_while_other_requests_extract() {
    // Each `/explain` records provenance in a scope of its own request:
    // while a client keeps other shards busy extracting other phrases,
    // every explanation of a warm phrase is byte-identical to the one
    // served with no other traffic. One shard serializes requests, so
    // the race needs at least two.
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let phrases: Vec<String> = corpus
        .phrases(Site::AllRecipes)
        .iter()
        .map(|p| p.text())
        .collect();
    let target = phrases[0].clone();
    let mut others: Vec<String> = Vec::new();
    for p in &phrases {
        if *p != target && !others.contains(p) && others.len() < 64 {
            others.push(p.clone());
        }
    }
    assert_eq!(others.len(), 64);
    let explain = serde_json::to_string(&json!({ "phrases": [target] })).expect("body");

    for shards in [2usize, 4, 8] {
        let server = launch(&ephemeral(shards), rma_model(&bytes));
        let addr = server.local_addr();
        // Warm the cache, then take the idle body: a hit, no traffic.
        let (status, _, _) = request(addr, "POST", "/explain", &explain);
        assert_eq!(status, 200);
        let (_, _, idle) = request(addr, "POST", "/explain", &explain);
        assert!(idle.contains("\"cache.lookup\""), "{idle}");

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let client = {
            let (stop, others) = (Arc::clone(&stop), others.clone());
            std::thread::spawn(move || {
                for phrase in others.iter().cycle() {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    let body =
                        serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");
                    let (status, _, _) = request(addr, "POST", "/extract", &body);
                    assert_eq!(status, 200, "{phrase:?}");
                }
            })
        };
        let differing = (0..300)
            .filter(|_| {
                let (status, _, got) = request(addr, "POST", "/explain", &explain);
                assert_eq!(status, 200);
                got != idle
            })
            .count();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        client.join().expect("extract client");
        assert_eq!(
            differing, 0,
            "{shards} shards: {differing} of 300 /explain bodies differ from the idle one"
        );

        server.request_shutdown();
        server.join();
    }
}

#[test]
fn admin_shutdown_drains_and_joins() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(2), rma_model(&bytes));
    let addr = server.local_addr();

    let (status, _, body) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body:?}");
    assert!(server.shutdown_requested());
    // Drain must complete without external help (the shutdown wakes
    // the acceptor, which closes the gate and joins the connections).
    server.join();
}

#[test]
fn pipelined_requests_on_one_write_get_ordered_responses() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let reference = rma_model(&bytes);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let phrases = ["1 cup sugar", "2 tbsp butter"];
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut both = Vec::new();
    for phrase in phrases {
        let body = serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");
        both.extend_from_slice(
            format!(
                "POST /extract HTTP/1.1\r\nHost: pipe\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    // One write: the second request arrives behind the first.
    stream.write_all(&both).expect("send both requests");
    let mut ids = Vec::new();
    for phrase in phrases {
        let (status, head, got) = read_response(&mut stream);
        assert_eq!(status, 200, "{phrase:?}: {head:?}");
        assert_eq!(
            got,
            expected_extract_body(&reference, phrase),
            "responses must come back in request order"
        );
        ids.push(request_id(&head));
    }
    assert_ne!(ids[0], ids[1], "each pipelined request gets its own id");

    server.request_shutdown();
    server.join();
}

#[test]
fn chunked_request_gets_one_501_and_the_connection_closes() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let body = serde_json::to_string(&json!({ "phrases": ["1 cup milk"] })).expect("body");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Keep-alive, so only the rejection itself may close the connection.
    stream
        .write_all(
            format!(
                "POST /extract HTTP/1.1\r\nHost: chunk\r\nTransfer-Encoding: chunked\r\n\r\n\
                 {:x}\r\n{body}\r\n0\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send chunked request");
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 501, "{head:?}");
    assert!(head.contains("Connection: close"), "{head:?}");
    // Nothing else: the chunk bytes must not be parsed as a request.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to close");
    assert!(
        rest.is_empty(),
        "extra bytes after the 501: {:?}",
        String::from_utf8_lossy(&rest)
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn more_keep_alive_connections_than_shards_take_turns() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let body = serde_json::to_string(&json!({ "phrases": ["1 cup flour"] })).expect("body");
    let mut streams: Vec<TcpStream> = (0..3)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            s
        })
        .collect();
    // Each connection idles between its turns: an idle connection must
    // not keep the one permit from the others.
    for round in 0..5 {
        for (i, stream) in streams.iter_mut().enumerate() {
            send_keep_alive(stream, "POST", "/extract", &body);
            let (status, head, _) = read_response(stream);
            assert_eq!(status, 200, "round {round}, connection {i}");
            assert!(head.contains("Connection: keep-alive"), "{head:?}");
        }
    }
    assert_eq!(server.metrics().accepted.get(), 3);

    server.request_shutdown();
    server.join();
}

#[test]
fn drain_does_not_wait_out_idle_keep_alive_connections() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let cfg = ServeConfig {
        keepalive_idle_ms: 60_000,
        ..ephemeral(2)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();

    let mut idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            send_keep_alive(&mut s, "GET", "/healthz", "");
            let (status, _, _) = read_response(&mut s);
            assert_eq!(status, 200);
            s
        })
        .collect();

    let started = std::time::Instant::now();
    server.request_shutdown();
    server.join();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "drain waited {took:?} on idle connections (idle timeout 60 s)"
    );
    // The server closed the idle connections rather than leaving them.
    for s in &mut idle {
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty());
    }
}
