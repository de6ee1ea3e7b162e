//! `recipe-serve`: the online serving layer — a std-only HTTP/1.1
//! front end over the compiled [`Inference`] bundle.
//!
//! Architecture (DESIGN.md §15). Every wait is a blocking call the
//! kernel ends; nothing sleeps or polls on the idle or request path.
//!
//! - **A blocking acceptor and one thread per connection.** std has no
//!   readiness API (no `poll`/`epoll`), so waiting on many idle
//!   keep-alive sockets without a timer takes one blocked thread per
//!   socket. Each connection's thread keeps one `BufReader` for the
//!   connection's whole life, so pipelined requests survive, and blocks
//!   in it between requests under the keep-alive idle timeout. Open
//!   connections are bounded by `MAX_CONNECTIONS`; past it the
//!   acceptor sheds with `503`.
//! - **Admission control.** A request takes one of
//!   [`ServeConfig::shards`] permits from a counting gate before its
//!   head is read, and holds it until its response is written. At most
//!   [`ServeConfig::queue_cap`] requests wait for a permit; past that
//!   the request is shed with `503 + Retry-After` instead of queueing
//!   unbounded work.
//! - **Atomic hot-swap.** The model lives behind `RwLock<Arc<…>>`;
//!   each request pins one `Arc`, so a concurrent swap
//!   ([`Server::swap_model`] or `POST /admin/reload`) never corrupts an
//!   in-flight response — old requests finish on the old model.
//! - **Graceful drain.** `POST /admin/shutdown` (or
//!   [`Server::request_shutdown`]) wakes the blocked `accept` with a
//!   loopback connect. The acceptor then closes the gate, waits for the
//!   admitted requests to finish, wakes every reader blocked between
//!   requests with `shutdown(Read)`, and joins the connection threads.
//!   There is no signal handling — the workspace is std-only — so
//!   process supervisors should use the endpoint.
//! - **Observability.** Every request is minted an id at admission
//!   (echoed as `X-Request-Id`) and stamped through its lifecycle
//!   (queue wait → handle → write) on the injected [`Clock`]. Each
//!   request is then recorded once, into cumulative counts
//!   ([`ServeMetrics::record_request`]): its latency histogram and the
//!   good/count counters of the availability and latency objectives.
//!   `GET /metrics` serves them; its reader derives rates, interval
//!   percentiles and burn-rate levels from successive scrapes
//!   ([`recipe_obs::slo`], `recipe-mine monitor`). One switch,
//!   [`ServeConfig::monitoring`], covers the rest: the slowest requests
//!   land in the `/admin/slow` exemplar table, every
//!   [`ServeConfig::drift_sample`]th `/extract` streams its provenance
//!   into the [`drift::DriftMonitor`] for PSI scoring against the
//!   model's frozen reference distribution, and a [`Profiler`]
//!   attributes every request's queue-wait / handle / write ticks to its
//!   endpoint (the `telemetry.profile` block of `/metrics`). The
//!   `sustained_load` bench gates the switch's overhead.
//! - **Exact explanations under load.** `/explain` and drift samples
//!   record provenance in a scope of their own request
//!   ([`recipe_obs::provenance::capture`]), so concurrent requests on
//!   other connections neither wait for them nor leak records into
//!   them.
//!
//! Endpoints: `POST /extract`, `POST /explain`, `GET /healthz`,
//! `GET /metrics` (a schema-valid `recipe-mine stats` telemetry
//! document), `GET /admin/slow`, `POST /admin/reload`,
//! `POST /admin/shutdown`.
//! Responses render entries through the same [`entry_json`] as the
//! batch CLI, so served extractions are byte-identical to
//! `recipe-mine extract`.

mod admission;
pub mod drift;
pub mod http;
pub mod metrics;
pub mod model;

pub use drift::DriftMonitor;
pub use metrics::ServeMetrics;
pub use model::{entry_json, ModelError, ServeModel};

use admission::{Connections, Gate, Refused};
use recipe_obs::profile::Profiler;
use recipe_obs::window::{Clock, MonotonicClock, TICKS_PER_SEC};
use serde_json::json;
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read/write timeout within a request: a stalled client
/// cannot hold a permit longer than this per read or write.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// Most connections open at once. Each holds a thread blocked in its
/// socket, so this bounds the server's threads; the acceptor sheds past
/// it with `503`.
const MAX_CONNECTIONS: usize = 512;

/// Bounded size of the slowest-request exemplar table.
const SLOW_TABLE_CAP: usize = 32;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Requests handled at once (the admission gate's permits); 0 means
    /// [`recipe_runtime::default_threads`].
    pub shards: usize,
    /// Most requests that may wait for a permit before the server sheds
    /// with `503` (admission-control depth).
    pub queue_cap: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Max requests served on one keep-alive connection before the
    /// server closes it (bounds how long one socket can recycle).
    pub keepalive_max_requests: u32,
    /// How long a keep-alive connection may sit idle waiting for its
    /// next request before the server closes it, milliseconds.
    pub keepalive_idle_ms: u64,
    /// Collect slow-request exemplars, drift samples and the
    /// per-endpoint request profile. Off leaves only the cumulative
    /// counts (the `sustained_load` bench compares the two to gate
    /// overhead).
    pub monitoring: bool,
    /// Sample every Nth `/extract` request for drift scoring
    /// (`0` disables sampling).
    pub drift_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            shards: 0,
            queue_cap: 128,
            retry_after_secs: 1,
            keepalive_max_requests: 64,
            keepalive_idle_ms: 5_000,
            monitoring: true,
            drift_sample: 8,
        }
    }
}

/// One `/admin/slow` exemplar: the lifecycle breakdown of a slow
/// request (all stamps from the shared [`Clock`], seconds).
#[derive(Debug, Clone)]
struct SlowEntry {
    id: u64,
    path: String,
    status: u16,
    queue_wait_s: f64,
    handle_s: f64,
    write_s: f64,
    total_s: f64,
}

/// State shared by the acceptor, the connection threads and the
/// [`Server`] handle.
struct Shared {
    model: RwLock<Arc<ServeModel>>,
    /// (path, quantized) the current model was loaded from; the
    /// default source for `POST /admin/reload`.
    model_source: Mutex<(String, bool)>,
    metrics: ServeMetrics,
    /// Request admission: one permit per shard, `queue_cap` waiters.
    gate: Gate,
    /// Open connections, bounded at [`MAX_CONNECTIONS`].
    conns: Connections,
    shutdown: AtomicBool,
    /// The listener's address; drain connects to it to wake `accept`.
    addr: SocketAddr,
    /// The tick source every lifecycle stamp and drift window shares.
    clock: Arc<dyn Clock>,
    /// Request-id mint (ids start at 1).
    next_request_id: AtomicU64,
    /// Live drift monitor; `None` when the model carries no reference
    /// or monitoring is off. Rebuilt on hot-swap.
    drift: RwLock<Option<Arc<DriftMonitor>>>,
    /// Slowest-request exemplars, bounded at [`SLOW_TABLE_CAP`].
    slow: Mutex<Vec<SlowEntry>>,
    /// `/extract` request sequence for drift sampling.
    extract_seq: AtomicU64,
    monitoring: bool,
    /// Endpoint-level tick attribution, served in `/metrics`.
    profiler: Profiler,
    keepalive_max_requests: u32,
    keepalive_idle: Duration,
    drift_sample: u64,
    shards: usize,
    retry_after_secs: u32,
}

/// A running server: handle for swap/shutdown/join.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the acceptor, and return immediately. `model_source`
    /// records where `model` came from so `POST /admin/reload` without
    /// a body can re-read it.
    pub fn launch(
        cfg: &ServeConfig,
        model: ServeModel,
        model_source: (String, bool),
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shards = if cfg.shards == 0 {
            recipe_runtime::default_threads()
        } else {
            cfg.shards
        };
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock);
        let drift = if cfg.monitoring {
            model
                .drift_reference()
                .map(|r| Arc::new(DriftMonitor::new(Arc::clone(&clock), r)))
        } else {
            None
        };
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(model)),
            model_source: Mutex::new(model_source),
            metrics: ServeMetrics::new(Arc::clone(&clock)),
            gate: Gate::new(shards, cfg.queue_cap),
            conns: Connections::new(MAX_CONNECTIONS),
            shutdown: AtomicBool::new(false),
            addr,
            clock,
            next_request_id: AtomicU64::new(0),
            drift: RwLock::new(drift),
            slow: Mutex::new(Vec::new()),
            extract_seq: AtomicU64::new(0),
            monitoring: cfg.monitoring,
            profiler: Profiler::new("monotonic"),
            keepalive_max_requests: cfg.keepalive_max_requests.max(1),
            // A zero read timeout is an error, not "no wait".
            keepalive_idle: Duration::from_millis(cfg.keepalive_idle_ms.max(1)),
            drift_sample: cfg.drift_sample,
            shards,
            retry_after_secs: cfg.retry_after_secs,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || run_acceptor(&shared, &listener))?
        };
        Ok(Server { shared, acceptor })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving metrics registry (merged into `/metrics`).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Snapshot the per-endpoint request profile (the
    /// `telemetry.profile` block of `/metrics`). Empty when monitoring
    /// is off.
    pub fn profile(&self) -> recipe_obs::Profile {
        self.shared.profiler.snapshot()
    }

    /// Number of requests handled at once (after resolving 0 to the
    /// runtime's default thread count).
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Atomically install a new model. In-flight requests finish on the
    /// model they pinned; later requests see the new one.
    pub fn swap_model(&self, model: ServeModel) {
        install_model(&self.shared, model);
    }

    /// Ask the server to stop accepting and drain admitted work.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// True once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the acceptor and every connection thread have exited
    /// (i.e. shutdown was requested and admitted work has drained).
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Swap the shared model slot, rebuild the drift monitor for the new
/// model's reference, and count the hot-swap.
fn install_model(shared: &Shared, model: ServeModel) {
    let drift = if shared.monitoring {
        model
            .drift_reference()
            .map(|r| Arc::new(DriftMonitor::new(Arc::clone(&shared.clock), r)))
    } else {
        None
    };
    let mut slot = shared.model.write().unwrap_or_else(|p| p.into_inner());
    *slot = Arc::new(model);
    drop(slot);
    let mut d = shared.drift.write().unwrap_or_else(|p| p.into_inner());
    *d = drift;
    drop(d);
    shared.metrics.hot_swaps.inc();
}

/// Mint the next server-unique request id (ids start at 1).
fn mint_id(shared: &Shared) -> u64 {
    shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1
}

/// Set the shutdown flag and wake the acceptor out of its blocking
/// `accept` with a loopback connect to the listener.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let mut target = shared.addr;
    if target.ip().is_unspecified() {
        target.set_ip(if target.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    // Fails fast once the listener is gone, i.e. the acceptor exited.
    let _ = TcpStream::connect_timeout(&target, STREAM_TIMEOUT);
}

/// Acceptor loop: accept and hand each connection to a thread of its
/// own, until shutdown. Then drain, and join every connection thread.
fn run_acceptor(shared: &Arc<Shared>, listener: &TcpListener) {
    recipe_obs::event::set_thread_name("serve-acceptor");
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            // Back off so a persistent error (such as `EMFILE`) does
            // not spin; this is off the idle and request paths.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        shared.metrics.accepted.inc();
        let accepted_ticks = shared.clock.now_ticks();
        let (done, live): (Vec<_>, Vec<_>) = threads.drain(..).partition(|t| t.is_finished());
        threads = live;
        for t in done {
            let _ = t.join();
        }
        let Some(conn) = stream.try_clone().ok().and_then(|c| shared.conns.open(c)) else {
            shed(shared, stream);
            continue;
        };
        let thread = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || run_connection(&shared, stream, conn, accepted_ticks))
        };
        match thread {
            Ok(t) => threads.push(t),
            Err(_) => {
                if let Some(clone) = shared.conns.remove(conn) {
                    shed(shared, clone);
                }
            }
        }
    }
    // Serve what was admitted, then wake the readers blocked between
    // requests; none can be mid-request once the gate has drained.
    shared.gate.close_and_wait();
    shared.conns.wake_readers();
    for t in threads {
        let _ = t.join();
    }
}

/// Removes a connection's table entry when its thread exits, however
/// it exits: the entry's socket clone would otherwise hold the
/// connection open.
struct Registered<'a> {
    conns: &'a Connections,
    id: usize,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.conns.remove(self.id);
    }
}

/// One connection's thread: serve its requests in order until the
/// client closes it, it idles past the keep-alive timeout, it reaches
/// the per-connection request cap, a request fails to frame, or drain
/// begins. The first request's queue wait runs from the accept, each
/// later one's from its first byte.
fn run_connection(shared: &Shared, stream: TcpStream, conn: usize, accepted_ticks: u64) {
    recipe_obs::event::set_thread_name("serve-conn");
    let _registered = Registered {
        conns: &shared.conns,
        id: conn,
    };
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    // Each response is written whole in one call, so Nagle's algorithm
    // could only hold back the reply to a pipelined request.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut arrived_ticks = accepted_ticks;
    let mut served = 0u32;
    loop {
        // Block for the first byte of the next request, unless it
        // already arrived behind the previous one. The kernel ends the
        // wait: data, end-of-stream, the idle timeout, or drain's
        // `shutdown(Read)`.
        if reader.buffer().is_empty() {
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(shared.keepalive_idle));
            if !matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty()) {
                return;
            }
        }
        if served > 0 {
            arrived_ticks = shared.clock.now_ticks();
            shared.metrics.keepalive_reuse.inc();
        }
        let id = mint_id(shared);
        let _permit = match shared.gate.acquire() {
            Ok(permit) => permit,
            Err(Refused::Full) => {
                shed(shared, reader.into_inner());
                return;
            }
            Err(Refused::Closed) => return,
        };
        let _ = reader.get_ref().set_read_timeout(Some(STREAM_TIMEOUT));
        shared.metrics.begin_request();
        let keep = serve_request(shared, &mut reader, id, arrived_ticks, served);
        shared.metrics.end_request();
        if !keep {
            return;
        }
        served += 1;
    }
}

/// Read one request off the connection, dispatch it against a pinned
/// model, and write the response; true when the connection stays open
/// for another request. Records the request once into the cumulative
/// counts, and with monitoring on into the slow table and the request
/// profile, from the tick stamps minted on the shared clock. Transport
/// errors close the connection — the peer is gone.
fn serve_request(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    id: u64,
    arrived_ticks: u64,
    served: u32,
) -> bool {
    let admitted_ticks = shared.clock.now_ticks();
    // Pin the model once per request: a concurrent hot-swap replaces
    // the slot, not this Arc, so the response is computed against one
    // consistent model.
    let model = Arc::clone(&shared.model.read().unwrap_or_else(|p| p.into_inner()));
    let (mut resp, client_keep_alive, path) = match http::read_request(reader) {
        Ok(req) => {
            let _span = recipe_obs::span!("serve.handle");
            let resp = handle_request(shared, &model, &req);
            (resp, req.keep_alive, req.path)
        }
        Err(http::HttpError::Closed) => return false,
        // Framing is lost after an error, so the connection closes.
        Err(e) => (error_response(&e), false, String::new()),
    };
    resp.request_id = Some(id);
    // Decide reuse before writing: the Connection header must match
    // what the server will actually do with the socket.
    let keep = client_keep_alive
        && served + 1 < shared.keepalive_max_requests
        && !shared.shutdown.load(Ordering::SeqCst);
    let handled_ticks = shared.clock.now_ticks();
    let wrote = {
        let _span = recipe_obs::span!("serve.write");
        http::write_response(reader.get_mut(), &resp, keep).is_ok()
    };
    let done_ticks = shared.clock.now_ticks();
    let total_s = done_ticks.saturating_sub(arrived_ticks) as f64 / TICKS_PER_SEC as f64;
    shared.metrics.record_request(resp.status, wrote, total_s);
    if shared.monitoring {
        // Resolved before `path` moves into the slow-table exemplar.
        let endpoint = profile_endpoint(&path);
        record_slow(
            shared,
            SlowEntry {
                id,
                path,
                status: resp.status,
                queue_wait_s: admitted_ticks.saturating_sub(arrived_ticks) as f64
                    / TICKS_PER_SEC as f64,
                handle_s: handled_ticks.saturating_sub(admitted_ticks) as f64
                    / TICKS_PER_SEC as f64,
                write_s: done_ticks.saturating_sub(handled_ticks) as f64 / TICKS_PER_SEC as f64,
                total_s,
            },
        );
        // Endpoint names are normalized (bounded cardinality even under
        // 404 scans), and the stage split mirrors the `/admin/slow`
        // lifecycle breakdown so the two views cross-check.
        let wait = admitted_ticks.saturating_sub(arrived_ticks);
        let handle = handled_ticks.saturating_sub(admitted_ticks);
        let write = done_ticks.saturating_sub(handled_ticks);
        shared
            .profiler
            .record(&["serve", endpoint, "queue_wait"], wait);
        shared
            .profiler
            .record(&["serve", endpoint, "handle"], handle);
        shared.profiler.record(&["serve", endpoint, "write"], write);
    }
    wrote && keep
}

/// Normalize a request path to a bounded endpoint label for the
/// profiler (same buckets as [`ServeMetrics::endpoint`]).
fn profile_endpoint(path: &str) -> &'static str {
    match path {
        "/extract" => "extract",
        "/explain" => "explain",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        p if p.starts_with("/admin/") => "admin",
        _ => "other",
    }
}

/// Keep the slowest [`SLOW_TABLE_CAP`] requests by total latency:
/// replace the current minimum once the table is full.
fn record_slow(shared: &Shared, entry: SlowEntry) {
    let mut table = shared.slow.lock().unwrap_or_else(|p| p.into_inner());
    if table.len() < SLOW_TABLE_CAP {
        table.push(entry);
        return;
    }
    let mut min_idx = 0;
    for (i, e) in table.iter().enumerate() {
        if e.total_s < table[min_idx].total_s {
            min_idx = i;
        }
    }
    if entry.total_s > table[min_idx].total_s {
        table[min_idx] = entry;
    }
}

/// Shed one connection with `503 + Retry-After`. Drains whatever
/// request bytes already arrived (without blocking) so the close does
/// not reset the response out from under the client.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.metrics.record_shed();
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut scratch) {
        if n == 0 {
            break;
        }
    }
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let mut resp =
        http::Response::json(503, render(&json!({ "error": "queue full", "shed": true })));
    resp.retry_after = Some(shared.retry_after_secs);
    let _ = http::write_response(&mut stream, &resp, false);
}

/// Map a framing error onto a response.
fn error_response(e: &http::HttpError) -> http::Response {
    let status = match e {
        http::HttpError::BadRequest(_) => 400,
        http::HttpError::HeadersTooLarge | http::HttpError::BodyTooLarge => 413,
        http::HttpError::TransferEncoding => 501,
        http::HttpError::Closed | http::HttpError::Io(_) => 400,
    };
    http::Response::json(status, render(&json!({ "error": e.to_string() })))
}

/// Pretty-print a JSON value with the CLI's trailing-newline framing.
fn render(v: &serde_json::Value) -> String {
    match serde_json::to_string_pretty(v) {
        Ok(text) => format!("{text}\n"),
        Err(_) => "{}\n".to_string(),
    }
}

fn err_json(why: &str) -> String {
    render(&json!({ "error": why }))
}

/// Route one parsed request to its endpoint handler and keep the
/// per-endpoint request/error counters.
fn handle_request(shared: &Shared, model: &ServeModel, req: &http::Request) -> http::Response {
    let counters = shared.metrics.endpoint(&req.path);
    counters.requests.inc();
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/extract") => handle_extract(shared, model, &req.body),
        ("POST", "/explain") => handle_explain(model, &req.body),
        ("GET", "/healthz") => handle_healthz(shared, model),
        ("GET", "/metrics") => handle_metrics(shared, model),
        ("GET", "/admin/slow") => handle_slow(shared),
        ("POST", "/admin/reload") => handle_reload(shared, &req.body),
        ("POST", "/admin/shutdown") => handle_shutdown(shared),
        (
            _,
            "/extract" | "/explain" | "/healthz" | "/metrics" | "/admin/slow" | "/admin/reload"
            | "/admin/shutdown",
        ) => http::Response::json(405, err_json("method not allowed")),
        _ => http::Response::json(404, err_json("no such endpoint")),
    };
    if resp.status >= 400 {
        counters.errors.inc();
    }
    resp
}

/// Parse a `{"phrases": [...]}` body into borrowed strs.
fn parse_phrases(body: &[u8]) -> Result<(serde_json::Value, usize), http::Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| http::Response::json(400, err_json("body is not UTF-8")))?;
    let parsed: serde_json::Value = serde_json::from_str(text)
        .map_err(|e| http::Response::json(400, err_json(&format!("body is not JSON: {e:?}"))))?;
    let n = match parsed.get("phrases").and_then(|v| v.as_array()) {
        Some(arr) if arr.iter().all(|p| p.as_str().is_some()) => arr.len(),
        _ => {
            return Err(http::Response::json(
                400,
                err_json("body must be {\"phrases\": [\"...\"]}"),
            ))
        }
    };
    Ok((parsed, n))
}

fn phrase_at(parsed: &serde_json::Value, i: usize) -> &str {
    parsed
        .get("phrases")
        .and_then(|v| v.as_array())
        .and_then(|arr| arr.get(i))
        .and_then(|p| p.as_str())
        .unwrap_or("")
}

/// `POST /extract`: decode each phrase and render rows exactly like
/// the batch CLI (`{"phrase", "entry"}` through [`entry_json`]).
///
/// Every [`ServeConfig::drift_sample`]th request is additionally run
/// in a provenance scope of its own, and its margin/label/cache records
/// stream into the [`DriftMonitor`]. Provenance recording never changes
/// extraction output, so sampled responses stay byte-identical.
fn handle_extract(shared: &Shared, model: &ServeModel, body: &[u8]) -> http::Response {
    let (parsed, n) = match parse_phrases(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let seq = shared.extract_seq.fetch_add(1, Ordering::SeqCst);
    let drift = if shared.monitoring && shared.drift_sample > 0 && seq % shared.drift_sample == 0 {
        shared
            .drift
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    } else {
        None
    };
    let extract_all = || {
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let p = phrase_at(&parsed, i);
            let e = model.extract_ingredient(p);
            rows.push(json!({ "phrase": p, "entry": entry_json(&e) }));
        }
        rows
    };
    let rows = match drift {
        Some(monitor) => {
            let (rows, records) = recipe_obs::provenance::capture(extract_all);
            monitor.observe(&records);
            rows
        }
        None => extract_all(),
    };
    http::Response::json(200, render(&json!({ "results": rows })))
}

/// `POST /explain`: like the CLI `explain` command — per-phrase
/// provenance (Viterbi margins, cache origin, dictionary votes), each
/// phrase recorded in a scope of its own.
fn handle_explain(model: &ServeModel, body: &[u8]) -> http::Response {
    let (parsed, n) = match parse_phrases(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let p = phrase_at(&parsed, i);
        let (e, records) = recipe_obs::provenance::capture(|| model.extract_ingredient(p));
        rows.push(json!({
            "phrase": p,
            "entry": entry_json(&e),
            "provenance": recipe_obs::provenance::to_json(&records),
        }));
    }
    http::Response::json(200, render(&json!({ "results": rows })))
}

/// `GET /healthz`: liveness plus a model/shard summary.
fn handle_healthz(shared: &Shared, model: &ServeModel) -> http::Response {
    let doc = json!({
        "status": "ok",
        "model": model.kind(),
        "shards": shared.shards,
        "queue_depth": shared.gate.waiting(),
        "monitoring": shared.monitoring,
    });
    http::Response::json(200, render(&doc))
}

/// `GET /metrics`: a full telemetry document (global registry merged
/// with the serving and inference registries, cumulative since launch,
/// plus the request profile), schema-valid for `recipe-mine stats`,
/// extended with the prediction-drift summary.
fn handle_metrics(shared: &Shared, model: &ServeModel) -> http::Response {
    shared.metrics.refresh_gauges(shared.gate.waiting());
    let mut t = recipe_obs::Telemetry::gather(&[
        shared.metrics.registry(),
        model.inference().metrics_registry(),
    ]);
    t.profile = shared.profiler.snapshot();
    let drift = shared
        .drift
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let drift_doc = match drift {
        Some(monitor) => monitor.report(),
        None => json!({ "active": false }),
    };
    let doc = json!({
        "schema_version": recipe_obs::report::SCHEMA_VERSION,
        "command": "serve",
        "telemetry": serde_json::to_value(&t),
        "drift": drift_doc,
    });
    http::Response::json(200, render(&doc))
}

/// `GET /admin/slow`: the slowest-request exemplar table, worst first,
/// with each request's lifecycle breakdown.
fn handle_slow(shared: &Shared) -> http::Response {
    let mut entries = {
        let table = shared.slow.lock().unwrap_or_else(|p| p.into_inner());
        table.clone()
    };
    entries.sort_by(|a, b| {
        b.total_s
            .partial_cmp(&a.total_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let rows: Vec<serde_json::Value> = entries
        .iter()
        .map(|e| {
            json!({
                "id": e.id,
                "path": e.path,
                "status": e.status,
                "queue_wait_s": e.queue_wait_s,
                "handle_s": e.handle_s,
                "write_s": e.write_s,
                "total_s": e.total_s,
            })
        })
        .collect();
    http::Response::json(
        200,
        render(&json!({ "capacity": SLOW_TABLE_CAP, "slowest": rows })),
    )
}

/// `POST /admin/reload`: hot-swap the model. An empty or `{}` body
/// re-reads the source the current model came from; `{"model": path,
/// "quantized": bool}` switches sources.
fn handle_reload(shared: &Shared, body: &[u8]) -> http::Response {
    let (mut path, mut quantized) = {
        let src = shared
            .model_source
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        src.clone()
    };
    if !body.is_empty() {
        let Ok(text) = std::str::from_utf8(body) else {
            return http::Response::json(400, err_json("body is not UTF-8"));
        };
        let parsed: serde_json::Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => {
                return http::Response::json(400, err_json(&format!("body is not JSON: {e:?}")))
            }
        };
        if let Some(p) = parsed.get("model").and_then(|v| v.as_str()) {
            path = p.to_string();
        }
        if let Some(q) = parsed.get("quantized").and_then(|v| v.as_bool()) {
            quantized = q;
        }
    }
    match ServeModel::load(&path, quantized) {
        Ok(model) => {
            let kind = model.kind();
            install_model(shared, model);
            {
                let mut src = shared
                    .model_source
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                *src = (path.clone(), quantized);
            }
            http::Response::json(
                200,
                render(&json!({ "reloaded": path, "kind": kind, "quantized": quantized })),
            )
        }
        Err(e) => http::Response::json(500, err_json(&format!("reload failed: {e}"))),
    }
}

/// `POST /admin/shutdown`: begin graceful drain. The woken acceptor
/// drains the gate, wakes idle connections, and exits.
fn handle_shutdown(shared: &Shared) -> http::Response {
    begin_shutdown(shared);
    http::Response::json(200, render(&json!({ "shutting_down": true })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.shards, 0);
        assert!(cfg.queue_cap >= 1);
        assert!(cfg.retry_after_secs >= 1);
    }

    #[test]
    fn error_responses_map_framing_errors_to_4xx() {
        let resp = error_response(&http::HttpError::BodyTooLarge);
        assert_eq!(resp.status, 413);
        let resp = error_response(&http::HttpError::BadRequest("x".to_string()));
        assert_eq!(resp.status, 400);
        let resp = error_response(&http::HttpError::TransferEncoding);
        assert_eq!(resp.status, 501);
    }

    #[test]
    fn render_appends_trailing_newline() {
        let text = render(&json!({ "a": 1 }));
        assert!(text.ends_with('\n'));
        assert!(text.starts_with('{'));
    }
}
