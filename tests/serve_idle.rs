//! An idle server burns no CPU: every wait in `recipe-serve` is a
//! blocking call the kernel ends, with no timer polling on the idle
//! path. Kept in its own test binary so that no parallel test shares
//! the process CPU counters it reads.

use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus};
use recipe_serve::{ServeConfig, ServeModel, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// This process's utime + stime in clock ticks (`/proc/self/stat`
/// fields 14 and 15; Linux reports them in units of 1/100 s).
#[cfg(target_os = "linux")]
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let (_, rest) = stat.rsplit_once(')').expect("stat command name");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    field(14) + field(15)
}

/// One keep-alive `GET /healthz`, reading exactly the response.
fn healthz(stream: &mut TcpStream) {
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: idle\r\n\r\n")
        .expect("send");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).expect("read head"),
            1,
            "eof mid-head"
        );
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head:?}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
}

#[cfg(target_os = "linux")]
#[test]
fn idle_server_with_open_keep_alive_connections_uses_no_cpu() {
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(4242));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        ..ServeConfig::default()
    };
    let server = Server::launch(
        &cfg,
        ServeModel::Json(pipeline),
        ("<test>".to_string(), false),
    )
    .expect("launch server");
    let addr = server.local_addr();
    // Two keep-alive connections, each served once and then left idle
    // well inside the server's 5 s idle timeout.
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            healthz(&mut s);
            s
        })
        .collect();

    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(3));
    let spent_ms = (cpu_ticks() - before) * 10;
    assert!(
        spent_ms <= 20,
        "idle server used {spent_ms} ms of CPU in 3 s with {} keep-alive connections open",
        conns.len()
    );

    server.request_shutdown();
    server.join();
}
